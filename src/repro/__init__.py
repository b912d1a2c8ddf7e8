"""bespokv-py: a Python reproduction of *BESPOKV: Application Tailored
Scale-Out Key-Value Stores* (SC'18).

Quick tour::

    from repro import Deployment, DeploymentSpec, Topology, Consistency

    dep = Deployment(DeploymentSpec(shards=4, replicas=3,
                                    topology=Topology.MS,
                                    consistency=Consistency.STRONG))
    dep.start()
    client = dep.client("app")
    dep.sim.run_future(client.connect())
    dep.sim.run_future(client.put("k", "v"))
    assert dep.sim.run_future(client.get("k")) == "v"

Subpackages:

* :mod:`repro.sim` — deterministic discrete-event substrate
* :mod:`repro.net` — messages, actors, transports, wire protocols, TCP
* :mod:`repro.datalet` — single-server storage engines (tHT/tMT/tLSM/...)
* :mod:`repro.core` — controlets, cluster types, transitions, hybrids
* :mod:`repro.coordinator` / :mod:`repro.dlm` / :mod:`repro.sharedlog`
* :mod:`repro.client` — the routing client library
* :mod:`repro.harness` — deployment builder + load generation
* :mod:`repro.workloads` — YCSB/HPC/DL workload generators
* :mod:`repro.baselines` — Twemproxy/Dynomite/Cassandra/Voldemort models
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Tuple

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: Dict[str, str]) -> Tuple[Callable, Callable]:
    """PEP 562 ``__getattr__``/``__dir__`` for ``package`` resolving each
    re-export (name -> the module defining it) on first use, so that
    importing one submodule - ``bespokv serve`` needs only the socket
    path - does not load the simulator and every layer built on it."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, {
    "KVClient": "repro.client",
    "ClusterMap": "repro.core",
    "Consistency": "repro.core",
    "ControlConfig": "repro.core",
    "Replica": "repro.core",
    "ShardInfo": "repro.core",
    "Topology": "repro.core",
    "DataletActor": "repro.datalet",
    "Engine": "repro.datalet",
    "make_engine": "repro.datalet",
    "Deployment": "repro.harness",
    "DeploymentSpec": "repro.harness",
})

__all__ = [
    "Deployment",
    "DeploymentSpec",
    "KVClient",
    "Topology",
    "Consistency",
    "ControlConfig",
    "ClusterMap",
    "ShardInfo",
    "Replica",
    "Engine",
    "DataletActor",
    "make_engine",
    "__version__",
]
