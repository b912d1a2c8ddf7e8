"""Deterministic discrete-event simulation substrate.

Public surface:

* :class:`~repro.sim.kernel.Simulator` — virtual clock + event queue
* :class:`~repro.sim.kernel.SimFuture` — awaitable cell for processes
* :class:`~repro.sim.resources.Server` — FIFO queueing resource (node CPU)
* :class:`~repro.sim.network.Network` — latency/bandwidth/failure model
* :class:`~repro.sim.costs.CostModel` — every tunable cost constant
* :class:`~repro.sim.rng.RngRegistry` — named reproducible RNG streams
"""

from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.durable import DurableFile, DurableStore
from repro.sim.kernel import Process, SimFuture, Simulator, TimerHandle
from repro.sim.network import Network, NetworkParams
from repro.sim.resources import Server
from repro.sim.rng import RngRegistry

__all__ = [
    "Simulator",
    "SimFuture",
    "TimerHandle",
    "Process",
    "Server",
    "Network",
    "NetworkParams",
    "CostModel",
    "DEFAULT_COSTS",
    "DurableFile",
    "DurableStore",
    "RngRegistry",
]
