"""The socket server's import boundary, checked in fresh interpreters.

``bespokv serve`` hosts one engine behind a wire codec; it must not load
the simulator, the actor fabric, the controlets or the layers above
them - not at start-up and not after serving requests.  The package
inits resolve their re-exports on first use, so every exported name
must still resolve.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: module trees the serve process must never load
FORBIDDEN = ("repro.sim", "repro.net.actor", "repro.net.simnet", "repro.core", "repro.client",
             "repro.harness", "repro.analysis", "numpy")

SERVE = """
import contextlib, io, json, sys
import repro.cli
from repro.datalet import make_engine
from repro.net.tcp import DataletServer, TcpKVClient

with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(["serve", "--serve-seconds", "0"]) == 0
for protocol in ("resp", "binary"):
    with DataletServer(make_engine("ht"), protocol=protocol) as server:
        with TcpKVClient(*server.address, protocol=protocol) as client:
            client.put("k", "v")
            assert client.get("k") == "v"
            client.delete("k")
            assert client.size() == 0 and client.ping()
json.dump(sorted(sys.modules), sys.stdout)
"""

RESOLVE = """
import importlib, json, sys
names = {}
for package in ("repro", "repro.net", "repro.datalet"):
    module = importlib.import_module(package)
    names[package] = [n for n in module.__all__ if getattr(module, n, None) is None]
json.dump(names, sys.stdout)
"""


def _run(code: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return json.loads(out)


def test_serving_loads_only_the_socket_path():
    loaded = _run(SERVE)
    offenders = [m for m in loaded
                 if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]
    assert offenders == []
    assert "repro.net.tcp" in loaded  # the probe did exercise the server


def test_every_exported_name_resolves():
    assert _run(RESOLVE) == {"repro": [], "repro.net": [], "repro.datalet": []}


def test_from_imports_keep_working():
    from repro import Deployment
    from repro.datalet import DataletActor, WriteAheadLog
    from repro.net import Message

    assert Deployment.__module__ == "repro.harness.deploy"
    assert DataletActor.__module__ == "repro.datalet.base"
    assert WriteAheadLog.__module__ == "repro.datalet.wal"
    assert Message.__module__ == "repro.net.message"
