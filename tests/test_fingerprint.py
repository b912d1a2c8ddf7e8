"""Every piece of controlet state is fingerprinted, or says why not.

The model checker merges two states whose fingerprints are equal, so a
field missing from ``snapshot_state()`` can hide a bug.  Each controlet
class declares its fingerprinted fields once (``fingerprint``, merged
along the MRO by ``Actor.snapshot_state``); the template declares its
two parts' fields by dotted path (``"_recovery.catchup"``).  The
completeness check reads every ``self.X`` that a method other than
``__init__`` writes or pushes into (the shared ``SourceIndex`` facts),
over each class's whole ancestry, and requires it to be declared, a
registered pump (the pump registry fingerprints those), ``stats``, or
listed in :data:`EXEMPT` with its reason.
"""

import pytest

from repro.analysis.source import SourceIndex
from repro.cluster.gate import ReshardParticipant
from repro.core.aa_ec import AAEventualControlet
from repro.core.aa_sc import AAStrongControlet
from repro.core.controlet import Controlet, MasterSlaveControlet
from repro.core.hybrid import AAMSHybridControlet
from repro.core.ms_ec import AsyncPropagator, MSEventualControlet
from repro.core.ms_sc import MSStrongControlet
from repro.core.range_query import RangeQueryControlet
from repro.core.recovery import Recovery
from repro.net.actor import declared_state

from tests.test_hybrid import build_hybrid

CONTROLETS = [Controlet, MasterSlaveControlet, AsyncPropagator, MSStrongControlet,
              MSEventualControlet, AAStrongControlet, AAEventualControlet,
              AAMSHybridControlet, RangeQueryControlet]

#: the template's parts, by the attribute that holds each one.
PARTS = {"_recovery": Recovery, "_gate": ReshardParticipant}

#: written outside ``__init__`` but deliberately left out of fingerprints.
EXEMPT = {
    "_ctx": "transport binding, set once when the actor attaches",
    "_transmit": "transport binding, set once when the actor attaches",
    "_ctx_current": "tracing: the request envelope of the running handler",
    "_seen_ids": "duplicate-delivery window of msg ids, which differ across "
                 "replayed branches",
    "_rid_order": "rid dedup order; checker clients stamp no rids, so it stays "
                  "empty (summaries.IGNORED_ATTRS)",
    "_stream_id": "clock-valued: a rejoined MS+EC master names its stream by "
                  "its boot time",
    "ranges": "a controlet's gate is installed without a partitioner "
              "(_install_shard), so its range layout stays None",
}


@pytest.fixture(scope="module")
def index():
    return SourceIndex.from_root()


def declared(cls):
    """Every path ``cls`` declares along its MRO, read past the per-class
    cache so that a patched declaration shows."""
    return {path for path, _, _ in declared_state.__wrapped__(cls)}


def written(index, cls_name):
    """``(defining class, attr)`` for every ``self.X`` a method of
    ``cls_name``'s ancestry other than ``__init__`` stores or pushes to."""
    out = set()
    for ancestor in index.ancestry(cls_name):
        for name, fn in index.methods(ancestor).items():
            if name != "__init__":
                facts = index.facts(fn)
                out |= {(ancestor, attr) for attr in facts.writes | facts.fed}
    return out


def undeclared(index):
    """``Class.attr`` of every write no declaration, pump or exemption
    covers, over the controlet classes and the template's parts."""
    missing = set()
    for cls in CONTROLETS:
        covered = declared(cls) | set(index.pumps(cls.__name__)) | set(EXEMPT) | {"stats"}
        missing |= {f"{owner}.{attr}" for owner, attr in written(index, cls.__name__)
                    if attr not in covered}
    for attr, part in PARTS.items():
        fields = {p.split(".", 1)[1] for p in declared(Controlet) if p.startswith(attr + ".")}
        covered = fields | set(index.pumps(part.__name__)) | set(EXEMPT)
        missing |= {f"{owner}.{field}" for owner, field in written(index, part.__name__)
                    if field not in covered}
    return sorted(missing)


def test_every_written_field_is_declared(index):
    assert undeclared(index) == []


def test_deleting_a_declaration_is_caught(index, monkeypatch):
    """Must-fail: the propagator's sequence counter loses its declaration."""
    monkeypatch.setattr(AsyncPropagator, "fingerprint", tuple(
        f for f in AsyncPropagator.fingerprint if f != "_seq"))
    assert "AsyncPropagator._seq" in undeclared(index)


def test_no_controlet_or_part_hand_writes_a_fingerprint():
    for cls in CONTROLETS + list(PARTS.values()):
        assert "snapshot_state" not in vars(cls), cls.__name__


@pytest.mark.parametrize("advance", [
    lambda m: setattr(m, "_seq", m._seq + 1),
    lambda m: m._backlog.append(("put", "k", "v", None)),
], ids=["seq", "backlog"])
def test_hybrid_fingerprints_its_propagator(advance):
    """The AA-MS hybrid declares nothing itself, yet its master's
    propagation state is in its fingerprint."""
    cluster, port = build_hybrid()
    cluster.sim.run_future(port.request("m0", "put", {"key": "k", "val": "1"}))
    cluster.sim.run_until(cluster.sim.now + 2.0)
    master = cluster.actor("m0")
    before = master.snapshot_state()
    advance(master)
    assert master.snapshot_state() != before
