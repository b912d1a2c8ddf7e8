"""Extended topologies (paper §IV-E) — synthesized from the pre-built
controlets, demonstrating the framework's extensibility claim.

* **AA-MS hybrid** — "an MS topology for each shard on top of the
  logical AA overlay": several *masters* accept writes and order them
  through the shared log (AA+EC machinery), and each master owns a set
  of *slaves* it propagates to asynchronously (MS+EC machinery).
  :class:`AAMSHybridControlet` is literally the AA+EC controlet with
  MS+EC's master side (:class:`~repro.core.ms_ec.AsyncPropagator`)
  bolted on — 17 logical lines by the §VII counter
  (``benchmarks/test_sec7_dev_effort.py``): the slave target list, and
  log-ordered entries fed to the propagator.

* **P2P** — "clients send a request to any controlet, which then routes
  the request to the actual controlet that manages the requested data.
  In this case, a controlet needs to maintain a routing map similar to
  a finger table": :class:`P2PNode` implements Chord-style routing —
  each node keeps ``log2(ring)`` fingers and greedily forwards to the
  closest preceding finger, reaching the owner in O(log n) hops.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.aa_ec import AAEventualControlet
from repro.core.ms_ec import AsyncPropagator
from repro.datalet import Engine, HashTableEngine
from repro.errors import KeyNotFound
from repro.hashing import stable_hash
from repro.net.actor import Actor
from repro.net.message import Message

__all__ = ["AAMSHybridControlet", "P2PNode", "chord_distance"]


class AAMSHybridControlet(AsyncPropagator, AAEventualControlet):
    """Active master with its own asynchronously-replicated slaves.

    ``slaves`` are controlet ids that understand ``replicate`` batches
    (plain :class:`~repro.core.ms_ec.MSEventualControlet` instances work
    as-is — reuse, per the paper's §IV pitch).  Propagation, coalesced
    frames and gap repair are MS+EC's own (:class:`AsyncPropagator`);
    only the target list differs."""

    def __init__(self, *args, slaves: Optional[List[str]] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.slaves = slaves or []

    def propagation_targets(self) -> List[str]:
        return self.slaves

    def _apply_entries(self, entries) -> None:
        fresh = [d for d in entries if int(d["pos"]) >= self.cursor]
        super()._apply_entries(entries)
        # Slaves are fed exclusively from the replay path — *including*
        # our own writes — so they observe mutations in log order; the
        # accept path's order differs from the log's under concurrent
        # masters and would leave slaves divergent.  The log entry's rid
        # rides along so slaves inherit the request identity too.
        for d in fresh:
            self._enqueue(d["op"], d["key"], d["value"], d.get("rid"))


# ---------------------------------------------------------------------------
# Chord-style P2P routing
# ---------------------------------------------------------------------------
RING_BITS = 64
RING = 1 << RING_BITS


def chord_distance(a: int, b: int) -> int:
    """Clockwise distance from ``a`` to ``b`` on the ring."""
    return (b - a) % RING


class P2PNode(Actor):
    """One peer: local storage + finger-table request routing.

    The node owning a key is the first node clockwise of the key's hash
    (its *successor*).  Any node accepts any request; non-owners forward
    to the closest preceding finger, halving the remaining ring distance
    each hop.  ``hops`` is carried in the payload so tests can assert
    the O(log n) bound.
    """

    def __init__(self, node_id: str, members: List[str], engine: Optional[Engine] = None):
        super().__init__(node_id)
        self.engine = engine or HashTableEngine()
        self.members = sorted(members, key=stable_hash)
        self.position = stable_hash(node_id)
        self.fingers = self._build_fingers()
        for op in ("put", "get", "del"):
            self.register(op, self._route)

    def service_demand(self, msg: Message, costs) -> float:
        return costs.scaled("controlet_overhead")

    # -- routing table ---------------------------------------------------
    def _successor_of(self, point: int) -> str:
        """First member clockwise of ``point``."""
        best, best_d = None, RING
        for m in self.members:
            d = chord_distance(point, stable_hash(m))
            if d < best_d:
                best, best_d = m, d
        assert best is not None
        return best

    def _build_fingers(self) -> List[Tuple[int, str]]:
        """finger[i] = successor(self.position + 2^i), deduplicated."""
        fingers: List[Tuple[int, str]] = []
        seen = set()
        for i in range(RING_BITS):
            point = (self.position + (1 << i)) % RING
            owner = self._successor_of(point)
            if owner not in seen and owner != self.node_id:
                seen.add(owner)
                fingers.append((stable_hash(owner), owner))
        return fingers

    def owner_of(self, key: str) -> str:
        return self._successor_of(stable_hash(key))

    def _closest_preceding(self, point: int) -> str:
        """Classic Chord greedy step: among fingers strictly between us
        and ``point`` (clockwise), pick the one closest to ``point``.
        The progress constraint (finger ahead of us but before the
        target) guarantees termination; if no finger qualifies we are
        one hop away and forward straight to the owner."""
        self_to_point = chord_distance(self.position, point)
        best: Optional[str] = None
        best_ahead = 0
        for pos, owner in self.fingers:
            ahead = chord_distance(self.position, pos)
            if 0 < ahead < self_to_point and ahead > best_ahead:
                best, best_ahead = owner, ahead
        return best if best is not None else self._successor_of(point)

    # -- request handling -------------------------------------------------
    def _route(self, msg: Message) -> None:
        key = msg.payload["key"]
        owner = self.owner_of(key)
        if owner == self.node_id:
            self._serve(msg)
            return
        fwd_payload = dict(msg.payload)
        fwd_payload["hops"] = fwd_payload.get("hops", 0) + 1
        fwd = Message(type=msg.type, payload=fwd_payload, src=msg.src,
                      dst=self._closest_preceding(stable_hash(key)),
                      msg_id=msg.msg_id, reply_to=msg.reply_to, ctx=msg.ctx)
        self._transmit(fwd)

    def _serve(self, msg: Message) -> None:
        hops = msg.payload.get("hops", 0)
        try:
            if msg.type == "put":
                self.engine.put(msg.payload["key"], msg.payload["val"])
                self.respond(msg, "ok", {"hops": hops})
            elif msg.type == "get":
                val = self.engine.get(msg.payload["key"])
                self.respond(msg, "value", {"val": val, "hops": hops})
            else:
                self.engine.delete(msg.payload["key"])
                self.respond(msg, "ok", {"hops": hops})
        except KeyNotFound:
            self.respond(msg, "error", {"error": "not_found", "key": msg.payload["key"],
                                        "hops": hops})
