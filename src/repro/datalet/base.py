"""Datalet API: the single-server KV store contract.

A *datalet* is the user-supplied half of BESPOKV (paper §III-A): a
single-node store exposing ``Put``/``Get``/``Del`` (Table II), oblivious
to replication, topology or consistency.  Here it splits into:

* a **storage engine** (:class:`Engine`, defined in
  :mod:`repro.datalet.engine` and re-exported here) — a plain
  synchronous data structure, unit- and property-testable in
  isolation; and
* a **datalet actor** (:class:`DataletActor`) — the message-facing
  wrapper that serves the datalet protocol and charges engine-specific
  CPU costs in simulation.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Dict, Optional

from repro.datalet.engine import Engine
from repro.errors import KeyNotFound
from repro.net.actor import Actor
from repro.net.message import Message

__all__ = ["Engine", "DataletActor"]


class DataletActor(Actor):
    """Message front-end for an :class:`Engine`.

    Understands the datalet protocol:

    ========= ============================== =========================
    request    payload                        response
    ========= ============================== =========================
    ``put``    ``key``, ``val``               ``ok``
    ``get``    ``key``                        ``value`` {``val``} / ``error``
    ``del``    ``key``                        ``ok`` / ``error``
    ``scan``   ``start``, ``end``, ``limit``  ``range`` {``items``}
    ``snapshot``                              ``snapshot`` {``data``}
    ``restore`` ``data``                      ``ok``
    ``stats``                                 ``stats`` {...}
    ========= ============================== =========================
    """

    #: stored data is *the* observable state of a datalet; op counters
    #: are accounting and stay out
    fingerprint = (("engine", methodcaller("snapshot")),)

    def __init__(self, node_id: str, engine: Engine, wal=None):
        super().__init__(node_id)
        self.engine = engine
        self.kind = engine.kind
        #: optional :class:`~repro.datalet.wal.WriteAheadLog`.  When
        #: set, every mutation is logged (and fsynced per the WAL's
        #: group-commit policy) *before* it is acknowledged, and the
        #: log is folded into an engine checkpoint when one falls due
        #: (:meth:`WriteAheadLog.checkpoint_due`).  The extra
        #: CPU shows up in :meth:`service_demand` — durability is not
        #: free (the durability-tax benchmark measures exactly this).
        self.wal = wal
        self.ops = {"put": 0, "get": 0, "del": 0, "scan": 0}
        self.register("put", self._on_put)
        self.register("get", self._on_get)
        self.register("del", self._on_del)
        self.register("scan", self._on_scan)
        self.register("apply_batch", self._on_apply_batch)
        self.register("snapshot", self._on_snapshot)
        self.register("restore", self._on_restore)
        self.register("stats", self._on_stats)

    def metrics_group(self) -> Dict[str, float]:
        out = {f"ops_{k}": float(v) for k, v in self.ops.items()}
        if self.wal is not None:
            out.update(self.wal.stats())
        return out

    # -- cost accounting ---------------------------------------------------
    def _wal_cost(self, costs, mutations: int) -> float:
        """CPU charge for logging ``mutations`` ops: per-record append
        plus the fsync, amortized across the group-commit window (the
        charge is deterministic regardless of where in the window this
        message lands)."""
        if self.wal is None or mutations <= 0:
            return 0.0
        per_op = costs.scaled("wal_append_cost") + (
            costs.scaled("wal_fsync_cost") / self.wal.sync_every
        )
        return per_op * mutations

    def service_demand(self, msg: Message, costs) -> float:
        op = msg.type
        if op in ("put", "get", "del"):
            base = costs.datalet_cost(self.kind, op)
            if op in ("put", "del"):
                base += self._wal_cost(costs, 1)
            return base
        if op == "scan":
            limit = msg.payload.get("limit") or 100
            try:
                return costs.datalet_cost(self.kind, "scan", items=limit)
            except KeyError:
                return 0.0
        if op == "apply_batch":
            base = sum(
                costs.datalet_cost(self.kind, "put" if e["op"] == "put" else "del")
                for e in msg.payload["ops"]
            )
            n_ops = len(msg.payload["ops"])
            if self.wal is not None and n_ops:
                base += costs.scaled("wal_append_cost") * n_ops
                if self.wal.sync_every == 1:
                    # WAL group commit: the whole batch shares one fsync
                    base += costs.scaled("wal_fsync_cost")
                else:
                    base += (costs.scaled("wal_fsync_cost") * n_ops
                             / self.wal.sync_every)
            return base
        return 0.0

    # -- handlers ------------------------------------------------------
    def _log_mutation(self, op: str, key: str, value: Optional[str] = None) -> None:
        """WAL the mutation before it is acknowledged.

        The append syncs per the WAL's group-commit policy, so with
        ``sync_every=1`` every ack implies the record is on disk.
        """
        if self.wal is not None:
            self.wal.append(op, key, value)

    def _maybe_compact(self) -> None:
        """Fold the log into an engine checkpoint when due.  Called
        *after* the mutation is applied, so the checkpoint matches its
        seq."""
        if self.wal is not None and self.wal.checkpoint_due(self.engine):
            runs, tail = self.engine.checkpoint()
            self.wal.install_snapshot(tail, runs)

    def _on_put(self, msg: Message) -> None:
        self._log_mutation("put", msg.payload["key"], msg.payload["val"])
        self.engine.put(msg.payload["key"], msg.payload["val"])
        self.ops["put"] += 1
        self._maybe_compact()
        self.respond(msg, "ok")

    def _on_get(self, msg: Message) -> None:
        self.ops["get"] += 1
        try:
            val = self.engine.get(msg.payload["key"])
        except KeyNotFound:
            self.respond(msg, "error", {"error": "not_found", "key": msg.payload["key"]})
            return
        self.respond(msg, "value", {"val": val})

    def _on_del(self, msg: Message) -> None:
        self.ops["del"] += 1
        if self.wal is not None and not self.engine.contains(msg.payload["key"]):
            # nothing to durably remove; don't burn a log record
            self.respond(msg, "error", {"error": "not_found", "key": msg.payload["key"]})
            return
        self._log_mutation("del", msg.payload["key"])
        try:
            self.engine.delete(msg.payload["key"])
        except KeyNotFound:
            self.respond(msg, "error", {"error": "not_found", "key": msg.payload["key"]})
            return
        self._maybe_compact()
        self.respond(msg, "ok")

    def _on_scan(self, msg: Message) -> None:
        self.ops["scan"] += 1
        try:
            items = self.engine.scan(
                msg.payload["start"], msg.payload["end"], msg.payload.get("limit")
            )
        except NotImplementedError as e:
            self.respond(msg, "error", {"error": str(e)})
            return
        self.respond(msg, "range", {"items": items})

    def _on_apply_batch(self, msg: Message) -> None:
        """Apply replicated mutations *in order* within one message —
        replication paths use this instead of per-op messages so network
        jitter can never reorder a delete ahead of its put.  Deletes of
        absent keys are tolerated (a lagging replica may see a delete
        for a put it never received)."""
        applied = 0
        # accept-path callers (the MS head/master batches its own local
        # applies) need per-op outcomes to answer each client correctly
        results = [] if msg.payload.get("want_results") else None
        if self.wal is not None:
            # group commit: the members' log records share one fsync
            # (end_commit_group), paid before the batch is acked below
            self.wal.begin_commit_group()
        try:
            for entry in msg.payload["ops"]:
                try:
                    if entry["op"] == "put":
                        self._log_mutation("put", entry["key"], entry["val"])
                        self.engine.put(entry["key"], entry["val"])
                        self.ops["put"] += 1
                    else:
                        if self.wal is not None and not self.engine.contains(entry["key"]):
                            if results is not None:
                                results.append("not_found")
                            continue
                        self._log_mutation("del", entry["key"])
                        self.engine.delete(entry["key"])
                        self.ops["del"] += 1
                    applied += 1
                except KeyNotFound:
                    if results is not None:
                        results.append("not_found")
                    continue
                if results is not None:
                    results.append("ok")
        finally:
            if self.wal is not None:
                self.wal.end_commit_group()
        self._maybe_compact()
        payload: Dict[str, object] = {"applied": applied}
        if results is not None:
            payload["results"] = results
        self.respond(msg, "ok", payload)

    def _on_snapshot(self, msg: Message) -> None:
        self.respond(msg, "snapshot", {"data": self.engine.snapshot()})

    def _on_restore(self, msg: Message) -> None:
        reset = bool(msg.payload.get("reset", False))
        data = msg.payload["data"]
        self.engine.restore({k: data[k] for k in sorted(data)}, reset=reset)
        if self.wal is not None:
            # an adopted snapshot is a new durable baseline: everything
            # the log held is superseded (or, for a reset, stale)
            runs, tail = self.engine.checkpoint()
            self.wal.install_snapshot(tail, runs)
        self.respond(msg, "ok")

    def _on_stats(self, msg: Message) -> None:
        stats = dict(self.engine.stats())
        stats.update({f"ops_{k}": float(v) for k, v in self.ops.items()})
        self.respond(msg, "stats", stats)
