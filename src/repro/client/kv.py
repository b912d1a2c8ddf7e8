"""BESPOKV client library (paper §III "Client library", Table II).

The client caches the coordinator's cluster map and asks one
:class:`~repro.cluster.routing.RingRouting` which shard owns a key, or
which shards cover a key range: consistent hashing, or range
partitioning when the coordinator names it (the range-query service).
It then routes each request to the right controlet for the shard's
topology/consistency combination:

* MS+SC — writes to the chain head, strong reads to the tail;
* MS+EC — writes to the master, reads to any replica;
* AA+*  — any active for anything.

Every request — a point op, one shard's leg of a scan, a server-side
scan — runs through one attempt loop (:meth:`KVClient._attempts`).
Stale routing shows up as ``redirect``/``retired``/``wrong_shard``
errors or timeouts; the loop then refreshes the map and retries with
jittered backoff (a redirect retries at once) — the mechanism behind
the throughput dip-and-recover shape in the transition and failover
experiments (Figs 10 & 16).

All operations return :class:`~repro.sim.kernel.SimFuture` so that
closed-loop load generators can drive thousands of concurrent client
sessions inside the simulation.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.types import ClusterMap, Consistency, ShardInfo, Topology
from repro.obs import RequestContext
from repro.errors import (
    BespoError,
    KeyNotFound,
    RequestTimeout,
    ShardUnavailable,
    TableNotFound,
)
from repro.cluster.routing import RingRouting
from repro.net.simnet import ClientPort, SimCluster
from repro.sim import SimFuture

__all__ = ["KVClient"]


class KVClient:
    """Routing, retrying KV client over a :class:`SimCluster`."""

    def __init__(
        self,
        cluster: SimCluster,
        name: str,
        coordinator: "str | Sequence[str]" = "coordinator",
        op_timeout: float = 0.5,
        max_retries: int = 6,
        retry_backoff: float = 0.2,
        retry_backoff_cap: float = 2.0,
        recorder: Optional[Any] = None,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.name = name
        self.port: ClientPort = cluster.add_port(name)
        #: coordinator preference list; on timeout the client fails over
        #: to the next entry (primary/standby resilience, §VII).
        self.coordinators: List[str] = (
            [coordinator] if isinstance(coordinator, str) else list(coordinator)
        )
        if not self.coordinators:
            raise BespoError("need at least one coordinator address")
        self.op_timeout = op_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        #: optional chaos history recorder (duck-typed; see
        #: :class:`repro.chaos.history.HistoryRecorder`).  Records every
        #: put/get/delete invocation and its outcome — including
        #: timeouts and exhausted retries — for the consistency oracle.
        self.recorder = recorder
        self.map: Optional[ClusterMap] = None
        #: key→shard routing (ring generation, ring or key ranges, open
        #: reshard window) mirrored from the coordinator's replies.  The
        #: generation is stamped on every keyed op so controlets (and
        #: the DLM / sequencer backstops) can fence stale-routed
        #: requests during a reshard; while a window is open, writes for
        #: moved keys dual-route to both owners and reads prefer the new
        #: owner with fallback to the old one.
        self._routing = RingRouting()
        # Named stream from the registry, not a derived ad-hoc Random:
        # the client's jitter draws replay bit-for-bit for a given seed.
        self._rng = cluster.rng.stream(f"client.{name}")
        self._tables: Dict[str, bool] = {}
        self.ops = 0
        self.retries = 0
        #: subset of ``retries`` caused by RPC timeouts — the fabric-
        #: indeterminate attempts the oracle must model as potential
        #: duplicates (routing bounces never execute and are excluded).
        self.timeouts = 0
        self.refreshes = 0
        #: request-id stream: one id per *operation* (not per attempt),
        #: so every retry of a mutation carries the same identity and
        #: controlets can deduplicate.
        self._req_seq = itertools.count(1)
        self._latency: Dict[str, Any] = {}
        cluster.metrics.register_group(
            f"client.{name}",
            lambda: {
                "ops": self.ops,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "refreshes": self.refreshes,
            },
        )

    # ------------------------------------------------------------------
    # topology cache
    # ------------------------------------------------------------------
    def connect(self) -> SimFuture:
        """Fetch the cluster map; must complete before the first op."""
        return self.sim.spawn(self._refresh_proc())

    def _refresh_proc(self):
        last_error: Optional[BespoError] = None
        for coord in list(self.coordinators):
            try:
                resp = yield self.port.request(
                    coord, "get_cluster_map", {}, timeout=self.op_timeout * 4
                )
            except RequestTimeout as e:
                last_error = e
                continue
            self._install_map(resp.payload)
            self.refreshes += 1
            if coord != self.coordinators[0]:
                # promote the responsive coordinator to the front
                self.coordinators.remove(coord)
                self.coordinators.insert(0, coord)
            return self.map.epoch
        raise last_error or BespoError("no coordinator reachable")

    def _install_map(self, payload: Dict[str, Any]) -> None:
        """Adopt a refresh response *incrementally*.

        The response is epoch-fenced: a map at or below the cached
        epoch (with an unchanged ring generation) re-versions nothing
        and is dropped without re-deriving any routing state.  When it
        does advance, the routing block is installed into the one
        :class:`~repro.cluster.routing.RingRouting` with the partitioner
        the reply names; it patches the hash ring with the membership
        *diff* instead of rebuilding it on every refresh.
        """
        epoch = int(payload["map"]["epoch"])
        view = payload.get("view") or {}
        if self.map is not None:
            if epoch < self.map.epoch:
                return  # stale refresh (e.g. a lagging standby)
            if epoch == self.map.epoch and int(view.get("gen", 0)) == self._routing.gen:
                return  # unchanged: keep every derived structure
        self.map = ClusterMap.from_dict(payload["map"])
        self._routing.install(view, payload.get("partitioner"))

    def auto_refresh(self, interval: float) -> None:
        """Poll the coordinator for map updates (transition pickup)."""

        def loop():
            while True:
                yield interval
                try:
                    yield self.sim.spawn(self._refresh_proc())
                except BespoError:
                    pass  # coordinator briefly unreachable; keep old map

        self.sim.spawn(loop())

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_for(self, key: str) -> ShardInfo:
        if self.map is None:
            raise BespoError("client not connected: call connect() first")
        return self.map.shard(self._routing.lookup(key))

    def _route(
        self,
        shard: ShardInfo,
        op: str,
        consistency: Optional[str],
        prefer_kind: Optional[str],
        avoid: Optional[str] = None,
    ) -> str:
        """Pick the controlet for one attempt; a free choice skips
        ``avoid`` (the replica that just answered ``retired``) whenever
        another replica remains."""
        replicas = shard.ordered()
        if not replicas:
            raise ShardUnavailable(f"shard {shard.shard_id} has no replicas")
        if prefer_kind is not None:
            preferred = [r for r in replicas if r.datalet_kind == prefer_kind]
            if preferred:
                replicas = preferred
        if avoid is not None:
            replicas = [r for r in replicas if r.controlet != avoid] or replicas
        write = op in ("put", "del")
        if shard.topology is Topology.AA:
            return self._rng.choice(replicas).controlet
        # Master-Slave
        if write:
            return shard.head.controlet
        if shard.consistency is Consistency.STRONG and consistency != "eventual":
            return shard.tail.controlet
        return self._rng.choice(replicas).controlet

    # ------------------------------------------------------------------
    # core op engine
    # ------------------------------------------------------------------
    def _begin_ctx(self, op: str, key: str, mutation: bool) -> Optional[RequestContext]:
        """Open the request envelope for one operation.

        Mutations always get a request id (retry dedup needs identity
        even with tracing off); a context with a trace id is only built
        when a :class:`~repro.obs.trace.SpanRecorder` is attached, so
        the disabled path costs one attribute check plus (for reads)
        nothing at all.
        """
        rid = f"{self.name}.{next(self._req_seq)}" if mutation else None
        obs = self.cluster.obs
        if obs is not None:
            return obs.new_trace(f"op:{op}", origin=self.name, req_id=rid)
        if rid is not None:
            return RequestContext(origin=self.name, req_id=rid)
        return None

    def _observe_latency(self, op: str, seconds: float) -> None:
        hist = self._latency.get(op)
        if hist is None:
            hist = self.cluster.metrics.histogram(
                f"client.{self.name}.latency_{op}")
            self._latency[op] = hist
        hist.observe(seconds)

    def _pause(self, attempt: int, ctx: Optional[RequestContext]):
        """Between attempts: back off (a ``backoff`` span when the
        request is traced), then refresh the map.  A lost or failed
        refresh must not abort the request — the stale map plus another
        retry is still a valid plan."""
        obs = self.cluster.obs
        span = None
        if obs is not None and ctx is not None and ctx.trace_id is not None:
            span = obs.begin(ctx, "backoff", self.name)
        yield self._backoff(attempt)
        if span is not None:
            obs.end(span, "ok")
        try:
            yield self.sim.spawn(self._refresh_proc())
        except BespoError:
            pass

    def _traced(self, ctx: Optional[RequestContext], gen):
        """Run one request's generator and close its trace (when the
        request is traced) with the outcome."""
        status = "error"
        try:
            result = yield from gen
            status = "ok"
            return result
        except KeyNotFound:
            status = "not_found"
            raise
        finally:
            obs = self.cluster.obs
            if obs is not None and ctx is not None and ctx.trace_id is not None:
                obs.end_trace(ctx, status)

    def _point(self, op: str, key: str, payload: Dict[str, Any], value: Optional[str],
               consistency: Optional[str], prefer_kind: Optional[str] = None):
        """One point op: its request envelope, its history record (when a
        recorder is attached) and its run through the attempt loop;
        returns the value a ``get`` read."""
        ctx = self._begin_ctx(op, key, mutation=op != "get")
        gen = self._op_proc(op, key, payload, consistency, prefer_kind, ctx)
        if self.recorder is not None:
            gen = self._recorded(op, key, gen, value=value, ctx=ctx)
        result = yield from gen
        return result

    def _op_proc(self, op: str, key: str, payload: Dict[str, Any],
                 consistency: Optional[str], prefer_kind: Optional[str],
                 ctx: Optional[RequestContext]):
        """A point op through the attempt loop, counted and timed."""
        self.ops += 1
        start = self.sim.now
        try:
            gen = self._attempts(op, payload, ctx, lambda: self.shard_for(key), None,
                                 consistency, prefer_kind)
            if ctx is not None and ctx.trace_id is not None:
                gen = self._traced(ctx, gen)
            resp = yield from gen
            return resp.payload["val"] if op == "get" else None
        finally:
            self._observe_latency(op, self.sim.now - start)

    def _attempts(self, op: str, payload: Dict[str, Any], ctx: Optional[RequestContext],
                  locate: Callable[[], ShardInfo], what: Optional[str],
                  consistency: Optional[str] = None, prefer_kind: Optional[str] = None,
                  timeout: Optional[float] = None):
        """The one attempt loop every request runs through; returns the
        reply.

        ``locate()`` names the shard afresh for each attempt.  A keyed
        request (``payload["key"]``) carries the ring generation, so
        servers (and the DLM / sequencer backstops) can fence
        stale-routed requests during a reshard, and dual-routes while
        the open window moves its key.  A redirect retries at once on
        the controlet it names; a timeout, ``retired``, ``wrong_shard``
        or a server without a cluster map yet backs off, refreshes the
        map and retries (after ``retired``, on another replica whenever
        the choice is free).  Raises :class:`KeyNotFound`, a
        :class:`BespoError` for any other error reply, or
        :class:`ShardUnavailable` once ``max_retries`` retries are spent.
        ``what`` names the request in those errors (``None``: the key's
        repr).
        """
        key = payload.get("key")
        override: Optional[str] = None
        avoid: Optional[str] = None
        last_error: Optional[str] = None
        for attempt in range(self.max_retries + 1):
            shard = locate()
            # one fresh payload per attempt: the caller's is reused
            req, old_sid = dict(payload), None
            if key is not None:
                req["gen"] = self._routing.gen
                old_sid = self._routing.old_owner(key)
            if old_sid is not None and old_sid in self.map.shards:
                kind, resp = yield from self._dual_attempt(
                    op, shard, self.map.shard(old_sid), req,
                    consistency, prefer_kind, ctx)
            else:
                target = override or self._route(
                    shard, op, consistency, prefer_kind, avoid)
                override = avoid = None
                kind, resp = yield from self._leg(target, op, req, ctx, timeout)
            if kind == "ok":
                return resp
            if kind == "not_found":
                raise KeyNotFound(key)
            if kind == "redirect":
                override = resp.payload.get("to")
                self.retries += 1
                continue
            if kind == "timeout":
                last_error = f"timeout talking to {target}"
            elif kind == "retired":
                last_error = f"{target} retired"
                avoid = target
            elif kind == "wrong_shard":
                # stale routing across a reshard: refresh picks up the
                # new ring (and any open window), then re-route
                last_error = f"{target} is not the owner of {key!r}"
            elif kind == "dual":
                last_error = resp
            elif kind == "cluster map not yet available":
                last_error = kind
            else:
                raise BespoError(f"{op} {what or repr(key)} failed: {kind}")
            self.retries += 1
            yield from self._pause(attempt, ctx)
        raise ShardUnavailable(f"{op} {what or repr(key)} exhausted retries: {last_error}")

    def _leg(self, target: str, op: str, payload: Dict[str, Any],
             ctx: Optional[RequestContext], timeout: Optional[float] = None):
        """The one request primitive: a single attempt at ``target``.
        Returns ``(kind, resp)`` — ``"ok"``, ``"timeout"`` or the error
        reply's code — instead of raising, so the attempt loop and the
        two concurrent legs of a dual-routed write share it.  ``payload``
        goes out as it is: a caller that reuses one copies it."""
        try:
            resp = yield self.port.request(
                target, op, payload, timeout=timeout or self.op_timeout,
                ctx=ctx)
        except RequestTimeout:
            self.timeouts += 1
            return "timeout", None
        if resp.type != "error":
            return "ok", resp
        return resp.payload.get("error", "error"), resp

    # ------------------------------------------------------------------
    # reshard-window dual routing
    # ------------------------------------------------------------------
    def _dual_attempt(self, op, new_shard, old_shard, payload, consistency,
                      prefer_kind, ctx):
        """One attempt for a key the open reshard window *moves*.

        Reads prefer the new owner and fall back to the old one (the
        copy may not have migrated yet); mutations go to **both**
        owners under the same request id and complete only when both
        legs settle, so a concurrent reader observes the same committed
        value whichever owner serves it.  An old leg answering
        ``wrong_shard``/``retired`` is already fenced — the window
        closed under us — and the new leg alone decides.

        Returns ``("ok", resp)``, ``("not_found", None)`` or
        ``("dual", why)`` for a retry.
        """
        new_target = self._route(new_shard, op, consistency, prefer_kind)
        old_target = self._route(old_shard, op, consistency, prefer_kind)
        if op == "get":
            kind, resp = yield from self._leg(new_target, op, payload, ctx)
            if kind == "ok":
                return "ok", resp
            if kind == "not_found":
                okind, oresp = yield from self._leg(old_target, op, dict(payload), ctx)
                if okind == "ok":
                    return "ok", oresp
                if okind in ("not_found", "wrong_shard", "retired"):
                    return "not_found", None
                return "dual", f"old-leg read on {old_target}: {okind}"
            return "dual", f"new-leg read on {new_target}: {kind}"
        # put/del: both legs in flight at once (the shared rid lets
        # controlets deduplicate any later retry of either leg)
        new_fut = self.sim.spawn(self._leg(new_target, op, payload, ctx))
        old_fut = self.sim.spawn(self._leg(old_target, op, dict(payload), ctx))
        nkind, nresp = yield new_fut
        okind, oresp = yield old_fut
        if okind not in ("ok", "not_found", "wrong_shard", "retired"):
            return "dual", f"old-leg {op} on {old_target}: {okind}"
        if nkind == "ok":
            return "ok", nresp
        if nkind == "not_found":  # only `del` reports it
            if okind == "ok":
                return "ok", oresp
            return "not_found", None
        return "dual", f"new-leg {op} on {new_target}: {nkind}"

    def _backoff(self, attempt: int) -> float:
        """Jittered exponential backoff, capped: ``base * 2^attempt`` up
        to ``retry_backoff_cap``, scaled by a [0.5, 1.5) jitter factor so
        retry storms from concurrent sessions decorrelate."""
        delay = min(self.retry_backoff * (2 ** attempt), self.retry_backoff_cap)
        return delay * (0.5 + self._rng.random())

    def _run(self, gen) -> SimFuture:
        return self.sim.spawn(gen)

    def _recorded(self, op: str, key: str, gen, value: Optional[str] = None,
                  ctx: Optional[RequestContext] = None):
        """Wrap an op generator with history recording.  Failed and
        timed-out ops are recorded too: an unacked write may still have
        taken effect, and the oracle must treat it as indeterminate.

        The request id and trace id flow into the record so the oracle
        can separate client retries (same ``req_id``, deduplicated
        server-side) from fabric duplicates, and so ``chaos --trace``
        can pull up the span tree of a violating request."""
        if self.recorder is None:
            result = yield from gen
            return result
        rec = self.recorder.invoke(
            self.name, op, key, value,
            req_id=ctx.req_id if ctx is not None else None,
            trace_id=ctx.trace_id if ctx is not None else None,
        )
        retries, timeouts = self.retries, self.timeouts

        def complete(outcome: str, **kw: Any) -> None:
            self.recorder.complete(rec, outcome,
                                   attempts=1 + self.retries - retries,
                                   timeouts=self.timeouts - timeouts, **kw)

        try:
            result = yield from gen
        except KeyNotFound:
            # a definite observation (key absent), not a failure
            complete("not_found")
            raise
        except BespoError as e:
            complete("fail", error=f"{type(e).__name__}: {e}")
            raise
        complete("ok", value=result if op == "get" else None)
        return result

    # ------------------------------------------------------------------
    # public KV API (Table II)
    # ------------------------------------------------------------------
    def put(self, key: str, val: str, consistency: Optional[str] = None) -> SimFuture:
        """Write a pair; resolves to None."""
        return self._run(self._point("put", key, {"key": key, "val": val}, val, consistency))

    def get(
        self,
        key: str,
        consistency: Optional[str] = None,
        prefer_kind: Optional[str] = None,
    ) -> SimFuture:
        """Read a value; resolves to the value string.

        ``consistency="eventual"`` relaxes a strong deployment for this
        request only (§IV-C); ``prefer_kind`` picks a replica backed by
        a specific datalet engine (polyglot persistence, §IV-D).
        """
        payload: Dict[str, Any] = {"key": key}
        if consistency is not None:
            payload["consistency"] = consistency
        return self._run(self._point("get", key, payload, None, consistency, prefer_kind))

    def delete(self, key: str, consistency: Optional[str] = None) -> SimFuture:
        """Delete a pair; resolves to None."""
        return self._run(self._point("del", key, {"key": key}, None, consistency))

    def scan(self, start: str, end: str, limit: Optional[int] = None) -> SimFuture:
        """Range query over ``[start, end)`` (§IV-B).

        With range partitioning only the covering shards are contacted,
        each with a clipped sub-range; with hash partitioning every
        shard must be consulted.  Results merge into one sorted list.
        """

        def gather(ctx):
            ordered = sorted(self._routing.covering(start, end).items(),
                             key=lambda kv: kv[1][0])
            if limit is not None and self._routing.ranges is not None:
                # Range-partitioned limited scan: shards are visited in
                # key order and the walk stops as soon as the limit is
                # filled — most scans touch one or two shards.
                out: List[Tuple[str, str]] = []
                for sid, (lo, hi) in ordered:
                    payload = {"start": lo, "end": hi, "limit": limit - len(out)}
                    chunk = yield self.sim.spawn(
                        self._scan_one(self.map.shard(sid), payload, ctx))
                    out.extend(tuple(item) for item in chunk)
                    if len(out) >= limit:
                        break
                return out[:limit]
            # Unlimited (or hash-partitioned) scan: scatter-gather.
            futs = [
                self.sim.spawn(self._scan_one(
                    self.map.shard(sid), {"start": lo, "end": hi, "limit": limit}, ctx))
                for sid, (lo, hi) in ordered
            ]
            chunks = yield self.sim.gather(futs)
            merged: List[Tuple[str, str]] = sorted(
                (tuple(item) for chunk in chunks for item in chunk)
            )
            return merged[:limit] if limit is not None else merged

        def proc():
            if self.map is None:
                raise BespoError("client not connected: call connect() first")
            ctx = self._begin_ctx("scan", start, mutation=False)
            items = yield from self._traced(ctx, gather(ctx))
            return items

        return self._run(proc())

    def _scan_one(self, shard: ShardInfo, payload: Dict[str, Any],
                  ctx: Optional[RequestContext]):
        """One shard's leg of a client-side scan."""
        sid = shard.shard_id
        resp = yield from self._attempts(
            "scan", payload, ctx, lambda: self.map.shards.get(sid, shard), f"on {sid}")
        return resp.payload["items"]

    def server_scan(self, start: str, end: str, limit: Optional[int] = None) -> SimFuture:
        """Range query delegated to the server side (§IV-B).

        Sends one ``get_range`` to a controlet of the shard owning
        ``start``; a :class:`~repro.core.range_query.RangeQueryControlet`
        fans clipped sub-scans out to every covering shard and returns
        the merged, sorted result — the client needs no partitioning
        knowledge at all (contrast :meth:`scan`, which plans the
        scatter-gather client-side).  Deployments running plain
        controlets answer with an unhandled-type error.
        """

        def proc():
            if self.map is None:
                raise BespoError("client not connected: call connect() first")
            ctx = self._begin_ctx("server_scan", start, mutation=False)
            resp = yield from self._traced(ctx, self._attempts(
                "get_range", {"start": start, "end": end, "limit": limit}, ctx,
                lambda: self.shard_for(start), f"[{start!r}, {end!r})",
                timeout=self.op_timeout * 2))
            return [tuple(item) for item in resp.payload["items"]]

        return self._run(proc())

    # ------------------------------------------------------------------
    # table namespace API (Table II client API)
    # ------------------------------------------------------------------
    @staticmethod
    def _table_marker(table: str) -> str:
        return f"__table__:{table}"

    @staticmethod
    def _table_key(table: str, key: str) -> str:
        return f"{table}:{key}"

    def create_table(self, table: str) -> SimFuture:
        def proc():
            yield self.put(self._table_marker(table), "1")
            self._tables[table] = True

        return self._run(proc())

    def _check_table(self, table: str):
        if self._tables.get(table):
            return
        try:
            yield self.get(self._table_marker(table))
        except KeyNotFound:
            raise TableNotFound(table) from None
        self._tables[table] = True

    def table_put(self, key: str, val: str, table: str) -> SimFuture:
        def proc():
            yield from self._check_table(table)
            yield self.put(self._table_key(table, key), val)

        return self._run(proc())

    def table_get(self, key: str, table: str) -> SimFuture:
        def proc():
            yield from self._check_table(table)
            value = yield self.get(self._table_key(table, key))
            return value

        return self._run(proc())

    def table_del(self, key: str, table: str) -> SimFuture:
        def proc():
            yield from self._check_table(table)
            yield self.delete(self._table_key(table, key))

        return self._run(proc())

    def delete_table(self, table: str) -> SimFuture:
        """Drop the marker and (where the backend supports scans)
        best-effort delete the table's keys."""

        def proc():
            yield from self._check_table(table)
            prefix = self._table_key(table, "")
            try:
                items = yield self.scan(prefix, prefix + "￿")
            except BespoError:
                items = []  # hash-table backends cannot enumerate
            for k, _ in items:
                try:
                    yield self.delete(k)
                except KeyNotFound:
                    pass
            yield self.delete(self._table_marker(table))
            self._tables.pop(table, None)

        return self._run(proc())
