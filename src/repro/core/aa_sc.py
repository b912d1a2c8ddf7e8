"""AA+SC controlet: Active-Active topology, Strong Consistency via the
distributed lock manager (paper App C-B, Fig 15b).

Any active controlet accepts any request.  A write takes an exclusive
DLM lock on the key, applies the value to **every** replica's datalet,
releases the lock and acks.  A read takes a shared lock, reads the
local datalet and releases.  The DLM round-trips and hot-key
serialization are the paper's explanation for AA+SC's flat scaling in
Fig 7 ("lock contention at the DLM caps the performance").
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.controlet import Controlet
from repro.core.request import Request
from repro.errors import BespoError
from repro.net.message import Message

__all__ = ["AAStrongControlet"]


class AAStrongControlet(Controlet):
    """DLM-locking controlet."""

    fingerprint = ("_relay_to",)

    def __init__(self, *args, dlm: str = "dlm", **kwargs):
        super().__init__(*args, **kwargs)
        self.dlm = dlm
        self.stats["lock_waits"] = 0
        #: a recovering replacement every write we apply is relayed to
        #: (we are its recovery source) until it confirms its catch-up
        #: buffer is drained — closes the snapshot/join window for
        #: writers whose shard view predates the join.
        self._relay_to: Optional[str] = None
        self.register("peer_apply", self._on_peer_apply)
        self.register("aa_sync_complete", self._on_aa_sync_complete)

    # ------------------------------------------------------------------
    # hole-free recovery (replacement active)
    # ------------------------------------------------------------------
    def sync_source(self, puller: str):
        """We are the recovery source: start relaying every write we
        apply to the replacement *before* snapshotting, so snapshot ∪
        relayed writes covers everything committed here."""
        self._relay_to = puller

        def stop_relay() -> None:
            self._relay_to = None

        return {}, stop_relay

    def _on_aa_sync_complete(self, msg: Message) -> None:
        if msg.payload.get("controlet") == self._relay_to:
            self._relay_to = None

    def on_caught_up(self) -> None:
        src = self._recovery.source_controlet()
        if src is not None:
            self.send(src, "aa_sync_complete", {"controlet": self.node_id})

    # ------------------------------------------------------------------
    # replication (peer controlet applies one write to its datalet)
    # ------------------------------------------------------------------
    def _on_peer_apply(self, msg: Message) -> None:
        if not self.recovered:
            # recovering replacement, visible under join-first
            self._catch_up_later(msg)
            return
        op = msg.payload["op"]
        payload = {"key": msg.payload["key"]}
        if op == "put":
            payload["val"] = msg.payload["val"]
        relay_to = self._relay_to
        # No dedup gate here: retries of an AA write may enter at a
        # *different* active, so a peer-level rid cache could answer for
        # a fan-out that never completed.  The Request only joins the
        # local apply with the optional recovery relay.
        req = Request(self, msg, op)
        req.arm(2 if relay_to else 1)

        def on_local(resp: Optional[Message], err: Optional[BespoError]) -> None:
            req.settle(err, resp)

        def on_relay(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None and self._relay_to == relay_to:
                # the recovering replacement died; stop relaying (its
                # next pull retry re-snapshots, so nothing is lost) —
                # the relay leg never fails the peer_apply itself
                self._relay_to = None
            req.settle()

        self.datalet_call(op, payload, callback=on_local)
        if relay_to is not None:
            self.call(
                relay_to,
                "peer_apply",
                dict(msg.payload),
                callback=on_relay,
                timeout=self.config.replication_timeout,
            )

    # ------------------------------------------------------------------
    # locking helpers
    # ------------------------------------------------------------------
    def _with_lock(self, key: str, mode: str, body,
                   fail: Callable[[str], None]) -> None:
        """Acquire → body(); ``fail(error)`` if the grant never comes."""

        def on_grant(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type != "granted":
                self.stats["errors"] += 1
                if (
                    resp is not None
                    and resp.type == "error"
                    and resp.payload.get("error") == "wrong_shard"
                ):
                    # DLM reshard backstop: our ring view is stale for
                    # this (moved) key — surface it so the client
                    # refreshes and re-routes.
                    fail("wrong_shard")
                    return
                fail(f"lock acquisition failed: {err}")
                return
            body()

        self.stats["lock_waits"] += 1
        self.call(
            self.dlm,
            "lock",
            # the ring generation rides along so the DLM can fence
            # stale-routed writes during a reshard window
            {"key": key, "mode": mode, "gen": self._gate.gen},
            callback=on_grant,
            timeout=self.config.lock_lease * 4,
        )

    def _unlock(self, key: str) -> None:
        self.send(self.dlm, "unlock", {"key": key})

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _accept_write(self, msg: Message, op: str) -> None:
        key = msg.payload["key"]
        # The dedup gate only catches a retry re-entering at *this*
        # active (routing may send other attempts elsewhere — the oracle
        # keeps modeling those as potential duplicates, see chaos/oracle).
        req = self.begin_write(msg, op)
        if req is None:
            return

        def unlock_then_finish(error: Optional[str]) -> None:
            self._unlock(key)
            self._finish(req, error)

        self._with_lock(key, "w", lambda: self._fan_out(req, unlock_then_finish),
                        req.fail)

    def _fan_out(self, req: Request,
                 then: Callable[[Optional[str]], None]) -> None:
        """Apply ``req``'s write at every replica, ``then(first_error)``.
        The caller holds the key's cluster-wide w-lock.

        Fans out through every replica's *controlet* (not its datalet;
        paper Fig 15b steps 4-5): the controlet is the point where a
        recovery relay or a catch-up buffer can intercept the write,
        which a datalet-direct write would bypass."""
        op = req.op
        payload = {"op": op, "key": req.msg.payload["key"]}
        if op == "put":
            payload["val"] = req.msg.payload["val"]
        targets = [r.controlet for r in self.shard.ordered()]
        req.arm(len(targets), then=then)

        def on_ack(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None:
                req.settle(str(err))
            elif resp is not None and resp.type == "error" and op == "put":
                req.settle(str(resp.payload))
            else:
                req.settle()

        for target in targets:
            self.call(
                target,
                "peer_apply",
                dict(payload),
                callback=on_ack,
                timeout=self.config.replication_timeout,
            )

    def _finish(self, req: Request, error: Optional[str]) -> None:
        if error is not None:
            self.stats["errors"] += 1
            req.fail(error)
        else:
            req.ack()

    # ------------------------------------------------------------------
    # resharding: lock-serialized migration
    # ------------------------------------------------------------------
    def _migrate_copy(self, key, complete) -> None:
        """Copy one moved key under the cluster-wide w-lock: the grant
        tells us (``dirty``) whether a client write beat us to the key
        during the window — then the copy would clobber a newer value
        and is skipped.  The DLM serializes us against every concurrent
        writer, so a clean grant means the local engine's value *is*
        the key's latest committed state (AA+SC applies acked writes at
        all replicas)."""
        dest = self._gate.dest(key)
        if dest is None:
            complete("skipped")
            return

        def done(outcome: str) -> None:
            self._unlock(key)
            complete(outcome)

        def on_grant(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type != "granted":
                complete("retry")  # no lock held: retry from scratch
            elif resp.payload.get("dirty"):
                done("skipped")
            else:
                self._read_for_copy(key, done, lambda val: self._ship_copy(
                    key, val, dest, "migrate_put", done))

        self.stats["lock_waits"] += 1
        self.call(
            self.dlm,
            "lock",
            {"key": key, "mode": "w", "gen": self._gate.gen, "mig": True},
            callback=on_grant,
            timeout=self.config.lock_lease * 4,
        )

    def _admit_migrate(self, msg: Message) -> None:
        """The migration driver already holds the cluster-wide w-lock on
        this key, so the destination fan-out must not re-acquire it (it
        would queue behind its own driver forever); replicate to every
        active directly, exactly like the locked body of a write."""
        req = self.begin_write(msg, "put", rid=msg.payload.get("rid"))
        if req is not None:
            self._fan_out(req, lambda error: self._finish(req, error))

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def handle_get(self, msg: Message) -> None:
        key = msg.payload["key"]
        if msg.payload.get("consistency") == "eventual":
            # per-request relaxation skips the read lock entirely
            super().handle_get(msg)
            return

        def body() -> None:
            def on_value(resp: Optional[Message], err: Optional[BespoError]) -> None:
                self._unlock(key)
                self._relay(msg, resp, err)

            self.datalet_call("get", {"key": key}, callback=on_value)

        def fail(error: str) -> None:
            self.respond(msg, "error", {"error": error})

        self._with_lock(key, "r", body, fail)
