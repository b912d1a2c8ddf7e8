"""Coordinator resilience: primary/standby pair (paper §VII,
§VIII-A: "The coordinator is a single process (backed-up using
ZooKeeper with a standby process as follower)").

The primary coordinator streams every cluster-map change to its
follower (``coord_sync``); the follower answers read-only metadata
queries from its mirrored map, watches the ``coord_sync`` stream, and
**promotes itself** when the primary goes silent — taking over sweeps, failover
orchestration, transitions and reshards.  Controlets heartbeat *both*
coordinators (cheap), so the follower owns fresh liveness data the
moment it promotes.

Clients hold a coordinator preference list and fail over on timeout
(see :meth:`repro.client.kv.KVClient`); controlets fall back the same
way for shard-info refreshes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.coordinator.coordinator import CoordinatorActor
from repro.net.message import Message

__all__ = ["PrimaryCoordinator", "StandbyCoordinator"]


class PrimaryCoordinator(CoordinatorActor):
    """Coordinator that mirrors its state to follower(s)."""

    def __init__(self, *args, followers: Optional[List[str]] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.followers = followers or []

    def on_start(self) -> None:
        super().on_start()
        self._sync_followers(stagger=True)

    def _sync_followers(self, stagger: bool = False) -> None:
        payload = {"view": self.view.to_dict()}
        for f in self.followers:
            self.send(f, "coord_sync", dict(payload))
        delay = self.config.heartbeat_interval
        if stagger:
            # one-time phase offset vs. the sweep loop (same period)
            delay += self.loop_phase("coord-sync", delay)
        self.set_timer(delay, self._sync_followers)


class StandbyCoordinator(CoordinatorActor):
    """Follower: serves stale-but-close metadata reads, watches the
    primary, and promotes on silence."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.promoted = False
        self._primary_seen = 0.0
        self.register("coord_sync", self._on_sync)

    # -- follower mode ---------------------------------------------------
    def on_start(self) -> None:
        # No sweep while following: failover authority stays with the
        # primary.  Liveness bookkeeping still runs (we receive the
        # same controlet heartbeats the primary does).
        now = self.now()
        self._primary_seen = now
        for shard in self.map.shards.values():
            for r in shard.replicas:
                self._last_seen.setdefault(r.controlet, now)
        self._arm_loop("watch-primary", self._watch_primary)

    def _on_sync(self, msg: Message) -> None:
        self._primary_seen = self.now()
        if not self.promoted:
            # Epoch-fenced adoption: a reordered stale snapshot (older
            # or equal epoch) must never roll the mirrored view back.
            if self.view.install(msg.payload["view"]):
                # First sight of each shard fixes its repair target (we
                # are constructed with an empty map, so on_start saw
                # none).
                self._record_targets()

    def _watch_primary(self) -> None:
        if self.promoted:
            return
        if self.now() - self._primary_seen > self.config.failure_timeout:
            self.promote()
            return
        self.set_timer(self.config.heartbeat_interval, self._watch_primary)

    # -- promotion ---------------------------------------------------------
    def promote(self) -> None:
        """Assume the primary role: start sweeping and repairing."""
        if self.promoted:
            return
        self.promoted = True
        now = self.now()
        for shard in self.map.shards.values():
            for r in shard.replicas:
                # grace period: don't declare everyone dead because our
                # heartbeat history predates the promotion
                self._last_seen[r.controlet] = max(
                    self._last_seen.get(r.controlet, now), now
                )
        self.set_timer(self.config.heartbeat_interval, self._sweep)

    # transitions/reshards before promotion would be split-brain;
    # refuse them while following.
    def _admit(self, msg: Message, kind: str) -> bool:
        if not self.promoted:
            self.respond(msg, "error", {"error": "standby: not the primary"})
            return False
        return super()._admit(msg, kind)

    # -- model-checker introspection ---------------------------------------
    def snapshot_state(self):
        s = super().snapshot_state()
        s.update({
            "promoted": self.promoted,
            # quantized like the liveness staleness in the base class
            "primary_staleness": self._ticks(self._primary_seen),
        })
        return s
