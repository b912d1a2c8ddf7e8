"""The epoch'd cluster view: membership + ring generation + transition log.

A :class:`ClusterView` owns the authoritative routing state of one
coordinator.  It *wraps* (never copies) the deployment's shared
:class:`~repro.core.types.ClusterMap` so existing consumers that hold
the map object — the deployment harness, the model checker's client,
tests poking ``dep.map`` — keep observing every change, while all
mutation now flows through named transitions:

``commit(kind, ...)``
    bump the map epoch and append a :class:`ViewTransition` to the
    bounded transition log — the only sanctioned way to advance the
    epoch.
``begin_reshard`` / ``commit_reshard``
    open and close the double-ring window: during a reshard the view
    carries *both* ring member lists (``old``/``new``) plus the ring
    generation, and every config broadcast ships them so controlets
    and clients route against the same pair of rings.
``install(state)``
    epoch-fenced adoption of a peer view (standby sync): a stale
    snapshot — equal or older epoch — is ignored entirely.

Everything serializes through ``to_dict``/``from_dict`` so views
travel in coordinator sync messages and client refreshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.types import ClusterMap
from repro.errors import ConfigError

__all__ = ["ClusterView", "ViewTransition", "RESHARD_ADD", "RESHARD_REMOVE"]

RESHARD_ADD = "add"
RESHARD_REMOVE = "remove"

#: bounded transition history — enough for any soak's worth of
#: failovers while keeping snapshots and sync payloads small.
LOG_CAP = 64


@dataclass(frozen=True)
class ViewTransition:
    """One named membership change, stamped with the epoch it produced."""

    kind: str
    epoch: int
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "epoch": self.epoch, "detail": self.detail}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ViewTransition":
        return cls(str(d["kind"]), int(d["epoch"]), str(d.get("detail", "")))


class ClusterView:
    """Versioned membership state: map + ring generation + reshard window."""

    def __init__(self, cluster_map: Optional[ClusterMap] = None):
        self.map = cluster_map if cluster_map is not None else ClusterMap()
        #: bumped once per *completed* reshard begin — both rings of a
        #: generation share it, so "which ring pair" is one integer.
        self.ring_gen = 0
        #: open double-ring window, or None when the topology is settled:
        #: ``{"action", "shard", "gen", "old", "new"}`` with old/new the
        #: sorted shard-id member lists of the two rings.
        self.reshard: Optional[Dict[str, object]] = None
        self.log: List[ViewTransition] = []
        if self.map.shards:
            self._append("bootstrap", ",".join(self.map.shard_ids()))

    # -- epoch bookkeeping -------------------------------------------------
    @property
    def epoch(self) -> int:
        return self.map.epoch

    def _append(self, kind: str, detail: str = "") -> ViewTransition:
        t = ViewTransition(kind, self.map.epoch, detail)
        if len(self.log) >= LOG_CAP:
            del self.log[: len(self.log) - LOG_CAP + 1]
        self.log.append(t)
        return t

    def commit(self, kind: str, detail: str = "") -> ViewTransition:
        """Advance the epoch with a named transition (the only bump path)."""
        self.map.bump()
        return self._append(kind, detail)

    def note(self, kind: str, detail: str = "") -> ViewTransition:
        """Record a transition that does not re-version routing state
        (e.g. bootstrap, observational markers)."""
        return self._append(kind, detail)

    # -- resharding --------------------------------------------------------
    def plan_reshard(self, action: str, shard_id: str) -> Tuple[List[str], List[str]]:
        """The ``(old, new)`` ring members of adding/removing
        ``shard_id``: old = the current members.  ConfigError when the
        action is unknown or cannot apply to the current membership."""
        if action not in (RESHARD_ADD, RESHARD_REMOVE):
            raise ConfigError(f"unknown reshard action {action!r}")
        old = self.map.shard_ids()
        if action == RESHARD_ADD:
            if shard_id in old:
                raise ConfigError(f"shard {shard_id!r} already present")
            return old, sorted(old + [shard_id])
        if shard_id not in old:
            raise ConfigError(f"shard {shard_id!r} not present")
        if len(old) < 2:
            raise ConfigError("cannot remove the last shard")
        return old, [s for s in old if s != shard_id]

    def begin_reshard(self, action: str, shard_id: str) -> ViewTransition:
        """Open the double-ring window planned by :meth:`plan_reshard`."""
        if self.reshard is not None:
            raise ConfigError("reshard already in progress")
        old, new = self.plan_reshard(action, shard_id)
        self.ring_gen += 1
        self.reshard = {
            "action": action,
            "shard": shard_id,
            "gen": self.ring_gen,
            "old": old,
            "new": new,
        }
        return self.commit("reshard-begin", f"{action}:{shard_id}@g{self.ring_gen}")

    def commit_reshard(self) -> ViewTransition:
        """Close the window: the new ring becomes the only ring."""
        if self.reshard is None:
            raise ConfigError("no reshard in progress")
        desc, self.reshard = self.reshard, None
        return self.commit("reshard-commit", f"{desc['action']}:{desc['shard']}@g{desc['gen']}")

    def ring_members(self) -> List[str]:
        """Members of the *current authoritative* ring (new during a
        reshard window, else the settled member set)."""
        if self.reshard is not None:
            return list(self.reshard["new"])  # type: ignore[index]
        return self.map.shard_ids()

    def ring_info(self) -> Dict[str, object]:
        """The routing block every config broadcast / refresh carries."""
        info: Dict[str, object] = {"gen": self.ring_gen, "ids": self.ring_members()}
        if self.reshard is not None:
            info["reshard"] = dict(self.reshard)
        return info

    # -- peer sync ---------------------------------------------------------
    def install(self, state: Dict[str, object]) -> bool:
        """Adopt a serialized peer view — epoch-fenced: a reordered
        snapshot at an older epoch than ours is stale and ignored.
        Equal-epoch snapshots are idempotent repeats (every membership
        change bumps), so re-installing them is harmless — and the very
        first follower sync arrives at the bootstrap epoch."""
        epoch = int(state["map"]["epoch"])  # type: ignore[index]
        if epoch < self.map.epoch:
            return False
        installed = ClusterMap.from_dict(state["map"])  # type: ignore[arg-type]
        # mutate the shared map in place: harness/checker hold the object
        self.map.shards = installed.shards
        self.map.epoch = installed.epoch
        self.map.degraded = installed.degraded
        self.ring_gen = int(state.get("ring_gen", 0))  # type: ignore[arg-type]
        reshard = state.get("reshard")
        self.reshard = dict(reshard) if reshard else None  # type: ignore[arg-type]
        self.log = [
            ViewTransition.from_dict(t)  # type: ignore[arg-type]
            for t in state.get("log", [])
        ]
        return True

    def to_dict(self) -> Dict[str, object]:
        return {
            "map": self.map.to_dict(),
            "ring_gen": self.ring_gen,
            "reshard": dict(self.reshard) if self.reshard else None,
            "log": [t.to_dict() for t in self.log],
        }

    # -- introspection -----------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Deterministic summary for model-checker fingerprints: the
        transition log as (kind, epoch) pairs — no clock-valued fields."""
        return {
            "ring_gen": self.ring_gen,
            "reshard": (
                f"{self.reshard['action']}:{self.reshard['shard']}@g{self.reshard['gen']}"
                if self.reshard
                else None
            ),
            "transitions": [(t.kind, t.epoch) for t in self.log],
        }
