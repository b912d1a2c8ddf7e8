"""Range-query service controlet (paper §IV-B).

"The controlet divides a client request into sub-requests and forwards
the sub-range query requests to corresponding datalets that store the
specified range."

:class:`RangeQueryControlet` extends MS+EC with a ``get_range`` API:
any controlet accepts a full-keyspace range query, consults its cached
cluster map and routing (refreshed from the coordinator), fans clipped
sub-scans out to the covering shards, merges the sorted results and
answers — so clients need no partitioning knowledge at all
for scans (the client-side alternative lives in
:meth:`repro.client.kv.KVClient.scan`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.routing import RingRouting
from repro.core.controlet import members
from repro.core.ms_ec import MSEventualControlet
from repro.core.types import ClusterMap
from repro.errors import BespoError
from repro.net.message import Message

__all__ = ["RangeQueryControlet"]


def map_epoch(cmap: Optional[ClusterMap]) -> Optional[int]:
    """A polled cluster map as its epoch (``None``: not polled yet)."""
    return None if cmap is None else cmap.epoch


class RangeQueryControlet(MSEventualControlet):
    """MS+EC controlet + cross-shard ``get_range``."""

    fingerprint = (("_cluster_map", map_epoch), ("_routing.ring", members))

    #: cluster-map refresh cadence (epoch changes invalidate routing).
    MAP_REFRESH = 1.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cluster_map: Optional[ClusterMap] = None
        #: covering shards of a range, from the polled map's routing
        #: block (kept apart from the epoch-fenced ``_gate``).
        self._routing = RingRouting()
        self.stats["range_queries"] = 0
        self.register("get_range", self._on_get_range)

    def on_start(self) -> None:
        super().on_start()
        self._refresh_map()

    # ------------------------------------------------------------------
    def _refresh_map(self) -> None:
        def on_map(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if resp is not None and resp.type == "cluster_map":
                cmap = ClusterMap.from_dict(resp.payload["map"])
                if self._cluster_map is None or cmap.epoch != self._cluster_map.epoch:
                    self._cluster_map = cmap
                    self._routing.install(resp.payload["view"],
                                         resp.payload["partitioner"])
            self.set_timer(self.MAP_REFRESH, self._refresh_map)

        self.call(self.coordinator, "get_cluster_map", {}, callback=on_map,
                  timeout=self.config.replication_timeout)

    # ------------------------------------------------------------------
    def _on_get_range(self, msg: Message) -> None:
        if self.retired:
            self.respond(msg, "error", {"error": "retired"})
            return
        if self._cluster_map is None:
            self.respond(msg, "error", {"error": "cluster map not yet available"})
            return
        self.stats["range_queries"] += 1
        start = msg.payload["start"]
        end = msg.payload["end"]
        limit = msg.payload.get("limit")
        covering = self._routing.covering(start, end)
        if not covering:
            self.respond(msg, "range", {"items": []})
            return

        chunks: Dict[str, List[Tuple[str, str]]] = {}
        remaining = {"n": len(covering)}
        failed = {"err": None}

        def finish() -> None:
            if failed["err"] is not None:
                self.respond(msg, "error", {"error": str(failed["err"])})
                return
            merged = sorted(
                (tuple(item) for chunk in chunks.values() for item in chunk)
            )
            if limit is not None:
                merged = merged[:limit]
            self.respond(msg, "range", {"items": merged})

        for sid, (lo, hi) in covering.items():
            shard = self._cluster_map.shard(sid)
            # sub-scan served by the covering shard's tail controlet
            # (any replica under EC; the tail is always valid)
            target = shard.tail.controlet

            def on_chunk(resp: Optional[Message], err: Optional[BespoError],
                         sid=sid) -> None:
                if err is not None or resp is None or resp.type == "error":
                    failed["err"] = err or BespoError(str(resp.payload if resp else "?"))
                else:
                    chunks[sid] = resp.payload["items"]
                remaining["n"] -= 1
                if remaining["n"] == 0:
                    finish()

            self.call(
                target,
                "scan",
                {"start": lo, "end": hi, "limit": limit},
                callback=on_chunk,
                timeout=self.config.replication_timeout * 2,
            )
