"""Cluster metadata types shared by coordinator, controlets and clients.

A deployment is a set of **shards**; each shard is a chain/group of
**replicas**; each replica is a (controlet, datalet, host) triple.  The
whole map carries an **epoch** bumped on every reconfiguration so that
stale clients can detect and refresh their cached topology — the paper's
"clients ... periodically retrieve configuration updates".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional

from repro.errors import ConfigError

__all__ = ["Topology", "Consistency", "Replica", "ShardInfo", "ClusterMap"]


class Topology(str, enum.Enum):
    """Cluster topology (paper Fig 1, §IV)."""

    MS = "ms"  # Master-Slave
    AA = "aa"  # Active-Active (multi-master)


class Consistency(str, enum.Enum):
    """Consistency model (paper §IV)."""

    STRONG = "strong"
    EVENTUAL = "eventual"


@dataclass
class Replica:
    """One controlet-datalet pair within a shard.

    ``chain_pos`` orders the chain for MS (0 = head/master); AA replicas
    are all position-less peers but keep their index for determinism.
    """

    controlet: str
    datalet: str
    host: str
    chain_pos: int = 0
    #: engine kind backing the datalet — lets clients doing polyglot
    #: persistence (§IV-D) pick the replica best suited to a workload.
    datalet_kind: str = "ht"

    def to_dict(self) -> Dict[str, object]:
        return {
            "controlet": self.controlet,
            "datalet": self.datalet,
            "host": self.host,
            "chain_pos": self.chain_pos,
            "datalet_kind": self.datalet_kind,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "Replica":
        return cls(
            str(d["controlet"]),
            str(d["datalet"]),
            str(d["host"]),
            int(d["chain_pos"]),  # type: ignore[arg-type]
            str(d.get("datalet_kind", "ht")),
        )


_CHAIN_POS = attrgetter("chain_pos")


@dataclass
class ShardInfo:
    """Replica group serving one partition of the keyspace."""

    shard_id: str
    topology: Topology
    consistency: Consistency
    replicas: List[Replica] = field(default_factory=list)

    def __post_init__(self) -> None:
        if isinstance(self.topology, str):
            self.topology = Topology(self.topology)
        if isinstance(self.consistency, str):
            self.consistency = Consistency(self.consistency)

    # -- role helpers ------------------------------------------------------
    def ordered(self) -> List[Replica]:
        return sorted(self.replicas, key=_CHAIN_POS)

    @property
    def head(self) -> Replica:
        """Master (MS) / chain head (MS+SC)."""
        if not self.replicas:
            raise ConfigError(f"shard {self.shard_id} has no replicas")
        return self.ordered()[0]

    @property
    def tail(self) -> Replica:
        if not self.replicas:
            raise ConfigError(f"shard {self.shard_id} has no replicas")
        return self.ordered()[-1]

    def successor(self, controlet: str) -> Optional[Replica]:
        """Next replica in chain order after ``controlet`` (None at tail)."""
        chain = self.ordered()
        for i, r in enumerate(chain):
            if r.controlet == controlet:
                return chain[i + 1] if i + 1 < len(chain) else None
        raise ConfigError(f"controlet {controlet!r} not in shard {self.shard_id}")

    def replica_of(self, controlet: str) -> Replica:
        for r in self.replicas:
            if r.controlet == controlet:
                return r
        raise ConfigError(f"controlet {controlet!r} not in shard {self.shard_id}")

    def remove_replica(self, controlet: str) -> Replica:
        r = self.replica_of(controlet)
        self.replicas.remove(r)
        return r

    def controlets(self) -> List[str]:
        return [r.controlet for r in self.ordered()]

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "topology": self.topology.value,
            "consistency": self.consistency.value,
            "replicas": [r.to_dict() for r in self.ordered()],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ShardInfo":
        return cls(
            shard_id=str(d["shard_id"]),
            topology=Topology(d["topology"]),
            consistency=Consistency(d["consistency"]),
            replicas=[Replica.from_dict(r) for r in d["replicas"]],  # type: ignore[union-attr]
        )


@dataclass
class ClusterMap:
    """Full routing state, versioned by ``epoch``."""

    shards: Dict[str, ShardInfo] = field(default_factory=dict)
    epoch: int = 0
    #: shards running below their target replica count because no
    #: standby host was available to spawn a replacement.  They keep
    #: serving (possibly with reduced fault tolerance); the flag lets
    #: operators and the harness see the exposure.
    degraded: set = field(default_factory=set)

    def bump(self) -> None:
        self.epoch += 1

    def shard(self, shard_id: str) -> ShardInfo:
        try:
            return self.shards[shard_id]
        except KeyError:
            raise ConfigError(f"unknown shard {shard_id!r}") from None

    def shard_ids(self) -> List[str]:
        return sorted(self.shards)

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "shards": {sid: s.to_dict() for sid, s in self.shards.items()},
            "degraded": sorted(self.degraded),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ClusterMap":
        return cls(
            epoch=int(d["epoch"]),  # type: ignore[arg-type]
            shards={
                sid: ShardInfo.from_dict(s)  # type: ignore[arg-type]
                for sid, s in d["shards"].items()  # type: ignore[union-attr]
            },
            degraded=set(d.get("degraded", [])),  # type: ignore[arg-type]
        )
