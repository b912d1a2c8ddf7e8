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

    ``chain_pos`` is the replica's index in its shard's chain (0 =
    head/master for MS); AA replicas are peers but keep their index for
    determinism.
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


@dataclass
class ShardInfo:
    """Replica group serving one partition of the keyspace.

    ``replicas`` is the chain, head first: sorted once at construction,
    then edited only by :meth:`add_replica` and :meth:`remove_replica`,
    which keep each ``chain_pos`` equal to the replica's index.
    """

    shard_id: str
    topology: Topology
    consistency: Consistency
    replicas: List[Replica] = field(default_factory=list)

    def __post_init__(self) -> None:
        if isinstance(self.topology, str):
            self.topology = Topology(self.topology)
        if isinstance(self.consistency, str):
            self.consistency = Consistency(self.consistency)
        self.replicas = sorted(self.replicas, key=lambda r: r.chain_pos)

    # -- role helpers ------------------------------------------------------
    def ordered(self) -> List[Replica]:
        """The chain as a copy (safe to iterate while editing the shard)."""
        return list(self.replicas)

    @property
    def head(self) -> Replica:
        """Master (MS) / chain head (MS+SC)."""
        if not self.replicas:
            raise ConfigError(f"shard {self.shard_id} has no replicas")
        return self.replicas[0]

    @property
    def tail(self) -> Replica:
        if not self.replicas:
            raise ConfigError(f"shard {self.shard_id} has no replicas")
        return self.replicas[-1]

    def successor(self, controlet: str) -> Optional[Replica]:
        """Next replica in chain order after ``controlet`` (None at tail)."""
        i = self.replicas.index(self.replica_of(controlet)) + 1
        return self.replicas[i] if i < len(self.replicas) else None

    def replica_of(self, controlet: str) -> Replica:
        for r in self.replicas:
            if r.controlet == controlet:
                return r
        raise ConfigError(f"controlet {controlet!r} not in shard {self.shard_id}")

    def add_replica(self, replica: Replica) -> None:
        """Join ``replica`` as the new tail."""
        replica.chain_pos = len(self.replicas)
        self.replicas.append(replica)

    def remove_replica(self, controlet: str) -> Replica:
        """Unlink ``controlet``; renumbering re-links the chain (a dead
        head's successor is promoted: the leader election)."""
        r = self.replica_of(controlet)
        self.replicas.remove(r)
        for pos, rest in enumerate(self.replicas):
            rest.chain_pos = pos
        return r

    def controlets(self) -> List[str]:
        return [r.controlet for r in self.replicas]

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "topology": self.topology.value,
            "consistency": self.consistency.value,
            "replicas": [r.to_dict() for r in self.replicas],
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
