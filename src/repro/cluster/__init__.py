"""Cluster membership as a first-class, epoch'd abstraction.

The :class:`~repro.cluster.view.ClusterView` wraps the shared
:class:`~repro.core.types.ClusterMap` with a ring generation, a
reshard descriptor and an explicit transition log, so that every
reconfiguration — failover repairs, replica joins, §V transitions,
and online resharding — is a named, versioned *view transition*
rather than an ad-hoc epoch bump.  The
:class:`~repro.cluster.migrate.MigrationPump` drives the per-key
copy phase of a reshard on top of the shared one-in-flight
:class:`~repro.core.controlet.Pump` primitive, and the
:class:`~repro.cluster.gate.ReshardGate` is the window state the
shard's ordering authority (DLM, shared-log sequencer) gates writes
and migrated copies with.
"""

from repro.cluster.gate import ReshardGate
from repro.cluster.migrate import MigrationPump
from repro.cluster.view import RESHARD_ADD, RESHARD_REMOVE, ClusterView, ViewTransition

__all__ = [
    "ClusterView",
    "ViewTransition",
    "MigrationPump",
    "ReshardGate",
    "RESHARD_ADD",
    "RESHARD_REMOVE",
]
