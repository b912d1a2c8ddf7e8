"""Cluster membership as a first-class, epoch'd abstraction.

The :class:`~repro.cluster.view.ClusterView` wraps the shared
:class:`~repro.core.types.ClusterMap` with a ring generation, a
reshard descriptor and an explicit transition log, so that every
reconfiguration — failover repairs, replica joins, §V transitions,
and online resharding — is a named, versioned *view transition*
rather than an ad-hoc epoch bump.  Every reader of its routing block
holds a :class:`~repro.cluster.routing.RingRouting`; the
:class:`~repro.cluster.gate.ReshardGate` adds the window's dirty marks
for controlets and ordering authorities (DLM, shared-log sequencer).
``repro.cluster.migrate.MigrationPump`` (not re-exported: it builds on
``repro.core``, which imports this package) drives the per-key copies.
"""

from repro.cluster.gate import ReshardGate
from repro.cluster.routing import RingRouting
from repro.cluster.view import RESHARD_ADD, RESHARD_REMOVE, ClusterView, ViewTransition

__all__ = [
    "ClusterView",
    "ViewTransition",
    "ReshardGate",
    "RingRouting",
    "RESHARD_ADD",
    "RESHARD_REMOVE",
]
