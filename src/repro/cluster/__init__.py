"""Cluster membership as a first-class, epoch'd abstraction.

The :class:`~repro.cluster.view.ClusterView` wraps the shared
:class:`~repro.core.types.ClusterMap` with a ring generation, a
reshard descriptor and an explicit transition log, so that every
reconfiguration — failover repairs, replica joins, §V transitions,
and online resharding — is a named, versioned *view transition*
rather than an ad-hoc epoch bump.  Every reader of its routing block
holds a :class:`~repro.cluster.routing.RingRouting`; the
:class:`~repro.cluster.gate.ReshardGate` adds the window's dirty marks
for the ordering authorities (DLM, shared-log sequencer), and its
subclass :class:`~repro.cluster.gate.ReshardParticipant` is a
controlet's whole side of a reshard: ownership fence, census, key
copies, ``migrate_done`` and migrated-copy admission.
"""

from repro.cluster.gate import ReshardGate, ReshardParticipant
from repro.cluster.routing import RingRouting
from repro.cluster.view import RESHARD_ADD, RESHARD_REMOVE, ClusterView, ViewTransition

__all__ = [
    "ClusterView",
    "ViewTransition",
    "ReshardGate",
    "ReshardParticipant",
    "RingRouting",
    "RESHARD_ADD",
    "RESHARD_REMOVE",
]
