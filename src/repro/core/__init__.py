"""BESPOKV control plane: controlets, cluster types, configuration.

The four pre-built controlets cover the topology x consistency matrix
of paper §IV; new combinations are subclasses of
:class:`~repro.core.controlet.Controlet` (see the hybrid topologies in
:mod:`repro.core.hybrid`).
"""

from repro import _lazy_exports

#: re-export -> defining module, resolved on first use: the reshard
#: participant imports :mod:`repro.core.pump` without the controlets
_EXPORTS = {
    "Controlet": "repro.core.controlet",
    "MSStrongControlet": "repro.core.ms_sc",
    "MSEventualControlet": "repro.core.ms_ec",
    "AAStrongControlet": "repro.core.aa_sc",
    "AAEventualControlet": "repro.core.aa_ec",
    "RangeQueryControlet": "repro.core.range_query",
    "ControlConfig": "repro.core.config",
    "DeploymentConfig": "repro.core.config",
    "load_deployment_config": "repro.core.config",
    "ClusterMap": "repro.core.types",
    "ShardInfo": "repro.core.types",
    "Replica": "repro.core.types",
    "Topology": "repro.core.types",
    "Consistency": "repro.core.types",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
