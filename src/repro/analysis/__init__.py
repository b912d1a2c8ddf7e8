"""Static + runtime correctness tooling for the reproduction.

Five static passes guard the properties the rest of the repo relies on
but nothing else enforces, plus one runtime detector:

* :mod:`repro.analysis.lint` — AST determinism linter (wall clock,
  global/ad-hoc RNG, unordered set iteration, ``hash()``/``id()``
  ordering in protocol code);
* :mod:`repro.analysis.conformance` — static exhaustiveness check of
  the string-typed actor protocol (sent-but-never-handled,
  registered-but-never-sent, expected-response-missing);
* :mod:`repro.analysis.commitpoints` — static commit-point analysis of
  the write paths (ack-before-durable / ack-before-replication), whose
  waiver table doubles as the per-combo durability contract consumed by
  the chaos runner and the recovery-aware model checker;
* :mod:`repro.analysis.flow` — path-sensitive flow-control passes over
  the controlet hot paths (pump-liveness, backpressure,
  retry-idempotency, config-epoch fencing), built on the
  :mod:`repro.analysis.cfg` walker that inlines RPC callbacks and
  timer continuations; seeded must-fail defects live in
  :mod:`repro.analysis.flowdefects`;
* :mod:`repro.analysis.summaries` — static per-handler read/write
  footprints, the commutativity evidence for the model checker's
  partial-order reduction;
* :mod:`repro.analysis.races` — opt-in runtime detector for
  same-timestamp events whose order over one actor is fixed only by
  heap insertion sequence, plus a tie-order perturbation helper.

The static passes share one :class:`~repro.analysis.source.SourceIndex`:
each module is parsed once, and the index owns the trees and pragmas,
the one class table (bases, methods, defining file, ancestry, method
resolution, ``register`` and ``Pump`` bindings), flat per-function
facts, and the one pragma/allowlist/waiver/dedup finding filter.  The
passes are queries over it; :func:`run_lint` builds one index and hands
each pass its slice of the tree.

The model checker sits on top (imported directly, not re-exported
here, so ``import repro.analysis`` stays light):

* :mod:`repro.analysis.statespace` — the controlled-scheduler cluster,
  scenario scope bounds and checker clients;
* :mod:`repro.analysis.explore` — exhaustive DFS with sleep sets +
  fingerprint pruning, counterexample traces and their replayer.

CLI front-ends: ``bespokv lint`` and ``bespokv check`` (see
:mod:`repro.cli`); lint, conformance and a small-scope check smoke also
run in CI before the test and soak jobs.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.analysis.commitpoints import (
    COMMIT_TREE,
    CONTRACTS,
    CommitContract,
    Waiver,
    ack_durable_for,
    analyze_sources,
    analyze_tree,
    contract_for,
)
from repro.analysis.conformance import ProtocolModel, check_sources, check_tree
from repro.analysis.flow import (
    FLOW_INJECTION_SOURCES,
    FLOW_RULES,
    FLOW_TREE,
    FLOW_WAIVERS,
    analyze_flow_sources,
    analyze_flow_tree,
)
from repro.analysis.findings import (
    FINDINGS_SCHEMA,
    Finding,
    findings_to_json,
    format_findings,
    format_github,
    summarize,
)
from repro.analysis.lint import (
    DEFAULT_ALLOWLIST,
    PROTOCOL_PREFIXES,
    lint_source,
    lint_tree,
)
from repro.analysis.races import (
    PerturbationResult,
    RaceDetector,
    RaceReport,
    perturb_ties,
)
from repro.analysis.source import SourceIndex, package_root

__all__ = [
    "FINDINGS_SCHEMA",
    "Finding",
    "findings_to_json",
    "format_findings",
    "format_github",
    "summarize",
    "lint_source",
    "lint_tree",
    "DEFAULT_ALLOWLIST",
    "PROTOCOL_PREFIXES",
    "ProtocolModel",
    "check_sources",
    "check_tree",
    "CONTRACTS",
    "CommitContract",
    "Waiver",
    "ack_durable_for",
    "analyze_sources",
    "analyze_tree",
    "contract_for",
    "FLOW_INJECTION_SOURCES",
    "FLOW_RULES",
    "FLOW_WAIVERS",
    "analyze_flow_sources",
    "analyze_flow_tree",
    "RaceDetector",
    "RaceReport",
    "PerturbationResult",
    "perturb_ties",
    "run_lint",
    "package_root",
    "SourceIndex",
]


def run_lint(root: Union[Path, SourceIndex, None] = None,
             conformance: bool = True, flow: bool = True) -> List[Finding]:
    """Run the determinism linter, the commit-point pass, the flow
    passes, and (optionally) the protocol checker over one package tree
    (a directory, default the installed package, or an index of it);
    returns every finding, suppressed included.  Each module is parsed
    once, whatever the number of passes."""
    index = SourceIndex.of(root)
    findings = lint_tree(index)
    findings.extend(analyze_sources(index.under(*COMMIT_TREE)))
    if flow:
        findings.extend(analyze_flow_sources(index.under(*FLOW_TREE)))
    if conformance:
        findings.extend(check_sources(index).findings())
    return findings
