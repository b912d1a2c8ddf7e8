"""Exhaustive small-scope model checker for the protocol stack.

``repro check`` runs the real controlet/coordinator/datalet code inside
a :class:`~repro.analysis.statespace.CheckerRun` and explores **every**
schedule the scope bounds allow: at each state the enabled transitions
are the deliverable in-flight messages, one "advance virtual time by a
single kernel event" step, and host crashes from a bounded fault
budget.  Exploration is depth-first with two reductions:

* **state-fingerprint pruning** — a state whose canonical fingerprint
  (actor snapshots + in-flight multiset + armed-timer offsets + fault
  budget) was already visited is not re-expanded.  Fingerprints are
  stored together with the sleep set they were reached under; a revisit
  is pruned only when a stored sleep set is a subset of the current one
  (re-reaching a state with a *smaller* sleep set re-explores it —
  the standard soundness condition for combining the two techniques).
* **sleep-set partial-order reduction** — of two *independent*
  transitions, only one interleaving is explored.  Deliveries to
  different **hosts** are independent (a handler touches only its own
  host's actors — the colocated controlet/datalet pair shares one host
  and engine calls between them run synchronously — and its sends are
  order-insensitive multiset appends); the one cross-host coupling, the
  checker client reading the coordinator's map directly, is declared
  dependent explicitly.  Same-host deliveries are independent only when
  the static handler summaries (:mod:`repro.analysis.summaries`) prove
  their read/write footprints disjoint — engine effects compare through
  the shared ``<datalet>`` pseudo-attribute.  Replies are never reduced
  (the continuation's footprint is whatever the call site closed over),
  and advance/crash transitions conflict with everything.

Timer-driven behaviour is scope-bounded by the scenario's **advance
budget** (see :class:`~repro.analysis.statespace.CheckScenario`), and
exploration runs in two passes: a *delay-bounded* pass with zero
advances first (pure message-reorder bugs live in this tiny space), then
the full-budget pass.  Once every scripted op has resolved the history
is judged and — for the STRONG combos — the state becomes a leaf:
nothing downstream can change an already-recorded history.

**Recovery-aware exploration** (durable scenarios): a crash is no
longer a leaf-shaped dead end.  While the restart budget lasts, every
crashed data host offers a ``restart`` transition that runs the real
``Deployment.recover_host`` — WAL replay against whatever the crash
left synced, then the rejoin protocol — *inside* the explored
interleaving.  A completed history with recoveries (or with restarts
still possible) is therefore not final: the subtree keeps delivering
and restarting until the durable endgame settles, and at each quiet
endpoint the PR-6 recovery oracle (:func:`~repro.chaos.oracle.
check_recovery`) judges the durability floor, replay validity,
no-resurrection and — gated by the *statically derived* per-combo
commit-point contract (:func:`~repro.analysis.commitpoints.
ack_durable_for`) — settled-final-state.  The oracle runs on a probe
replay that first quiesces (heal + timers), mirroring the chaos
harness: a mid-catch-up replica is not a violation, a lost acked write
after settling is.

States are never snapshotted (protocol code holds lambdas and closures
deepcopy cannot soundly clone); backtracking rebuilds the run from the
root and replays the decision prefix — decisions are indices into the
deterministic enabled-transition enumeration, so a ``(scenario,
decisions)`` pair is a complete, replayable trace.  That is exactly
what a counterexample is: :func:`replay_trace` re-runs one and
re-derives the violation deterministically.

Invariants checked at every state: no orphaned pending call (a
continuation whose timeout timer was cancelled without the entry being
removed), no deadlock (ops incomplete but nothing deliverable or
armed).  When every scripted op has resolved, the consistency oracle
from PR 1 runs: linearizability (Wing & Gong) for the STRONG combos;
validity plus — after a deterministic quiesce suffix — replica
convergence for the EVENTUAL combos.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.commitpoints import ack_durable_for
from repro.analysis.statespace import (
    CheckScenario,
    CheckerClient,
    CheckerRun,
)
from repro.analysis.summaries import (
    ClassSummary,
    HandlerFootprint,
    SummaryTable,
    build_summaries,
    datalet_footprint,
)
from repro.datalet.base import DataletActor
from repro.chaos.oracle import check_eventual, check_linearizable, check_recovery
from repro.core.types import Consistency
from repro.errors import BespoError

__all__ = [
    "CounterTrace",
    "ExploreResult",
    "Explorer",
    "explore",
    "replay_trace",
]

#: deterministic settle time before EC convergence is asserted
QUIESCE_TIME = 6.0


@dataclass
class CounterTrace:
    """A replayable counterexample: scenario + decision indices."""

    scenario: Dict
    decisions: List[int]
    events: List[str]
    kind: str       # "structural" | "deadlock" | "consistency" |
                    # "convergence" | "recovery"
    violation: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "repro.check.trace/1",
                "scenario": self.scenario,
                "decisions": self.decisions,
                "events": self.events,
                "kind": self.kind,
                "violation": self.violation,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CounterTrace":
        d = json.loads(text)
        return cls(
            scenario=d["scenario"],
            decisions=list(d["decisions"]),
            events=list(d.get("events", [])),
            kind=d.get("kind", "unknown"),
            violation=d.get("violation", ""),
        )


@dataclass
class ExploreResult:
    """Outcome of one exploration."""

    scenario: Dict
    states: int = 0
    pruned: int = 0
    sleep_skipped: int = 0
    transitions: int = 0
    replays: int = 0
    oracle_checks: int = 0
    max_depth_seen: int = 0
    depth_truncated: int = 0
    #: branches that ran out of advance budget with timers still armed —
    #: a scope boundary (like the crash budget), not an incompleteness
    advance_capped: int = 0
    passes: int = 1
    fixpoint: bool = False
    budget_exhausted: Optional[str] = None  # "states" | "time" | None
    wall_seconds: float = 0.0
    counterexample: Optional[CounterTrace] = None
    coalesced: int = 0

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def describe(self) -> str:
        lines = [
            f"check: {'PASS' if self.ok else 'FAIL'} "
            f"[{CheckScenario.from_dict(self.scenario).label()}]",
            f"  states explored : {self.states}",
            f"  states pruned   : {self.pruned} (fingerprint) "
            f"+ {self.sleep_skipped} (sleep set)",
            f"  transitions     : {self.transitions} "
            f"({self.replays} replays, {self.coalesced} coalesced sends)",
            f"  oracle checks   : {self.oracle_checks}",
            f"  max depth       : {self.max_depth_seen}"
            + (f" ({self.depth_truncated} branches depth-capped)"
               if self.depth_truncated else "")
            + (f" ({self.advance_capped} branches at advance-budget scope)"
               if self.advance_capped else ""),
            f"  fixpoint        : {'yes' if self.fixpoint else 'NO'}"
            + (f" (budget exhausted: {self.budget_exhausted})"
               if self.budget_exhausted else "")
            + (f" [{self.passes} passes]" if self.passes > 1 else ""),
            f"  wall time       : {self.wall_seconds:.2f}s",
        ]
        if self.counterexample is not None:
            ce = self.counterexample
            lines.append(f"  VIOLATION [{ce.kind}]: {ce.violation}")
            lines.append(f"  counterexample: {len(ce.decisions)} decisions")
            for step, desc in enumerate(ce.events):
                lines.append(f"    {step:3d}. {desc}")
        return "\n".join(lines)


class Explorer:
    """DFS + sleep sets + fingerprint pruning over a scenario."""

    def __init__(
        self,
        scenario: CheckScenario,
        max_states: int = 20000,
        max_depth: int = 200,
        time_budget: Optional[float] = None,
        summaries: Optional[SummaryTable] = None,
    ):
        self.scenario = scenario
        self.max_states = max_states
        self.max_depth = max_depth
        self.time_budget = time_budget
        self.summaries = summaries if summaries is not None else build_summaries()
        self._summary_cache: Dict[str, ClassSummary] = {}
        #: fingerprint -> sleep sets it has been expanded under
        self.visited: Dict[str, List[FrozenSet]] = {}
        self._sc_checked: set = set()   # recorder digests already judged
        self._ec_checked: set = set()   # fingerprints quiesce-checked
        self._rec_checked: set = set()  # fingerprints recovery-checked
        self.result = ExploreResult(scenario=scenario.to_dict())
        self._stopped = False
        self._start = 0.0
        self._eventual = scenario.consistency is Consistency.EVENTUAL
        #: the statically proven commit-point contract for this combo:
        #: whether an ack implies a durable copy under this fsync cadence
        self._ack_durable = ack_durable_for(
            scenario.combo, scenario.wal_sync_every
        )

    # -- plumbing --------------------------------------------------------
    def _fresh(self) -> CheckerRun:
        run = CheckerRun(self.scenario)
        run.boot()
        return run

    def _replay(self, decisions: List[int]) -> CheckerRun:
        self.result.replays += 1
        run = self._fresh()
        for choice in decisions:
            run.apply_choice(choice)
        return run

    def _over_budget(self) -> Optional[str]:
        if self.result.states >= self.max_states:
            return "states"
        if self.time_budget is not None and (
            time.monotonic() - self._start  # lint: allow[wallclock] search budget
        ) > self.time_budget:
            return "time"
        return None

    # -- independence (sleep sets) ---------------------------------------
    def _summary_for(self, run: CheckerRun, node_id: str) -> Optional[ClassSummary]:
        actor = run.cluster._actors.get(node_id)
        if actor is None:
            return None
        names = tuple(c.__name__ for c in type(actor).__mro__)
        key = "+".join(names)
        summary = self._summary_cache.get(key)
        if summary is None:
            summary = self.summaries.for_class_chain(names)
            self._summary_cache[key] = summary
        return summary

    def _footprint_for(
        self, run: CheckerRun, dst: str, msg_type: str
    ) -> Optional[HandlerFootprint]:
        actor = run.cluster._actors.get(dst)
        if actor is None:
            return None
        if isinstance(actor, DataletActor):
            # direct engine call (recovery snapshot, AA fan-out): compare
            # in the same <datalet> vocabulary the controlet summaries use
            return datalet_footprint(msg_type)
        summary = self._summary_for(run, dst)
        if summary is None:
            return None
        return summary.footprint(msg_type)

    def _map_coupled(self, run: CheckerRun, dst_a: str, dst_b: str) -> bool:
        """The one sanctioned cross-host coupling: the checker client
        routes by reading the coordinator's map directly, so a reply that
        resumes a client races any delivery that may move the map."""
        coord = run.dep.coordinator.node_id
        for x, y in ((dst_a, dst_b), (dst_b, dst_a)):
            if y == coord and isinstance(run.cluster._actors.get(x), CheckerClient):
                return True
        return False

    def _independent(self, key_a: Tuple, key_b: Tuple, run: CheckerRun) -> bool:
        # key = ("deliver", src, dst, type, digest, is_reply, occ)
        if key_a[0] != "deliver" or key_b[0] != "deliver":
            return False  # advance/crash/restart conflict with everything
        dst_a, dst_b = key_a[2], key_b[2]
        host_a = run.cluster._actor_host.get(dst_a)
        host_b = run.cluster._actor_host.get(dst_b)
        if host_a is None or host_b is None:
            return False
        if host_a != host_b:
            # host granularity, not actor granularity: a controlet
            # handler mutates its colocated datalet synchronously
            return not self._map_coupled(run, dst_a, dst_b)
        if key_a[5] or key_b[5]:
            return False  # reply continuations: footprint unknown
        fa = self._footprint_for(run, dst_a, key_a[3])
        fb = self._footprint_for(run, dst_b, key_b[3])
        if fa is None or fb is None:
            return False
        return not fa.conflicts(fb)

    # -- violation handling ----------------------------------------------
    def _record(self, decisions: List[int], kind: str, violation: str) -> None:
        # one extra replay to caption every step of the trace
        run = self._fresh()
        self.result.replays += 1
        events: List[str] = []
        for choice in decisions:
            events.append(run.apply_choice(choice).describe)
        self.result.counterexample = CounterTrace(
            scenario=self.scenario.to_dict(),
            decisions=list(decisions),
            events=events,
            kind=kind,
            violation=violation,
        )
        self._stopped = True

    # -- oracle hooks ------------------------------------------------------
    def _history_violation(self, run: CheckerRun) -> Optional[str]:
        digest = run.recorder.digest()
        if digest in self._sc_checked:
            return None
        self._sc_checked.add(digest)
        self.result.oracle_checks += 1
        if not self._eventual:
            report = check_linearizable(run.recorder.records)
        else:
            # validity only; convergence needs the quiesce suffix
            report = check_eventual(run.recorder.records, {})
        if report.violations:
            return "; ".join(report.violations)
        return None

    def _convergence_violation(
        self, run: CheckerRun, fingerprint: str
    ) -> Optional[str]:
        if fingerprint in self._ec_checked:
            return None
        self._ec_checked.add(fingerprint)
        # the caller treats this state as a leaf, so quiescing the
        # in-hand run (which mutates it) is free
        run.quiesce(QUIESCE_TIME)
        self.result.oracle_checks += 1
        report = check_eventual(run.recorder.records, run.replica_dumps())
        if report.violations:
            return "; ".join(report.violations)
        return None

    def _recovery_violation(
        self, run: CheckerRun, decisions: List[int]
    ) -> Optional[str]:
        """Judge the path's recoveries with the PR-6 oracle.

        Runs on a *probe* replay that quiesces first (the in-hand run
        may still have to expand restart children), so a replica caught
        mid-rejoin is settled — not misread as a lost write — before
        the durability floor / no-resurrection / settled-final-state
        checks fire.  ``ack_durable`` comes from the static commit-point
        contract, not a heuristic: MS+EC under group commit legally
        rolls back acked unsynced tails, every other combo must not.
        """
        fingerprint = run.fingerprint()
        if fingerprint in self._rec_checked:
            return None
        self._rec_checked.add(fingerprint)
        self.result.oracle_checks += 1
        probe = self._replay(decisions)
        probe.quiesce(QUIESCE_TIME)
        report = check_recovery(
            probe.recorder.records,
            probe.recoveries,
            probe.replica_dumps(),
            strong=not self._eventual,
            synced_acks=self.scenario.wal_sync_every == 1,
            ack_durable=self._ack_durable,
        )
        if report.violations:
            return "; ".join(report.violations)
        return None

    # -- the search --------------------------------------------------------
    def run(self) -> ExploreResult:
        self._start = time.monotonic()  # lint: allow[wallclock] search budget
        run = self._fresh()
        self._visit(run, [], frozenset(), 0)
        self.result.fixpoint = (
            self.result.counterexample is None
            and self.result.budget_exhausted is None
            and self.result.depth_truncated == 0
        )
        self.result.wall_seconds = time.monotonic() - self._start  # lint: allow[wallclock] search budget
        return self.result

    def _visit(
        self,
        run: CheckerRun,
        decisions: List[int],
        sleep: FrozenSet,
        depth: int,
    ) -> None:
        if self._stopped:
            return
        over = self._over_budget()
        if over is not None:
            self.result.budget_exhausted = over
            return
        self.result.max_depth_seen = max(self.result.max_depth_seen, depth)
        self.result.coalesced = max(self.result.coalesced, run.cluster.coalesced)

        violation = run.invariant_violation()
        if violation is not None:
            self._record(decisions, "structural", violation)
            return
        if run.clients_done():
            violation = self._history_violation(run)
            if violation is not None:
                self._record(decisions, "consistency", violation)
                return
            # the durable endgame: can a restart still happen, and is
            # there a settled (quiet) state to judge recoveries at?
            restartable = (
                run.restart_budget > 0 and bool(run.crashed_data_hosts())
            )
            quiet = not run.cluster.pending
            if run.recoveries and quiet:
                violation = self._recovery_violation(run, decisions)
                if violation is not None:
                    self._record(decisions, "recovery", violation)
                    return
            if not self._eventual:
                if not restartable and (quiet or not run.recoveries):
                    # a judged STRONG history is final once its durable
                    # endgame is too: no restart can still run, and any
                    # recoveries were judged at this quiet state
                    return
                # otherwise keep exploring: pending deliveries drain
                # toward the quiet recovery check, and each remaining
                # restart opens a distinct recovered end state
            elif run.done_and_quiet():
                fingerprint = run.fingerprint()
                if not restartable:
                    violation = self._convergence_violation(run, fingerprint)
                    if violation is not None:
                        self._record(decisions, "convergence", violation)
                    return
                # restarts remain, so this state is not a leaf: check
                # convergence on a probe replay (the check quiesces its
                # run, and the in-hand one must stay replayable for the
                # restart children expanded below)
                if fingerprint not in self._ec_checked:
                    violation = self._convergence_violation(
                        self._replay(decisions), fingerprint
                    )
                    if violation is not None:
                        self._record(decisions, "convergence", violation)
                        return
            # EC with messages still parked: keep delivering toward quiet

        fingerprint = run.fingerprint()
        stored = self.visited.get(fingerprint)
        if stored is not None and any(s <= sleep for s in stored):
            self.result.pruned += 1
            return
        self.visited.setdefault(fingerprint, []).append(sleep)
        self.result.states += 1

        events = run.enabled()
        progress = [
            e for e in events if e.kind in ("deliver", "advance", "restart")
        ]
        if not progress:
            if run.sim.armed_events():
                # timers remain but the advance budget is spent: the
                # scenario's scope boundary, not a stuck system
                self.result.advance_capped += 1
                return
            self._record(
                decisions,
                "deadlock",
                "deadlock: ops incomplete but no deliverable message "
                "or armed timer remains",
            )
            return

        if depth >= self.max_depth:
            self.result.depth_truncated += 1
            return

        explored: set = set()
        current: Optional[CheckerRun] = run  # valid only for the first child
        for i, event in enumerate(events):
            if self._stopped or self._over_budget() is not None:
                break
            if event.key in sleep:
                self.result.sleep_skipped += 1
                continue
            if current is None:
                current = self._replay(decisions)
            child_sleep = frozenset(
                z for z in (sleep | explored)
                if self._independent(z, event.key, current)
            )
            current.execute(event)
            self.result.transitions += 1
            self._visit(current, decisions + [i], child_sleep, depth + 1)
            current = None  # consumed by the child
            explored.add(event.key)


def _merge_passes(
    scenario: CheckScenario, quick: ExploreResult, full: ExploreResult
) -> ExploreResult:
    full.scenario = scenario.to_dict()
    full.states += quick.states
    full.pruned += quick.pruned
    full.sleep_skipped += quick.sleep_skipped
    full.transitions += quick.transitions
    full.replays += quick.replays
    full.oracle_checks += quick.oracle_checks
    full.advance_capped += quick.advance_capped
    full.max_depth_seen = max(full.max_depth_seen, quick.max_depth_seen)
    full.depth_truncated += quick.depth_truncated
    full.coalesced = max(full.coalesced, quick.coalesced)
    full.wall_seconds += quick.wall_seconds
    full.passes = 2
    # completeness is the full pass's verdict: its schedule space is a
    # superset of the delay-bounded pass's
    return full


def explore(
    scenario: CheckScenario,
    max_states: int = 20000,
    max_depth: int = 200,
    time_budget: Optional[float] = None,
    summaries: Optional[SummaryTable] = None,
) -> ExploreResult:
    """Exhaustively explore ``scenario`` within the given budgets.

    Two passes: first *delay-bounded* (zero advances, zero crashes,
    zero restarts — pure message-reorder bugs surface here within a
    tiny space, and a crash is unobservable without the timers that
    detect it), then the full scenario.  A counterexample from either pass carries its own
    scenario dict, so :func:`replay_trace` replays it faithfully.
    """
    if summaries is None:
        summaries = build_summaries()
    if scenario.advance_budget <= 0:
        return Explorer(
            scenario, max_states=max_states, max_depth=max_depth,
            time_budget=time_budget, summaries=summaries,
        ).run()
    start = time.monotonic()  # lint: allow[wallclock] search budget
    quick = Explorer(
        replace(scenario, advance_budget=0, crashes=0, restarts=0),
        max_states=max_states, max_depth=max_depth,
        time_budget=time_budget, summaries=summaries,
    ).run()
    if quick.counterexample is not None:
        return quick
    states_left = max_states - quick.states
    time_left = None
    if time_budget is not None:
        time_left = time_budget - (time.monotonic() - start)  # lint: allow[wallclock] search budget
    if states_left <= 0 or (time_left is not None and time_left <= 0):
        quick.budget_exhausted = quick.budget_exhausted or (
            "states" if states_left <= 0 else "time"
        )
        quick.fixpoint = False
        quick.scenario = scenario.to_dict()
        return quick
    full = Explorer(
        scenario, max_states=states_left, max_depth=max_depth,
        time_budget=time_left, summaries=summaries,
    ).run()
    return _merge_passes(scenario, quick, full)


# ---------------------------------------------------------------------------
# counterexample replay
# ---------------------------------------------------------------------------
@dataclass
class ReplayResult:
    """Outcome of re-running a counterexample trace."""

    reproduced: bool
    violation: Optional[str]
    expected: str
    events: List[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"replay: {'REPRODUCED' if self.reproduced else 'DID NOT REPRODUCE'}"]
        for step, desc in enumerate(self.events):
            lines.append(f"  {step:3d}. {desc}")
        lines.append(f"  expected : {self.expected}")
        lines.append(f"  observed : {self.violation or '(no violation)'}")
        return "\n".join(lines)


def replay_trace(trace: CounterTrace) -> ReplayResult:
    """Re-execute a counterexample deterministically and re-derive its
    violation.  The decision indices fully determine the schedule, so a
    healthy trace reproduces bit-for-bit."""
    scenario = CheckScenario.from_dict(trace.scenario)
    run = CheckerRun(scenario)
    run.boot()
    events: List[str] = []
    for choice in trace.decisions:
        try:
            events.append(run.apply_choice(choice).describe)
        except BespoError as e:
            # the build under replay no longer offers this schedule —
            # the expected outcome when a trace is replayed against a
            # fixed (or otherwise changed) build
            return ReplayResult(
                reproduced=False,
                violation=f"(trace diverged at step {len(events)}: {e})",
                expected=trace.violation,
                events=events,
            )

    violation: Optional[str] = run.invariant_violation()
    if violation is None and trace.kind == "deadlock":
        progress = [e for e in run.enabled() if e.kind in ("deliver", "advance")]
        if not progress and not run.clients_done() and not run.sim.armed_events():
            violation = (
                "deadlock: ops incomplete but no deliverable message "
                "or armed timer remains"
            )
    if violation is None and run.clients_done():
        if trace.kind == "recovery":
            # same probe semantics as the explorer: settle first, then
            # judge the recoveries under the static commit-point contract
            run.quiesce(QUIESCE_TIME)
            report = check_recovery(
                run.recorder.records,
                run.recoveries,
                run.replica_dumps(),
                strong=scenario.consistency is not Consistency.EVENTUAL,
                synced_acks=scenario.wal_sync_every == 1,
                ack_durable=ack_durable_for(
                    scenario.combo, scenario.wal_sync_every
                ),
            )
        elif scenario.consistency is Consistency.EVENTUAL:
            if trace.kind == "convergence":
                run.quiesce(QUIESCE_TIME)
                report = check_eventual(run.recorder.records, run.replica_dumps())
            else:
                report = check_eventual(run.recorder.records, {})
        else:
            report = check_linearizable(run.recorder.records)
        if report.violations:
            violation = "; ".join(report.violations)
    return ReplayResult(
        reproduced=violation == trace.violation,
        violation=violation,
        expected=trace.violation,
        events=events,
    )
