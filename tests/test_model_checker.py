"""Tests for the small-scope model checker (statespace + explore)."""

import json

import pytest

from repro.analysis.explore import (
    CounterTrace,
    ExploreResult,
    explore,
    replay_trace,
)
from repro.analysis.statespace import INJECTIONS, CheckerRun, CheckScenario
from repro.analysis.summaries import build_summaries


@pytest.fixture(scope="module")
def summaries():
    return build_summaries()


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------
def test_scenario_round_trips_through_dict():
    s = CheckScenario(combo="aa-ec", nodes=3, clients=2, ops_per_client=4,
                      crashes=2, seed=7, advance_budget=11,
                      eager_network=False, inject="early-ack")
    assert CheckScenario.from_dict(s.to_dict()) == s
    assert "aa-ec" in s.label() and "crashes=2" in s.label()


def test_scenario_ops_alternate_on_one_shared_key():
    s = CheckScenario(ops_per_client=4)
    ops = s.ops_for(0)
    assert [o[0] for o in ops] == ["put", "get", "put", "get"]
    assert {o[1] for o in ops} == {"x"}


def test_unknown_injection_rejected():
    from repro.errors import BespoError

    assert "early-ack" in INJECTIONS
    with pytest.raises(BespoError):
        CheckerRun(CheckScenario(inject="nope")).boot()


# ---------------------------------------------------------------------------
# controlled execution
# ---------------------------------------------------------------------------
def test_boot_is_deterministic():
    a = CheckerRun(CheckScenario())
    a.boot()
    b = CheckerRun(CheckScenario())
    b.boot()
    assert a.fingerprint() == b.fingerprint()
    assert [e.key for e in a.enabled()] == [e.key for e in b.enabled()]


def test_checker_run_sanitizes_every_message():
    """The model checker runs with the copy-on-send payload sanitizer
    attached: boot traffic is digested at send and frozen at delivery."""
    run = CheckerRun(CheckScenario())
    run.boot()
    sanitizer = run.cluster.sanitizer
    assert sanitizer is not None
    assert sanitizer.sends > 0 and sanitizer.deliveries > 0
    assert sanitizer.violations == []


def test_apply_choice_replays_identically():
    def drive(choices):
        run = CheckerRun(CheckScenario())
        run.boot()
        taken = []
        for c in choices:
            taken.append(run.apply_choice(c).key)
        return taken, run.fingerprint()

    a_keys, a_fp = drive([0, 0, 0])
    b_keys, b_fp = drive([0, 0, 0])
    assert a_keys == b_keys and a_fp == b_fp
    # a different schedule prefix lands in a different state
    if len(CheckerRun(CheckScenario()).enabled()) > 1:
        _, c_fp = drive([1, 0, 0])
        assert c_fp != a_fp


# ---------------------------------------------------------------------------
# exploration verdicts
# ---------------------------------------------------------------------------
#: ``(states, transitions)`` of CI's default check-smoke scope (2 nodes,
#: 3 ops, 1 crash) per combo.  A fingerprint change that moves one must
#: say, field by field, which states it stops merging.
SCOPE_COUNTS = {
    "ms-sc": (277, 301),
    "ms-ec": (135, 147),
    "aa-sc": (1592, 2445),
    "aa-ec": (391, 411),
}


def test_healthy_ms_sc_closes_at_fixpoint(summaries):
    result = explore(CheckScenario(combo="ms-sc", crashes=1),
                     summaries=summaries)
    assert result.ok and result.fixpoint
    assert (result.states, result.transitions) == SCOPE_COUNTS["ms-sc"]
    assert result.states > 0 and result.oracle_checks > 0
    assert result.passes == 2  # delay-bounded pass + full pass
    assert "PASS" in result.describe()


def test_healthy_ms_ec_closes_at_fixpoint(summaries):
    result = explore(CheckScenario(combo="ms-ec", crashes=1),
                     summaries=summaries)
    assert result.ok and result.fixpoint
    assert (result.states, result.transitions) == SCOPE_COUNTS["ms-ec"]


@pytest.mark.parametrize("combo", ["ms-sc", "aa-sc", "aa-ec"])
def test_strong_combos_explore_view_transitions(combo, summaries):
    """Acceptance: the checker explores bounded view-transition
    interleavings (crash -> failure detection -> failover commit) for
    each STRONG combo without finding a counterexample, and the
    coordinator's transition log records the epochs it moved through.
    AA+EC rides along (0.2 s), so all four CI scopes' counts are pinned."""
    result = explore(CheckScenario(combo=combo, crashes=1),
                     summaries=summaries)
    assert result.ok and result.fixpoint, result.describe()
    assert (result.states, result.transitions) == SCOPE_COUNTS[combo]

    # drive one such interleaving by hand and inspect the view: crash
    # the chain head / an active peer, then run the schedule forward
    run = CheckerRun(CheckScenario(combo=combo, crashes=1))
    run.boot()
    view = run.dep.coordinator.view
    head_host = run.dep.map.shards["s0"].ordered()[0].host
    events = run.enabled()
    crash_at = next(i for i, e in enumerate(events)
                    if e.kind == "crash" and e.key[1] == head_host)
    run.apply_choice(crash_at)
    for _ in range(800):
        if any(t.kind == "failover" for t in view.log):
            break
        if not run.enabled():
            break
        run.apply_choice(0)
    kinds = [t.kind for t in view.log]
    assert "failover" in kinds, kinds
    assert len({t.epoch for t in view.log}) >= 2
    assert view.reshard is None  # no window opens during a failover
    assert view.snapshot() == view.snapshot()


def test_state_budget_exhaustion_is_reported(summaries):
    result = explore(CheckScenario(combo="ms-sc", crashes=1),
                     max_states=5, summaries=summaries)
    assert result.ok  # no violation found within budget...
    assert not result.fixpoint  # ...but no completeness claim either
    assert result.budget_exhausted == "states"


def test_early_ack_defect_yields_replayable_counterexample(summaries):
    result = explore(
        CheckScenario(combo="ms-sc", ops_per_client=2, crashes=0,
                      inject="early-ack"),
        summaries=summaries,
    )
    assert not result.ok
    ce = result.counterexample
    assert ce.kind == "consistency"
    assert "linearization" in ce.violation
    assert len(ce.decisions) == len(ce.events)
    # the defect is found in the tiny delay-bounded pass
    assert result.states < 50

    # trace JSON round-trip
    doc = json.loads(ce.to_json())
    assert doc["schema"] == "repro.check.trace/1"
    restored = CounterTrace.from_json(ce.to_json())
    assert restored.decisions == ce.decisions
    assert restored.scenario == ce.scenario

    # deterministic replay reproduces the exact violation
    replay = replay_trace(restored)
    assert replay.reproduced, replay.describe()
    assert replay.violation == ce.violation
    assert "REPRODUCED" in replay.describe()


def test_counterexample_scenario_carries_the_finding_pass_scope(summaries):
    """The early-ack bug is found by the delay-bounded pass, so its
    trace must pin that pass's scope (no crashes, no advances) for the
    replay to be faithful."""
    result = explore(
        CheckScenario(combo="ms-sc", ops_per_client=2, crashes=1,
                      inject="early-ack"),
        summaries=summaries,
    )
    ce = result.counterexample
    assert ce is not None
    assert ce.scenario["crashes"] == 0
    assert ce.scenario["advance_budget"] == 0


def test_mutated_trace_does_not_reproduce(summaries):
    result = explore(
        CheckScenario(combo="ms-sc", ops_per_client=2, crashes=0,
                      inject="early-ack"),
        summaries=summaries,
    )
    trace = result.counterexample
    healthy = CounterTrace(
        scenario=dict(trace.scenario, inject=None),
        decisions=trace.decisions,
        events=trace.events,
        kind=trace.kind,
        violation=trace.violation,
    )
    # same schedule against the real build: the chain frame is awaited before
    # the ack, so the decision indices diverge into a healthy run
    replay = replay_trace(healthy)
    assert not replay.reproduced


def test_describe_mentions_violation_and_steps(summaries):
    result = explore(
        CheckScenario(combo="ms-sc", ops_per_client=2, crashes=0,
                      inject="early-ack"),
        summaries=summaries,
    )
    text = result.describe()
    assert "FAIL" in text and "VIOLATION" in text
    assert "deliver put" in text


def test_explore_result_merge_counters_accumulate():
    a = ExploreResult(scenario={}, states=3, transitions=5)
    assert a.ok and a.states == 3  # smoke the dataclass surface
