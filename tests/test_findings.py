"""Edge cases of the shared suppression plumbing (findings.py +
``# lint: allow[...]`` pragmas + waiver tables).

The basics — JSON envelope, GitHub annotations, wildcard pragmas — are
pinned in ``test_lint.py``; this file covers the corners that bit or
nearly bit: pragmas interacting with decorated defs (findings anchor at
the ``def`` line, not the decorator), stacked same-line/line-above
pragmas, and waiver matching by (class, rule) with combo-named
conditions riding into the audit message.
"""

import json

from repro.analysis import Finding, findings_to_json, format_findings
from repro.analysis import format_github, summarize
from repro.analysis.commitpoints import Waiver
from repro.analysis.flow import analyze_flow_sources
from repro.analysis.lint import lint_source
from repro.analysis.source import parse_pragmas


# ---------------------------------------------------------------------------
# Finding rendering
# ---------------------------------------------------------------------------
def test_format_tags_disposition():
    loud = Finding(path="a.py", line=3, rule="r", message="m")
    quiet = Finding(path="a.py", line=3, rule="r", message="m",
                    suppressed=True)
    warn = Finding(path="a.py", line=3, rule="r", message="m",
                   severity="warning")
    assert "error:" in loud.format()
    assert "allowed:" in quiet.format()  # suppressed outranks severity
    assert "warning:" in warn.format()


def test_format_findings_sorts_stably():
    fs = [
        Finding(path="b.py", line=1, rule="r", message="m"),
        Finding(path="a.py", line=9, rule="z", message="m"),
        Finding(path="a.py", line=9, rule="a", message="m"),
    ]
    lines = format_findings(fs).splitlines()
    assert lines[0].startswith("a.py:9: [a]")
    assert lines[1].startswith("a.py:9: [z]")
    assert lines[2].startswith("b.py:1: [r]")


def test_github_annotation_escapes_carriage_returns():
    f = Finding(path="a.py", line=1, rule="r", message="bad\rthing")
    out = format_github([f])
    assert "\r" not in out and "%0D" in out


def test_summarize_counts_by_disposition():
    fs = [
        Finding(path="a.py", line=1, rule="r", message="m"),
        Finding(path="a.py", line=2, rule="r", message="m",
                severity="warning"),
        Finding(path="a.py", line=3, rule="r", message="m",
                severity="warning", suppressed=True),
    ]
    assert summarize(fs) == {"errors": 1, "warnings": 1, "suppressed": 1}


def test_json_envelope_keeps_suppressed_with_flag():
    fs = [Finding(path="a.py", line=1, rule="r", message="m",
                  suppressed=True)]
    doc = json.loads(findings_to_json(fs))
    assert doc["findings"][0]["suppressed"] is True
    assert doc["summary"] == {"errors": 0, "warnings": 0, "suppressed": 1}


# ---------------------------------------------------------------------------
# pragmas on decorated defs
# ---------------------------------------------------------------------------
# The override finding anchors at the `def` line (FunctionDef.lineno),
# so with a decorator in between the pragma belongs ON the decorator
# line (= def line - 1) — a pragma above the decorator is two lines
# away and must NOT suppress, or suppression would leak onto whatever
# def follows a stale comment.
_DECORATED = '''\
class RingControlet:
    def __init__(self):
        self.shard = None
        self.config_epoch = 0

    {above_decorator}
    @classmethod_like
    {on_decorator_suffix}def _on_config_update(self, msg):
        self.shard = msg.payload["shard"]  # lint: allow[ring-epoch]
'''


def _decorated_src(pragma_on_decorator: bool):
    if pragma_on_decorator:
        return _DECORATED.format(
            above_decorator="# (no pragma here)",
            on_decorator_suffix="# lint: allow[ring-epoch]\n    ")
    return _DECORATED.format(
        above_decorator="# lint: allow[ring-epoch]",
        on_decorator_suffix="")


def test_pragma_on_decorator_line_suppresses_def_finding():
    findings = analyze_flow_sources(
        [("ring.py", _decorated_src(pragma_on_decorator=True))])
    hits = [f for f in findings if f.rule == "ring-epoch"]
    assert hits and all(f.suppressed for f in hits), (
        "\n".join(f.format() for f in findings))


def test_pragma_above_decorator_does_not_reach_the_def():
    findings = analyze_flow_sources(
        [("ring.py", _decorated_src(pragma_on_decorator=False))])
    loud = [f for f in findings
            if f.rule == "ring-epoch" and not f.suppressed]
    assert loud, "a pragma two lines above the def must not suppress"


# ---------------------------------------------------------------------------
# stacked suppressions
# ---------------------------------------------------------------------------
def test_stacked_pragma_lines_union_per_line():
    src = (
        "# lint: allow[rule-a]\n"
        "x = 1  # lint: allow[rule-b, rule-c]\n"
    )
    pragmas = parse_pragmas(src)
    assert pragmas[1] == {"rule-a"}
    assert pragmas[2] == {"rule-b", "rule-c"}


def test_same_line_and_line_above_pragmas_both_apply():
    # two wallclock calls on one line, suppressed by a comma pragma on
    # the line above AND one trailing — either alone would do; stacked
    # they must not cancel each other
    src = (
        "import time\n"
        "# lint: allow[wallclock]\n"
        "a = time.time()  # lint: allow[wallclock]\n"
        "b = time.time()\n"
        "\n"
        "c = time.time()\n"
    )
    findings = lint_source(src, "core/x.py")
    wall = [f for f in findings if f.rule == "wallclock"]
    assert len(wall) == 3
    by_line = {f.line: f.suppressed for f in wall}
    assert by_line[3] is True  # covered twice, still just suppressed
    # a trailing pragma doubles as a line-above pragma for the next
    # line — that is the documented reach, pinned here
    assert by_line[4] is True
    assert by_line[6] is False  # two lines past the stack: loud again


def test_stacked_distinct_rules_suppress_independently():
    # line above allows one rule, trailing pragma a different one: a
    # finding for either is suppressed, any third rule stays loud
    src = (
        "import time, random\n"
        "# lint: allow[global-rng]\n"
        "a = (time.time(), random.random())  # lint: allow[wallclock]\n"
    )
    findings = lint_source(src, "core/x.py")
    disposition = {f.rule: f.suppressed for f in findings}
    assert disposition.get("wallclock") is True
    assert disposition.get("global-rng") is True


# ---------------------------------------------------------------------------
# combo-named waivers
# ---------------------------------------------------------------------------
_UNFENCED = '''\
class RingControlet:
    def __init__(self):
        self.shard = None
        self.config_epoch = 0

    def _on_config_update(self, msg):
        self.shard = msg.payload["shard"]
'''


def test_combo_named_waiver_matches_by_class_and_rule():
    waiver = Waiver(cls="RingControlet", rule="ring-epoch",
                    condition="combo ms-ec, wal_sync_every=1",
                    reason="rig pins a single epoch")
    findings = analyze_flow_sources([("ring.py", _UNFENCED)],
                                    waivers=(waiver,))
    hits = [f for f in findings if f.rule == "ring-epoch"]
    assert hits and all(f.suppressed for f in hits)
    # the combo condition is auditable in --show-suppressed output
    assert all("combo ms-ec, wal_sync_every=1" in f.message for f in hits)
    assert all("rig pins a single epoch" in f.message for f in hits)


def test_waiver_wrong_rule_same_class_stays_loud():
    waiver = Waiver(cls="RingControlet", rule="pump-leak",
                    condition="combo ms-ec, always", reason="n/a")
    findings = analyze_flow_sources([("ring.py", _UNFENCED)],
                                    waivers=(waiver,))
    assert [f for f in findings
            if f.rule == "ring-epoch" and not f.suppressed]


def test_waiver_and_pragma_stack_without_conflict():
    # a site covered by BOTH a waiver and a pragma stays suppressed and
    # keeps the waiver's audit suffix
    src = _UNFENCED.replace(
        '        self.shard = msg.payload["shard"]',
        '        self.shard = msg.payload["shard"]'
        '  # lint: allow[ring-epoch]')
    waiver = Waiver(cls="RingControlet", rule="ring-epoch",
                    condition="combo hybrid, always", reason="belt and braces")
    findings = analyze_flow_sources([("ring.py", src)], waivers=(waiver,))
    hits = [f for f in findings if f.rule == "ring-epoch"]
    assert hits and all(f.suppressed for f in hits)
    assert all("combo hybrid, always" in f.message for f in hits)
