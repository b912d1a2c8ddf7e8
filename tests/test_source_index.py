"""Tests for the shared source index (repro.analysis.source).

Every static pass reads the package through one ``SourceIndex``: one
parse per module, one class table, one finding filter.  These tests pin
that shape — a whole-tree ``run_lint()`` parses each module exactly
once, and the analysis package may only shrink from its current size.
"""

import ast
from collections import Counter

from repro.analysis import package_root, run_lint
from repro.analysis.commitpoints import Waiver
from repro.analysis.source import Raw, SourceIndex

#: ``wc -l`` total of ``src/repro/analysis/*.py``, the size measured
#: when it was last lowered.  Like §VII's controlet ratchet, the bound
#: may only go down: growth fails here instead of going unseen.
ANALYSIS_LINES_BOUND = 5644


def test_run_lint_parses_each_module_once(monkeypatch):
    parsed = Counter()
    real_parse = ast.parse

    def counting_parse(source, *args, **kwargs):
        parsed[source] += 1
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    run_lint()
    modules = sorted(package_root().rglob("*.py"))
    assert sum(parsed.values()) == len(modules)
    assert max(parsed.values()) == 1


def test_analysis_package_line_ratchet():
    files = sorted((package_root() / "analysis").glob("*.py"))
    total = sum(p.read_text().count("\n") for p in files)
    assert total <= ANALYSIS_LINES_BOUND, (
        f"analysis/ grew to {total} lines (ratchet: {ANALYSIS_LINES_BOUND})")


_TREE = {
    "core/base.py": '''\
class Controlet:
    def __init__(self):
        for op in ("put", "del"):
            self.register(op, self._client_op)
        self._down = Pump(self._issue)
''',
    "core/leaf.py": '''\
class Leaf(Controlet):
    def __init__(self):
        self.register("put", self._leaf_put)
''',
    "net/other.py": "x = 1\n",
}


def test_views_share_modules_and_see_only_their_slice():
    index = SourceIndex(_TREE.items())
    core = index.under("core/")
    assert list(core.modules) == ["core/base.py", "core/leaf.py"]
    assert core.modules["core/base.py"] is index.modules["core/base.py"]
    assert list(index.under("net/other.py").modules) == ["net/other.py"]


def test_class_table_merges_bindings_along_ancestry():
    index = SourceIndex(_TREE.items())
    assert index.ancestry("Leaf") == ["Leaf", "Controlet"]
    # the subclass registration shadows the base's literal-loop one
    assert index.handlers("Leaf") == {"put": "_leaf_put", "del": "_client_op"}
    assert index.pumps("Leaf") == {"_down": "_issue"}
    fn, owner = index.resolve("Leaf", "__init__")
    assert owner == "Leaf" and index.file_of(owner) == "core/leaf.py"


def test_filter_dedups_and_prefers_the_unsuppressed_occurrence():
    src = "a = 1\nb = 2  # lint: allow[r]\n"
    index = SourceIndex([("core/x.py", src)])
    raws = [Raw("core/x.py", 2, "r", "pragma'd"),
            Raw("core/x.py", 2, "q", "first"),
            Raw("core/x.py", 2, "q", "second"),
            Raw("core/elsewhere.py", 1, "r", "outside the index")]
    findings = index.findings(raws)
    assert [(f.rule, f.message, f.suppressed) for f in findings] == [
        ("q", "first", False), ("r", "pragma'd", True)]


def test_filter_waiver_covers_the_class_ancestry():
    index = SourceIndex(_TREE.items())
    waiver = Waiver(cls="Controlet", rule="r", condition="combo x, always",
                    reason="because")
    (finding,) = index.findings([Raw("core/leaf.py", 1, "r", "m", cls="Leaf")],
                                waivers=(waiver,), tag="test waiver")
    assert finding.suppressed
    assert finding.message == "m [test waiver: combo x, always — because]"
