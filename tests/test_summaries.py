"""Tests for the static handler summaries (repro.analysis.summaries)."""

import textwrap

from repro.analysis.summaries import (
    DATALET_ATTR,
    HandlerFootprint,
    build_from_sources,
    build_summaries,
    datalet_footprint,
)


def build(source, path="core/x.py"):
    return build_from_sources([(path, textwrap.dedent(source))])


# ---------------------------------------------------------------------------
# footprint extraction
# ---------------------------------------------------------------------------
def test_reads_writes_and_transitive_helpers():
    table = build(
        """
        class C:
            def __init__(self):
                self.register("a", self._on_a)
                self.register("b", self._on_b)
            def _on_a(self, msg):
                self._count = self._count + 1
                self._bump()
            def _bump(self):
                self._high = self._count
            def _on_b(self, msg):
                return self._other
        """
    )
    s = table.classes["C"]
    fa, fb = s.footprint("a"), s.footprint("b")
    assert fa.writes >= {"_count", "_high"}
    assert "_count" in fa.reads
    assert fb.reads == {"_other"} and not fb.writes
    assert not s.commutes("a", "a")     # write/write on _count
    assert s.commutes("b", "b")         # read-only
    assert fa.conflicts(fb) is False    # disjoint slices
    assert s.commutes("a", "b")


def test_datalet_call_charges_the_engine_pseudo_attribute():
    table = build(
        """
        class C:
            def __init__(self):
                self.register("put", self._on_put)
                self.register("get", self._on_get)
                self.register("stats", self._on_stats)
            def _on_put(self, msg):
                self.datalet_call("put", {"key": 1}, callback=None)
            def _on_get(self, msg):
                self.datalet_call("get", {"key": 1}, callback=None)
            def _on_stats(self, msg):
                self.datalet_call("stats", {})
        """
    )
    s = table.classes["C"]
    assert DATALET_ATTR in s.footprint("put").writes
    assert DATALET_ATTR in s.footprint("get").reads
    assert DATALET_ATTR not in s.footprint("get").writes
    # engine write vs engine read: must NOT commute
    assert not s.commutes("put", "get")
    # two engine reads commute
    assert s.commutes("get", "stats")


def test_dynamic_datalet_op_is_charged_both_ways():
    table = build(
        """
        class C:
            def __init__(self):
                self.register("w", self._on_w)
            def _on_w(self, msg):
                self.datalet_call(msg.payload["op"], {})
        """
    )
    fp = table.classes["C"].footprint("w")
    assert DATALET_ATTR in fp.reads and DATALET_ATTR in fp.writes


def test_lambda_registration_is_opaque():
    table = build(
        """
        class C:
            def __init__(self):
                self.register("z", lambda m: None)
                self.register("r", self._on_r)
            def _on_r(self, msg):
                return self._x
        """
    )
    s = table.classes["C"]
    assert s.footprint("z").opaque
    assert not s.commutes("z", "r")  # opaque commutes with nothing


# ---------------------------------------------------------------------------
# inheritance
# ---------------------------------------------------------------------------
def test_base_registration_resolves_against_the_concrete_class():
    """A handler registered by the base but dispatching to an overridden
    hook must be summarized with the subclass's override."""
    table = build(
        """
        class Base:
            def __init__(self):
                self.register("put", self._on_put)
            def _on_put(self, msg):
                self.handle_put(msg)
            def handle_put(self, msg):
                raise NotImplementedError

        class Derived(Base):
            def handle_put(self, msg):
                self._applied = msg
        """
    )
    fp = table.classes["Derived"].footprint("put")
    assert "_applied" in fp.writes
    # and the base's own summary reflects the abstract hook (no writes)
    base_fp = table.classes["Base"].footprint("put")
    assert "_applied" not in base_fp.writes


def test_subclass_override_shadows_base_binding_in_chain_merge():
    table = build(
        """
        class Base:
            def __init__(self):
                self.register("t", self._base_t)
            def _base_t(self, msg):
                self._b = 1

        class Sub(Base):
            def __init__(self):
                self.register("t", self._sub_t)
            def _sub_t(self, msg):
                self._s = 1
        """
    )
    merged = table.for_class_chain(["Sub", "Base"])
    assert "_s" in merged.footprint("t").writes


# ---------------------------------------------------------------------------
# real package
# ---------------------------------------------------------------------------
def test_package_summaries_capture_the_protocol_core():
    table = build_summaries()
    ms = table.classes["MSStrongControlet"]
    put = ms.footprint("put")
    assert put is not None and DATALET_ATTR in put.writes
    assert not ms.commutes("put", "put")
    assert not ms.commutes("get", "chain_put_batch")  # engine read vs write
    ec = table.classes["MSEventualControlet"]
    assert not ec.commutes("replicate", "replicate")  # both advance _stream
    assert not ec.commutes("put", "get")


def test_datalet_footprint_vocabulary_matches():
    put = datalet_footprint("put")
    get = datalet_footprint("get")
    assert put.conflicts(get)
    assert not get.conflicts(datalet_footprint("snapshot"))
    # synthesized footprints conflict with controlet engine access
    ctl = HandlerFootprint(method="h", writes={DATALET_ATTR})
    assert put.conflicts(ctl) and get.conflicts(ctl)
