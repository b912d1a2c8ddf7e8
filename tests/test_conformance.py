"""Tests for the protocol-conformance checker (repro.analysis.conformance)."""

import textwrap

from repro.analysis import check_sources, check_tree, package_root
from repro.analysis.source import SourceIndex
from repro.analysis.summaries import build_summaries

TOY = textwrap.dedent(
    """
    class Ping:
        def __init__(self):
            self.register("pong_ready", self._on_ready)
            self.register("admin_dump", self._on_dump)  # protocol: external
            self.register("never_sent", self._on_never)

        def go(self):
            self.send("peer", "ping", {})
            self.call("peer", "rpc", {}, callback=self._cb)
            self.send("peer", "lost_type", {})
            self._fire("relay")

        def _fire(self, kind):
            self.send("peer", kind, {})

        def _cb(self, resp, err):
            if resp.type == "rpc_done":
                return
            if resp.type in ("rare_reply", "error"):
                return


    class Pong:
        def __init__(self):
            self.register("ping", self._on_ping)
            self.register("rpc", self._on_rpc)
            self.register("relay", self._on_relay)
            for op in ("batch_a", "batch_b"):
                self.register(op, self._on_batch)

        def _on_ping(self, msg):
            self.respond(msg, "pong_ready", {})

        def _on_rpc(self, msg):
            self.respond(msg, "rpc_done", {})

        def kick(self):
            self.send("self", "batch_a", {})
            self.send("self", "batch_b", {})
    """
)


def toy_model():
    return check_sources([("toy/actors.py", TOY)])


def by_rule(findings):
    out = {}
    for f in findings:
        out.setdefault(f.rule, []).append(f)
    return out


def test_direct_and_forwarded_sends_resolve():
    m = toy_model()
    assert m.senders("ping") == ["Ping"]
    assert m.senders("rpc") == ["Ping"]
    # constant flows through the _fire(kind) forwarder
    assert m.senders("relay") == ["Ping"]
    assert m.handlers("relay") == ["Pong"]


def test_for_loop_register_expansion():
    m = toy_model()
    assert m.handlers("batch_a") == ["Pong"]
    assert m.handlers("batch_b") == ["Pong"]


def test_sent_unhandled_reported():
    findings = by_rule(toy_model().findings())
    assert [f for f in findings["sent-unhandled"] if "lost_type" in f.message]
    handled = {"ping", "rpc", "relay", "batch_a", "batch_b"}
    for t in handled:
        assert not any(f"'{t}'" in f.message for f in findings["sent-unhandled"])


def test_registered_unsent_and_external_pragma():
    findings = by_rule(toy_model().findings())
    unsent = {f.message.split("'")[1]: f for f in findings["registered-unsent"]}
    assert "never_sent" in unsent and not unsent["never_sent"].suppressed
    # declared external: still listed, but suppressed
    assert "admin_dump" in unsent and unsent["admin_dump"].suppressed
    # respond() is not a send: responses route to pending callbacks, so
    # registering a handler for a response-only type is dead code and
    # stays flagged
    assert "pong_ready" in unsent


def test_expected_response_missing_is_warning():
    m = toy_model()
    findings = by_rule(m.findings())
    missing = findings.get("expected-response-missing", [])
    # rpc_done is responded, "error" is blessed; rare_reply is never produced
    types = {f.message.split("'")[1] for f in missing}
    assert types == {"rare_reply"}
    assert all(f.severity == "warning" for f in missing)


def test_respond_types_tracked():
    m = toy_model()
    assert "pong_ready" in m.responded
    assert "rpc_done" in m.responded


def test_a_part_sends_and_responds_as_its_owner():
    part = textwrap.dedent(
        """
        class Part:
            def pull(self):
                self._owner.call("peer", "pulled", {}, callback=self._cb)
                self._fetch("fetched")

            def _fetch(self, kind):
                self._owner.send("peer", kind, {})

            def _on_pull(self, msg):
                self._owner.respond(msg, "pulled_state", {})
        """
    )
    m = check_sources([("toy/part.py", part)])
    assert m.senders("pulled") == m.senders("fetched") == ["Part"]
    assert "pulled_state" in m.responded


def test_real_tree_has_no_unsuppressed_errors():
    model = check_tree(package_root())
    bad = [
        f for f in model.findings()
        if not f.suppressed and f.severity == "error"
    ]
    assert bad == [], "\n".join(f.format() for f in bad)


def test_real_tree_resolves_known_protocol_types():
    m = check_tree(package_root())
    index = SourceIndex.from_root(package_root())
    # one recovery handshake: the Recovery part every combo's template
    # builds sends sync_pull (a constant forwarded through _pull_state's
    # pull_type) and registers its handler on its owner
    assert "Recovery" in m.senders("sync_pull")
    assert "Recovery" in m.handlers("sync_pull")
    assert index.handlers("Recovery")["sync_pull"] == "_on_sync_pull"
    # ... and the handler summaries read it as each combo's own
    table = build_summaries()
    for combo in ("MSStrongControlet", "MSEventualControlet",
                  "AAStrongControlet", "AAEventualControlet",
                  "AAMSHybridControlet"):
        fp = table.classes[combo].footprint("sync_pull")
        assert fp.method == "_on_sync_pull" and not fp.opaque, combo
        assert "sync_source" in fp.reads, combo
    # client scan reaches the range controlet
    assert "KVClient" in m.senders("get_range")
    assert "RangeQueryControlet" in m.handlers("get_range")
    # the operator-driven trim is declared external, not dead
    assert "log_trim" in m.external
