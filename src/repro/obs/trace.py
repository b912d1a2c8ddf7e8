"""Deterministic span tracing hooked into the simulation clock.

A :class:`SpanRecorder` is attached to a cluster *before* ``start()``
(``SimCluster.attach_obs``) and from then on receives per-stage spans:

===================  ======================================================
span name            stage
===================  ======================================================
``op:<op>``          one client operation, invoke → final response (root)
``rpc:<type>``       one RPC attempt, caller side (request → reply/timeout)
``net:<type>``       fabric transit of one message, send → arrival
``cpu:<type>``       receiver CPU queue + service time before dispatch
``backoff``          client retry backoff sleep
===================  ======================================================

Replication wait shows up as ``rpc:chain_put_batch`` / ``rpc:replicate`` /
``rpc:peer_apply`` / ``rpc:log_append_batch`` spans opened by the controlet,
datalet service as ``rpc:put``/``rpc:get``/... spans whose receiver is a
datalet, and controlet dispatch as the receiver-side ``cpu:*`` spans.

Determinism: span and trace ids come from recorder-local counters that
advance in event-execution order, and timestamps are simulated seconds —
so for a fixed seed the trace is bit-for-bit stable.  The recorder never
touches the RNG or the clock's event queue; attaching it cannot change a
run's behavior (digest-invariance is asserted in ``tests/test_obs.py``).

The dump format ``repro.obs.trace/1`` is JSONL: one meta header line,
then one line per span, sorted by (trace, span) id with sorted keys, so
identical runs serialize byte-identically.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, List, Optional

from repro.obs.context import RequestContext

__all__ = ["Span", "SpanRecorder", "TRACE_FORMAT"]

TRACE_FORMAT = "repro.obs.trace/1"


class Span:
    """One timed stage of one request."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "node",
                 "start", "end", "status")

    def __init__(self, trace_id: int, span_id: int, parent_id: int,
                 name: str, node: str, start: float) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.status: Optional[str] = None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }


class SpanRecorder:
    """Collects spans against the simulation clock.

    Ids come from recorder-local counters — never from the global
    message-id stream — so attaching a recorder does not perturb message
    ids, fingerprints, or anything else the simulation derives state
    from.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.spans: List[Span] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        #: open root spans by trace id (client op in flight)
        self._roots: Dict[int, Span] = {}

    # -- recording -------------------------------------------------------
    def new_trace(self, name: str, origin: str = "",
                  req_id: Optional[str] = None,
                  deadline: Optional[float] = None) -> RequestContext:
        """Open a root span and return the context to thread through."""
        trace_id = next(self._trace_ids)
        span = Span(trace_id, next(self._span_ids), 0, name, origin,
                    self.sim.now)
        self.spans.append(span)
        self._roots[trace_id] = span
        return RequestContext(trace_id=trace_id, span_id=span.span_id,
                              origin=origin, deadline=deadline,
                              req_id=req_id)

    def end_trace(self, ctx: RequestContext, status: str = "ok") -> None:
        span = self._roots.pop(ctx.trace_id, None)
        if span is not None:
            self.end(span, status)

    def begin(self, ctx: RequestContext, name: str, node: str) -> Span:
        span = Span(ctx.trace_id, next(self._span_ids), ctx.span_id,
                    name, node, self.sim.now)
        self.spans.append(span)
        return span

    def end(self, span: Span, status: str = "ok") -> None:
        span.end = self.sim.now
        span.status = status

    # -- analysis --------------------------------------------------------
    def validate(self) -> List[str]:
        """Span-tree well-formedness: every span parented, none dangling."""
        errors: List[str] = []
        by_trace: Dict[int, Dict[int, Span]] = {}
        for span in self.spans:
            by_trace.setdefault(span.trace_id, {})[span.span_id] = span
        for span in self.spans:
            where = f"trace {span.trace_id} span {span.span_id} ({span.name})"
            if span.end is None:
                errors.append(f"{where}: never ended (dangling request)")
            elif span.end < span.start:
                errors.append(f"{where}: ends before it starts")
            if span.parent_id != 0 and \
                    span.parent_id not in by_trace[span.trace_id]:
                errors.append(f"{where}: parent {span.parent_id} missing "
                              f"from its trace")
        return errors

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-stage latency aggregates keyed by span name."""
        stages: Dict[str, List[float]] = {}
        for span in self.spans:
            if span.end is not None:
                stages.setdefault(span.name, []).append(span.duration)
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(stages):
            durs = sorted(stages[name])
            n = len(durs)
            out[name] = {
                "count": float(n),
                "total_ms": sum(durs) * 1e3,
                "mean_ms": sum(durs) / n * 1e3,
                "p50_ms": durs[int(0.50 * (n - 1))] * 1e3,
                "p95_ms": durs[int(0.95 * (n - 1))] * 1e3,
            }
        return out

    def breakdown_table(self) -> str:
        rows = self.breakdown()
        lines = [f"{'stage':<22} {'count':>7} {'total ms':>10} "
                 f"{'mean ms':>9} {'p50 ms':>9} {'p95 ms':>9}"]
        lines.append("-" * len(lines[0]))
        for name, agg in rows.items():
            lines.append(f"{name:<22} {int(agg['count']):>7} "
                         f"{agg['total_ms']:>10.3f} {agg['mean_ms']:>9.3f} "
                         f"{agg['p50_ms']:>9.3f} {agg['p95_ms']:>9.3f}")
        return "\n".join(lines)

    def format_trace(self, trace_id: int) -> str:
        """Render one trace's span tree, children indented under parents."""
        spans = [s for s in self.spans if s.trace_id == trace_id]
        if not spans:
            return f"(trace {trace_id}: no spans recorded)"
        children: Dict[int, List[Span]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
        for kids in children.values():
            kids.sort(key=lambda s: (s.start, s.span_id))
        lines: List[str] = []

        def walk(span: Span, depth: int) -> None:
            end = f"{span.end * 1e3:.3f}" if span.end is not None else "?"
            lines.append(f"{'  ' * depth}{span.name} [{span.node}] "
                         f"{span.start * 1e3:.3f}ms → {end}ms "
                         f"({span.status or 'open'})")
            for kid in children.get(span.span_id, []):
                walk(kid, depth + 1)

        for root in children.get(0, []):
            walk(root, 0)
        return "\n".join(lines)

    # -- serialization ---------------------------------------------------
    def dump(self, path: str, meta: Optional[dict] = None) -> None:
        """Write ``repro.obs.trace/1`` JSONL (byte-stable per seed)."""
        header = {"format": TRACE_FORMAT, "spans": len(self.spans)}
        if meta:
            header.update(meta)
        lines = [json.dumps(header, sort_keys=True)]
        for span in sorted(self.spans,
                           key=lambda s: (s.trace_id, s.span_id)):
            lines.append(json.dumps(span.to_dict(), sort_keys=True))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
