"""Static commit-point analysis: acks versus durable effects.

Every topology×consistency combo places its *commit point* — the moment
a write is durable relative to the moment the client sees an ack —
somewhere else.  This pass walks the real controlet/datalet source and,
per write-path handler chain, extracts the ordered sequence of

* **ack** effects — client-visible completions (``req.ack()``,
  ``req.finish(type)`` with a non-``"error"`` type, ``self.respond(msg,
  "<const non-error>")``),
* **durable** effects — WAL appends/syncs/snapshot installs and
  mutating engine calls (``self.datalet_call(op)`` for a non-read op,
  ``self.wal.append/sync/install_snapshot``, ``send(self.datalet,
  "apply_batch", ...)``),
* **repl** effects — replication fan-out sends/calls
  (:data:`REPL_TYPES`; ``log_append`` is *both* repl and durable — the
  shared log is an ordered durable medium).

and flags two rules:

``ack-before-durable``
    Some path acks the client with **no** durable effect before it: no
    non-deferred durable effect precedes the ack, the ack does not sit
    inside an awaited durable/replication completion callback, and it
    is not the settle-join of an armed fan-out.  A crash immediately
    after such an ack loses an acknowledged write.
``ack-before-replication``
    Some path issues replication effects the ack does not await
    (fire-and-forget fan-out after — or concurrent with — the client
    ack).  Legal by design exactly where a combo's contract says so
    (MS+EC master-acks-then-propagates), hence the waiver table below.

An awaited replication call counts as durability coverage
*compositionally*: the target's handler for that message type is itself
analyzed, so "I acked only after the peer confirmed ``chain_put_batch``"
inherits the peer's own ack-before-durable obligation.

Suppression is declarative and auditable, two mechanisms:

* the linter's line pragma ``# lint: allow[ack-before-durable]`` on (or
  one line above) the ack — ``Controlet._ack_receipt`` and the all-dup
  chain frame, safe for protocol reasons the AST cannot see;
* the :data:`CONTRACTS` waiver table — the machine-readable durability
  contract per combo.  Each :class:`Waiver` names the controlet class,
  the rule, and the configuration that makes the pattern legal (e.g.
  MS+EC under ``wal_sync_every > 1`` group commit).

:func:`ack_durable_for` is the runtime face of the same table: given a
combo and ``wal_sync_every`` it answers "must a settled ack survive a
crash-restart?", replacing the chaos runner's inline heuristic and
feeding the model checker's recovery oracle.

The pass is a query over the paths :class:`~repro.analysis.cfg.FlowWalker`
walks from each write entry: acks, durable and replication effects are
a classification of its steps.  An ack is covered by the effects whose
emit callbacks enclose it (its ``via`` frames); a pump push plays its
issue method in place; ``set_timer`` continuations and
``arm(..., then=...)`` joins play after the path, a join covered by the
emits whose callbacks settle it; a path stops at a skipped loop
iteration, and the arm that assumes ``self.wal is None`` is not
played.  Optimistic splices of closures into opaque calls are ignored.
It is deliberately conservative: dynamic engine op names count as
durable *writes*, and dynamic ``finish`` types count as acks (the
completion convention forwards a successful response).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import FlowWalker, Step
from repro.analysis.findings import Finding
from repro.analysis.source import (
    PATH_CAP,
    Closure,
    Raw,
    SourceIndex,
    arg_or_kw,
    const_str,
    is_self,
    self_attr,
)
from repro.analysis.summaries import DATALET_READ_OPS

__all__ = [
    "REPL_TYPES",
    "WRITE_CHAIN_TYPES",
    "Waiver",
    "CommitContract",
    "CONTRACTS",
    "contract_for",
    "ack_durable_for",
    "analyze_sources",
    "analyze_tree",
]

#: message types that carry a client write through the system — the
#: handler entry points this pass traces.
WRITE_CHAIN_TYPES = {"put", "del", "chain_put_batch",
                     "peer_apply", "replicate", "apply_batch"}

#: message types whose send/call constitutes replication fan-out.
#: ``log_append``/``log_append_batch`` are also durable: the shared log
#: actor is an ordered durable medium, not a crashable data host in the
#: fault model.
REPL_TYPES = {"chain_put_batch", "replicate", "peer_apply",
              "log_append", "log_append_batch"}

#: classes (by name-based ancestry) the pass analyzes; anything else —
#: e.g. the baseline ``P2PNode`` — is out of the durability contract.
_ANALYZED_BASES = ("Controlet", "DataletActor")

#: the protocol portion of the package :func:`analyze_tree` covers.
COMMIT_TREE = ("core/", "datalet/")

# ----------------------------------------------------------------------
# The per-combo durability contract
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Waiver:
    """One declared-legal analyzer finding: ``cls``'s ``rule`` pattern
    is part of the combo's contract for the ``condition`` stated."""

    cls: str
    rule: str
    condition: str
    reason: str


@dataclass(frozen=True)
class CommitContract:
    """Machine-readable commit point of one topology×consistency combo."""

    combo: str
    controlet: str
    #: where on the write path the client ack is issued.
    ack_point: str
    #: is every replication effect awaited before the ack?
    replication_awaited: bool
    #: condition under which a settled ack survives a crash-restart of
    #: any single data host ("always" or a config predicate).
    ack_durable_when: str
    waivers: Tuple[Waiver, ...] = ()


CONTRACTS: Tuple[CommitContract, ...] = (
    CommitContract(
        combo="ms-sc",
        controlet="MSStrongControlet",
        ack_point="tail of the chain, after every replica (head..tail) "
                  "applied-and-logged the write",
        replication_awaited=True,
        ack_durable_when="always (any single-host crash is covered by the "
                         "surviving chain replicas, even under group commit)",
    ),
    CommitContract(
        combo="ms-ec",
        controlet="MSEventualControlet",
        ack_point="master, after its local apply+WAL append; slave "
                  "propagation is asynchronous",
        replication_awaited=False,
        ack_durable_when="wal_sync_every == 1 (the master's fsync is the "
                         "only durable copy at ack time; group commit may "
                         "lose the unsynced tail)",
        waivers=(
            Waiver(
                cls="MSEventualControlet",
                rule="ack-before-replication",
                condition="combo ms-ec, any wal_sync_every",
                reason="MS+EC's commit point *is* the master's local "
                       "apply: replicate batches flush to slaves after "
                       "the ack by design (§IV availability/throughput "
                       "trade).  Durability of the ack itself is the "
                       "master WAL's job — guaranteed iff "
                       "wal_sync_every == 1, see ack_durable_for().",
            ),
        ),
    ),
    CommitContract(
        combo="aa-sc",
        controlet="AAStrongControlet",
        ack_point="initiating replica, at the settle-join after every "
                  "replica (itself included) confirmed peer_apply under "
                  "the DLM write lock",
        replication_awaited=True,
        ack_durable_when="always (full fan-out is awaited; any surviving "
                         "replica re-seeds a recovering host)",
    ),
    CommitContract(
        combo="aa-ec",
        controlet="AAEventualControlet",
        ack_point="serving replica, after the shared-log append was "
                  "confirmed and the local apply completed",
        replication_awaited=True,
        ack_durable_when="always (the shared log orders and retains every "
                         "acked write; replay re-delivers after a crash)",
    ),
    CommitContract(
        combo="hybrid",
        controlet="AAMSHybridControlet",
        ack_point="as aa-ec (the hybrid write path is the shared-log "
                  "append; MS-style slave fan-out rides the log cursor)",
        replication_awaited=True,
        ack_durable_when="always (shared-log retention, as aa-ec)",
    ),
)

_CONTRACTS_BY_COMBO = {c.combo: c for c in CONTRACTS}
ALL_WAIVERS: Tuple[Waiver, ...] = tuple(
    w for c in CONTRACTS for w in c.waivers
)


def contract_for(combo: str) -> CommitContract:
    try:
        return _CONTRACTS_BY_COMBO[combo]
    except KeyError:
        raise KeyError(f"no commit-point contract for combo {combo!r}")


def ack_durable_for(combo: str, wal_sync_every: int = 1) -> bool:
    """Must a settled (client-acked) write survive a crash-restart of a
    single data host?  The runtime face of :data:`CONTRACTS`, consumed
    by the chaos runner and the recovery-aware model checker."""
    contract = contract_for(combo)
    if contract.ack_durable_when.startswith("always"):
        return True
    # the only conditional contract today: ms-ec group commit
    return wal_sync_every == 1


# ----------------------------------------------------------------------
# the query: effects are a classification of cfg.FlowWalker steps
# ----------------------------------------------------------------------

_NO_EFFECT: Tuple[FrozenSet[str], str] = (frozenset(), "")
_SHARED_LOG = ("log_append", "log_append_batch")


@lru_cache(maxsize=None)  # emptied after each analysis (it holds the steps)
def _classify(step: Step) -> Tuple[FrozenSet[str], str]:
    """``(kinds, desc)`` of the effect a step is, kinds drawn from
    ``{"ack", "durable", "repl"}``; no kinds for any other step."""
    if step.kind == "enter":
        # the ms-sc link pump's replication effect (see _play)
        if step.detail == "_enqueue_down":
            return frozenset({"repl"}), "enqueue_down(chain_put_batch)"
        return _NO_EFFECT
    if step.kind == "defer":
        if step.detail == "arm" and step.closure is None:
            return frozenset({"ack"}), "arm() default join ack"
        return _NO_EFFECT
    call = step.call
    if call is None or not isinstance(call.func, ast.Attribute):
        return _NO_EFFECT
    method, receiver = call.func.attr, call.func.value
    if step.kind in ("emit", "respond"):
        t = const_str(arg_or_kw(call, 0 if method == "datalet_call" else 1, "type"))
        if method == "respond":
            if t is not None and t != "error":
                return frozenset({"ack"}), f'self.respond(_, "{t}")'
        elif method == "datalet_call":
            if t is None or t not in DATALET_READ_OPS:
                return frozenset({"durable"}), f"datalet_call({t or '<dynamic>'})"
        elif method in ("call", "send") and t in REPL_TYPES:
            kinds = {"repl", "durable"} if t in _SHARED_LOG else {"repl"}
            return frozenset(kinds), f"{method}({t})"
        elif (method == "send"
              and self_attr(arg_or_kw(call, 0, "target")) == "datalet"
              and (t is None or t not in DATALET_READ_OPS)):
            return frozenset({"durable"}), f"send(self.datalet, {t or '<dynamic>'})"
        return _NO_EFFECT
    if self_attr(receiver) == "wal":
        if method in ("append", "sync", "install_snapshot"):
            return frozenset({"durable"}), f"self.wal.{method}()"
    elif not is_self(receiver):
        # the request-completion convention, on any other receiver; a
        # dynamic finish type forwards a (usually successful) upstream
        # response, so it counts as an ack
        if method == "ack":
            return frozenset({"ack"}), ".ack()"
        t = const_str(arg_or_kw(call, 0, "type"))
        if method == "finish" and t != "error":
            return frozenset({"ack"}), f".finish({t!r})" if t else ".finish(<dynamic>)"
    return _NO_EFFECT


#: a path being played: (effects, queued continuations, armed emits).
#: An effect is ``(step, deferred, covered steps, awaited durable)``.
_Run = Tuple[tuple, Tuple[Step, ...], FrozenSet[Step]]


def _play(walker: FlowWalker, steps: List[Step], run: _Run,
          cover: FrozenSet[Step], awaited: bool,
          deferred: bool) -> List[Tuple[_Run, bool]]:
    """Extend ``run`` by one walked path, forking where a pump push
    runs its issue method or ``_enqueue_down`` its continuation.  Each
    result says whether the path stopped at a ``break``/``continue``:
    a skipped iteration must not reach post-loop acks without its
    durable effects (the fall-through fork covers the post-loop code).
    """
    runs = [(run, False)]
    frame: Optional[Step] = None  # the _enqueue_down body, not walked
    for s in steps:
        # a closure spliced into an opaque call is not known to run
        if any(v.kind == "splice" or v is frame for v in s.via):
            continue
        kinds = _classify(s)[0]
        expands = s.kind == "pump-push" and s.closure is not None
        if not (kinds or expands or s.kind in ("skip", "defer")
                or (s.kind == "assume" and s.detail == "wal is None")):
            continue
        # awaited coverage: the effects whose completion callbacks
        # enclose this step
        encl = frozenset(v for v in s.via if _classify(v)[0])
        s_cover, s_awaited = cover | encl, awaited or bool(encl)
        nxt: List[Tuple[_Run, bool]] = []
        for r, ended in runs:
            effects, queue, armed = r
            if ended or s.kind == "skip":
                nxt.append((r, True))
            elif s.kind == "assume":
                pass  # only the durability-enabled arm is played
            elif s.kind == "defer":
                # timers and joins fire after the handler's turn
                if s.closure is not None or kinds:
                    r = (effects, queue + (s,), armed)
                nxt.append((r, False))
            elif expands:
                for p in walker.walk_closure(s.closure):
                    nxt.extend(_play(walker, p.steps, r, s_cover, s_awaited,
                                     deferred))
            else:
                hit = (effects + ((s, deferred, s_cover, s_awaited),), queue, armed)
                if s.kind == "enter":
                    # The ms-sc link pump has two completions, both modeled:
                    #
                    # * a successor exists — the entry rides an awaited
                    #   ``chain_put_batch`` call downstream (one frame in
                    #   flight per link) and ``done`` fires only once the
                    #   chain suffix acked; semantically
                    #   ``self.call(succ, "chain_put_batch", entry,
                    #   callback=done)``.
                    # * this node is the tail — ``done`` fires immediately
                    #   with no replication effect at all, so any ack inside
                    #   it must already be covered by the caller's own durable
                    #   effects (the local apply).  Skipping this fork would
                    #   hide injections that defer the apply and ack at the
                    #   tail.
                    frame = s  # its body is not played
                    params = s.closure.params()
                    done = s.closure.env.get(params[1]) if len(params) > 1 else None
                    if not isinstance(done, Closure):
                        nxt.append((hit, False))
                        continue
                    paths = walker.walk_closure(done)
                    for p in paths:
                        nxt.extend(_play(walker, p.steps, hit, s_cover | {s},
                                         True, deferred))
                    for p in paths:
                        nxt.extend(_play(walker, p.steps, r, s_cover, s_awaited,
                                         deferred))
                    continue
                if s.closure is not None \
                        and "settle" in walker.table.facts(s.closure.node).calls:
                    hit = (hit[0], queue, armed | {s})
                nxt.append((hit, False))
        runs = nxt[:PATH_CAP]
    return runs


def _drain(walker: FlowWalker, run: _Run) -> List[tuple]:
    """Play the queued continuations after the path, in arming order: a
    timer in a fresh turn, a join's ``then`` awaiting every armed emit
    (whose callback settles the join)."""
    out: List[tuple] = []
    stack = [run]
    while stack and len(out) < PATH_CAP:
        effects, queue, armed = stack.pop()
        if not queue:
            out.append(effects)
            continue
        s, rest = queue[0], queue[1:]
        cover = armed if s.detail == "arm" else frozenset()
        if s.closure is None:  # a default join completes with an ack
            stack.append((effects + ((s, True, cover, bool(cover)),), rest, armed))
            continue
        for p in walker.walk_closure(s.closure):
            stack.extend(r for r, _ended in _play(
                walker, p.steps, (effects, rest, armed), cover, bool(cover), True))
    return out


# ----------------------------------------------------------------------
# entry discovery + rule evaluation
# ----------------------------------------------------------------------

def _entries(index: SourceIndex, cls: str) -> Dict[str, str]:
    """Write-path entry methods for a concrete class."""
    out: Dict[str, str] = {}
    for t, method in index.handlers(cls).items():
        if t not in WRITE_CHAIN_TYPES or method in ("<lambda>", "<dynamic>"):
            continue
        if method == "_client_op":
            # the generic dispatcher resolves put/del onto handle_* hooks
            method = {"put": "handle_put", "del": "handle_del"}.get(t, "")
            if not method:
                continue
        out[t] = method
    return out


def _evaluate(index: SourceIndex, cls: str) -> List[Raw]:
    raws: List[Raw] = []
    walker = FlowWalker(index, cls)
    for msg_type, method in sorted(_entries(index, cls).items()):
        fn, owner = index.resolve(cls, method)
        if fn is None:
            continue
        entry = Closure(fn, {}, method, index.file_of(owner))
        runs = [r for p in walker.walk_closure(entry)
                for r, _ended in _play(walker, p.steps, ((), (), frozenset()),
                                       frozenset(), False, False)]
        paths = [e for r in runs for e in _drain(walker, r)][:PATH_CAP]
        for effects in paths:
            classes = [_classify(e[0]) for e in effects]
            for i, (s, _deferred, covered, awaited) in enumerate(effects):
                kinds, desc = classes[i]
                if "ack" not in kinds:
                    continue
                durable_prefix = any(
                    "durable" in classes[j][0] and not effects[j][1]
                    for j in range(i)
                )
                if not (durable_prefix or awaited):
                    raws.append(Raw(
                        s.file, s.line, "ack-before-durable",
                        f"{cls} [{msg_type}]: client ack ({desc}) can "
                        "precede every durable effect on this path — a "
                        "crash right after the ack loses an acknowledged "
                        "write", cls))
                uncovered = sorted({
                    d for e, (k, d) in zip(effects, classes)
                    if "repl" in k and e[0] not in covered
                })
                if uncovered:
                    raws.append(Raw(
                        s.file, s.line, "ack-before-replication",
                        f"{cls} [{msg_type}]: ack ({desc}) does not "
                        f"await replication effect(s) "
                        f"{', '.join(uncovered)} issued on this path", cls))
    return raws


def analyze_sources(
    sources,
    allowlist: Optional[Dict[str, Set[str]]] = None,
    waivers: Sequence[Waiver] = ALL_WAIVERS,
) -> List[Finding]:
    """Run the commit-point pass over ``(rel_path, source)`` pairs or a
    :class:`SourceIndex`."""
    index = SourceIndex.of(sources)
    raws: List[Raw] = []
    try:
        for cls in sorted(index.classes):
            anc = index.ancestry(cls)
            if any(any(b in a for b in _ANALYZED_BASES) for a in anc):
                raws.extend(_evaluate(index, cls))
    finally:
        _classify.cache_clear()
    # forked paths and sibling classes rediscover the same ack
    return index.findings(raws, allowlist, waivers, tag="contract waiver")


def analyze_tree(root: Path,
                 allowlist: Optional[Dict[str, Set[str]]] = None) -> List[Finding]:
    """Commit-point findings for the protocol portion of the package
    (:data:`COMMIT_TREE` — injection subclasses under ``analysis/``
    are analyzed only when passed to :func:`analyze_sources` directly,
    e.g. by the seeded must-fail regression test)."""
    return analyze_sources(SourceIndex.from_root(root, *COMMIT_TREE),
                           allowlist=allowlist)
