"""AST-based determinism linter.

Every simulation in this repo is supposed to be bit-for-bit replayable
from its seed (the property the chaos oracle and the soak digests pin
down).  That only holds while protocol code draws *all* nondeterminism
from the simulated clock and the :class:`~repro.sim.rng.RngRegistry`.
This linter walks the package source and flags the ways that contract
historically gets broken:

``wallclock``
    Reads of the host clock (``time.time``, ``time.monotonic``,
    ``datetime.now`` ...) or wall sleeps.  Simulation code must use
    ``actor.now()`` / ``sim.now``.
``global-rng``
    Draws from the process-global RNG (``random.random`` and friends),
    ``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets`` — all of which
    vary run to run regardless of the seed.
``adhoc-rng``
    ``random.Random(<seed>)`` constructed inside protocol code.  Even a
    constant seed gives every instance the *same* stream and decouples
    it from the run seed; protocol code must take a named stream from
    the cluster's :class:`~repro.sim.rng.RngRegistry` instead.  Scoped
    to protocol directories — workload generators may build seeded
    generators freely.
``set-iteration``
    Iteration over a value inferred to be a ``set``/``frozenset`` in
    protocol code.  Set order depends on insertion history and element
    hashes; wrap in ``sorted(...)``.  Order-insensitive consumers
    (``sorted``, ``min``, ``len`` ...) are not flagged.
``hash-ordering``
    Calls to builtin ``hash()`` / ``id()`` in protocol code.  Both vary
    across processes (``PYTHONHASHSEED``, allocator layout); anything
    ordering or seeding off them breaks cross-run replay.  Use
    :func:`repro.hashing.stable_hash`.
``fs-ordering``
    Directory listing with no defined order in protocol code
    (``os.listdir``, ``os.scandir``, ``os.walk``, ``glob.glob``/
    ``iglob``, ``Path.iterdir``/``.glob``/``.rglob``).  Listing order
    is filesystem-dependent, so WAL replay or durable-store iteration
    driven by it diverges across machines; wrap the listing directly in
    ``sorted(...)``.  (The simulated
    :class:`~repro.sim.durable.DurableStore` iterates sorted names for
    exactly this reason.)
``mutable-payload``
    A local name aliased into a sent payload (bare argument to
    ``send``/``call``/``respond``/``datalet_call``/..., or a value
    inside a dict/list literal argument) that is *mutated later in the
    same function*.  The simulated fabric passes payloads by reference,
    so the receiver shares the object and the mutation rewrites what it
    sees — behaviour no serializing network exhibits.  Function-scoped
    heuristic (no inter-procedural aliasing); the runtime counterpart
    is :class:`repro.net.sanitize.PayloadSanitizer`, which catches what
    this rule cannot see.

Escapes, both auditable via ``repro lint --show-suppressed``:

* a line pragma ``# lint: allow[rule]`` (or ``allow[rule1, rule2]``,
  or ``allow[*]``) on the offending line or the line above;
* the per-file :data:`DEFAULT_ALLOWLIST` for files whose *job* is the
  real world (the TCP front-end, wall-time measurement in the bench
  harness, the RngRegistry itself).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.analysis.findings import Finding
from repro.analysis.source import DEFAULT_ALLOWLIST, Module, Raw, SourceIndex

__all__ = [
    "DEFAULT_ALLOWLIST",
    "PROTOCOL_PREFIXES",
    "lint_source",
    "lint_tree",
]

#: Directories (relative to the package root) holding code that runs on
#: the simulated timeline.  The scoped rules (set-iteration,
#: hash-ordering, adhoc-rng) only apply here; wallclock/global-rng apply
#: everywhere.
PROTOCOL_PREFIXES: Tuple[str, ...] = (
    "core/",
    "cluster/",
    "coordinator/",
    "dlm/",
    "net/",
    "chaos/",
    "client/",
    "sharedlog/",
    "baselines/",
    "datalet/",
    "sim/",
)

_WALLCLOCK_TIME = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock_gettime",
    "localtime", "gmtime", "ctime", "asctime", "strftime", "sleep",
}
_WALLCLOCK_DATETIME = {"now", "utcnow", "today"}
_GLOBAL_RNG_UUID = {"uuid1", "uuid4"}
#: order-insensitive consumers: a set flowing straight into one of these
#: cannot leak iteration order.
_ORDER_FREE = {
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
}
_ITER_WRAPPERS = {"list", "tuple", "enumerate", "iter", "reversed"}
#: actor-surface methods whose arguments enter the message fabric.
#: ``ack``/``finish``/``fail`` are the Request completion surface — their
#: payloads reach ``respond`` (and parked duplicate waiters) through
#: ``Controlet._complete_request``, so aliasing them is just as unsafe.
_SEND_METHODS = {
    "send", "call", "respond", "transmit", "broadcast", "datalet_call",
    "ack", "finish", "fail",
}
#: in-place mutators of dict/list payload values.
_PAYLOAD_MUTATORS = {
    "update", "pop", "popitem", "setdefault", "clear",
    "append", "extend", "insert", "remove", "sort", "reverse",
}
#: directory listings with filesystem-dependent order.
_FS_LISTING_OS = {"listdir", "scandir", "walk"}
_FS_LISTING_GLOB = {"glob", "iglob"}
_FS_LISTING_METHODS = {"iterdir", "rglob", "glob"}


def _harvest_payload_names(node: ast.expr, out: Set[str]) -> None:
    """Collect bare names aliased into a payload argument: the name
    itself, or names nested in dict/list/tuple literals.  Deliberately
    does not look through calls — ``dict(x)`` copies its top level."""
    if isinstance(node, ast.Name):
        out.add(node.id)
    elif isinstance(node, ast.Dict):
        for v in node.values:
            if v is not None:
                _harvest_payload_names(v, out)
    elif isinstance(node, (ast.List, ast.Tuple)):
        for v in node.elts:
            _harvest_payload_names(v, out)


def _is_setish_value(node: ast.expr) -> bool:
    """Syntactically set-valued expressions (no name inference)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_setish_value(node.left) or _is_setish_value(node.right)
    return False


def _annotation_is_set(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet", "MutableSet")
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Attribute):  # typing.Set[...]
        return node.attr in ("Set", "FrozenSet", "MutableSet")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        head = node.value.split("[")[0].strip()
        return head in ("set", "frozenset", "Set", "FrozenSet", "MutableSet")
    return False


class _ModuleNames:
    """Module-wide name facts the rules consult, from one walk: local
    aliases of the stdlib modules the rules care about, and names and
    attributes bound to sets.

    The set inference is deliberately coarse (one namespace per module):
    a false positive is one ``sorted()`` or pragma away, while a
    per-scope type system would be overkill for a linter.
    """

    MODULES = {"time", "datetime", "random", "os", "uuid", "secrets", "glob"}

    def __init__(self, tree: ast.Module):
        #: local alias -> module name ("t" -> "time")
        self.modules: Dict[str, str] = {}
        #: local alias -> (module, attr)  ("now" -> ("datetime.datetime", "now"))
        self.members: Dict[str, Tuple[str, str]] = {}
        self.set_names: Set[str] = set()
        self.set_attrs: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    root = a.name.split(".")[0]
                    if root in self.MODULES:
                        self.modules[a.asname or root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] in self.MODULES:
                    for a in node.names:
                        self.members[a.asname or a.name] = (node.module, a.name)
            elif isinstance(node, ast.Assign):
                if _is_setish_value(node.value):
                    for t in node.targets:
                        self._mark_set(t)
            elif isinstance(node, ast.AnnAssign):
                if _annotation_is_set(node.annotation) or (
                    node.value is not None and _is_setish_value(node.value)
                ):
                    self._mark_set(node.target)
            elif isinstance(node, ast.arg):
                if node.annotation is not None and _annotation_is_set(node.annotation):
                    self.set_names.add(node.arg)

    def _mark_set(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.set_names.add(target.id)
        elif isinstance(target, ast.Attribute):
            self.set_attrs.add(target.attr)

    def resolve_call(self, func: ast.expr) -> Optional[Tuple[str, str]]:
        """Return ``(module, attr)`` for a call target, if it bottoms out
        in one of the tracked stdlib modules."""
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in self.modules:
                return self.modules[base.id], func.attr
            if isinstance(base, ast.Name) and base.id in self.members:
                mod, attr = self.members[base.id]
                # e.g. ``from datetime import datetime`` then datetime.now()
                return f"{mod}.{attr}", func.attr
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id in self.modules
            ):
                # e.g. ``import datetime`` then datetime.datetime.now()
                return f"{self.modules[base.value.id]}.{base.attr}", func.attr
        elif isinstance(func, ast.Name) and func.id in self.members:
            return self.members[func.id]
        return None


class _Linter(ast.NodeVisitor):
    def __init__(self, rel_path: str, names: _ModuleNames, protocol: bool):
        self.rel_path = rel_path
        self.names = names
        self.protocol = protocol
        self.findings: List[Raw] = []
        #: comprehension nodes whose iteration order provably cannot
        #: escape (direct argument of an order-insensitive call)
        self._blessed: Set[int] = set()
        self._func_depth = 0

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Raw(self.rel_path, getattr(node, "lineno", 0), rule, message))

    # -- mutable-payload (function-scope aliasing heuristic) -----------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # analyze outermost functions as one scope: nested closures
        # (completion callbacks) share the outer frame's payload names
        if self.protocol and self._func_depth == 0:
            self._check_payload_aliasing(node)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_payload_aliasing(self, func: ast.AST) -> None:
        sends: Dict[str, List[int]] = {}    # name -> send linenos
        rebinds: Dict[str, List[int]] = {}  # name -> fresh-object linenos
        mutations: List[Tuple[int, str, str]] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _SEND_METHODS:
                    names: Set[str] = set()
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        _harvest_payload_names(arg, names)
                    for name in names:
                        sends.setdefault(name, []).append(node.lineno)
                if node.func.attr in _PAYLOAD_MUTATORS:
                    base = node.func.value
                    if isinstance(base, ast.Subscript):
                        base = base.value  # payload["ops"].append(...)
                    if isinstance(base, ast.Name):
                        mutations.append(
                            (node.lineno, base.id, f".{node.func.attr}()")
                        )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for t in targets:
                    if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name):
                        mutations.append(
                            (node.lineno, t.value.id, "subscript assignment")
                        )
                    elif isinstance(t, ast.Name) and isinstance(node, ast.Assign):
                        rebinds.setdefault(t.id, []).append(node.lineno)
            elif isinstance(node, ast.Delete):
                for t in node.targets:
                    if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name):
                        mutations.append((node.lineno, t.value.id, "del"))
        for lineno, name, how in mutations:
            live = any(
                s <= lineno
                and not any(s < r <= lineno for r in rebinds.get(name, ()))
                for s in sends.get(name, ())
            )
            if live:
                self.findings.append(Raw(
                    self.rel_path, lineno, "mutable-payload",
                    f"{how} mutates {name!r} after it was aliased into a "
                    "sent payload; the fabric passes payloads by reference "
                    "so the receiver shares this object — send a copy or "
                    "mutate a copy",
                ))

    # -- wallclock / global-rng / adhoc-rng ----------------------------
    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.names.resolve_call(node.func)
        if resolved is not None:
            self._check_stdlib_call(node, *resolved)
        if self.protocol:
            if isinstance(node.func, ast.Name) and node.func.id in ("hash", "id"):
                self._flag(
                    node, "hash-ordering",
                    f"builtin {node.func.id}() varies across processes; "
                    "use repro.hashing.stable_hash for protocol decisions",
                )
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_FREE
                and node.args
            ):
                for arg in node.args:
                    if isinstance(
                        arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp,
                              ast.Call)
                    ):
                        # a listing call flowing straight into sorted()
                        # & co. cannot leak its order
                        self._blessed.add(id(arg))
            self._check_fs_ordering(node, resolved)
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _ITER_WRAPPERS
                and node.args
                and self._is_set_valued(node.args[0])
            ):
                self._flag(
                    node, "set-iteration",
                    f"{node.func.id}() over a set materializes its "
                    "arbitrary order; wrap the set in sorted(...)",
                )
        self.generic_visit(node)

    def _check_fs_ordering(self, node: ast.Call,
                           resolved: Optional[Tuple[str, str]]) -> None:
        """Flag directory listings whose order the filesystem decides,
        unless the listing is the direct argument of an order-insensitive
        consumer (``sorted(os.listdir(p))`` is the sanctioned idiom)."""
        if id(node) in self._blessed:
            return
        hit: Optional[str] = None
        if resolved is not None:
            module, attr = resolved
            if module == "os" and attr in _FS_LISTING_OS:
                hit = f"os.{attr}()"
            elif module == "glob" and attr in _FS_LISTING_GLOB:
                hit = f"glob.{attr}()"
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _FS_LISTING_METHODS
        ):
            hit = f".{node.func.attr}()"
        if hit is not None:
            self._flag(
                node, "fs-ordering",
                f"{hit} lists files in filesystem-dependent order; WAL "
                "replay and durable-store iteration must not depend on "
                "it — wrap the listing directly in sorted(...)",
            )

    def _check_stdlib_call(self, node: ast.Call, module: str, attr: str) -> None:
        if module == "time" and attr in _WALLCLOCK_TIME:
            what = "wall sleep" if attr == "sleep" else "wall-clock read"
            self._flag(
                node, "wallclock",
                f"time.{attr}() is a {what}; simulation code must use "
                "the virtual clock (actor.now() / sim.now)",
            )
        elif module in ("datetime.datetime", "datetime.date") and attr in _WALLCLOCK_DATETIME:
            self._flag(
                node, "wallclock",
                f"{module}.{attr}() reads the host clock; use the "
                "virtual clock instead",
            )
        elif module == "random":
            if attr == "Random":
                if not node.args and not node.keywords:
                    self._flag(
                        node, "global-rng",
                        "random.Random() with no seed is OS-entropy seeded; "
                        "take a named RngRegistry stream",
                    )
                elif self.protocol:
                    self._flag(
                        node, "adhoc-rng",
                        "ad-hoc random.Random(seed) in protocol code; take "
                        "a named stream from the cluster RngRegistry so "
                        "draws derive from the run seed",
                    )
            elif attr == "SystemRandom":
                self._flag(node, "global-rng",
                           "random.SystemRandom is OS entropy, never replayable")
            elif attr[:1].islower():
                self._flag(
                    node, "global-rng",
                    f"random.{attr}() draws from the process-global RNG; "
                    "use an RngRegistry stream",
                )
        elif module == "os" and attr == "urandom":
            self._flag(node, "global-rng", "os.urandom() is OS entropy")
        elif module == "uuid" and attr in _GLOBAL_RNG_UUID:
            self._flag(node, "global-rng",
                       f"uuid.{attr}() is host/entropy derived; derive ids "
                       "from seeded streams or counters")
        elif module == "secrets":
            self._flag(node, "global-rng", f"secrets.{attr}() is OS entropy")

    # -- set iteration -------------------------------------------------
    def _is_set_valued(self, node: ast.expr) -> bool:
        if _is_setish_value(node):
            return True
        if isinstance(node, ast.Name) and node.id in self.names.set_names:
            return True
        if isinstance(node, ast.Attribute) and node.attr in self.names.set_attrs:
            return True
        return False

    def visit_For(self, node: ast.For) -> None:
        if self.protocol and self._is_set_valued(node.iter):
            self._flag(
                node, "set-iteration",
                "for-loop over a set: iteration order is arbitrary and "
                "leaks into event order; iterate sorted(...) instead",
            )
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        if self.protocol and id(node) not in self._blessed:
            for gen in node.generators:
                if self._is_set_valued(gen.iter):
                    self._flag(
                        node, "set-iteration",
                        "comprehension over a set: iteration order is "
                        "arbitrary; iterate sorted(...) instead",
                    )
                    break
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # building a set from a set keeps everything unordered; only
        # *ordered* materialization is a finding
        self.generic_visit(node)


def _lint_module(module: Module) -> List[Raw]:
    protocol = module.rel.startswith(PROTOCOL_PREFIXES)
    linter = _Linter(module.rel, _ModuleNames(module.tree), protocol)
    linter.visit(module.tree)
    return linter.findings


def lint_source(
    source: str,
    rel_path: str = "<string>",
    allowlist: Optional[Dict[str, Set[str]]] = None,
) -> List[Finding]:
    """Lint one module's source; ``rel_path`` decides rule scope."""
    return lint_tree(SourceIndex([(rel_path, source)]), allowlist)


def lint_tree(
    root: Union[Path, SourceIndex],
    allowlist: Optional[Dict[str, Set[str]]] = None,
) -> List[Finding]:
    """Lint every module of ``root``: a package directory (the ``repro``
    package dir) or a :class:`SourceIndex`."""
    index = SourceIndex.of(root)
    raws = [raw for module in index.modules.values()
            for raw in _lint_module(module)]
    return index.findings(raws, allowlist, dedup=False)
