"""One parsed view of the source tree, shared by every static pass.

Each module is parsed once.  A :class:`SourceIndex` owns what the
passes would otherwise rebuild for themselves:

* the trees, with their ``# lint: allow[...]`` and ``# protocol:
  external`` pragma lines;
* the one class table — bases, own methods, defining file, name-based
  ancestry (most-derived first) and method resolution, plus the
  ``register(type, handler)`` and ``self.<attr> = Pump(self.<issue>)``
  bindings merged along that ancestry;
* flat per-function :class:`Facts` (one walk, cached);
* the one finding filter: ``# lint: allow`` pragmas on the line or the
  line above, the per-file :data:`DEFAULT_ALLOWLIST`, declared
  waivers, and the ``(file, line, rule)`` dedup.

:meth:`SourceIndex.under` hands a pass its slice of the tree without
parsing again: views share the parent's modules and fact cache.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding

__all__ = [
    "Closure",
    "DEFAULT_ALLOWLIST",
    "Facts",
    "PATH_CAP",
    "PUSH_METHODS",
    "Raw",
    "Registration",
    "Site",
    "SourceIndex",
    "arg_or_kw",
    "call_name",
    "const_str",
    "is_self",
    "kwarg",
    "package_root",
    "parse_pragmas",
    "self_attr",
]

#: path prefix (or exact file) -> rules waived for it, with the reason
#: documented here rather than scattered through the code:
#:
#: * ``harness/`` measures *wall* time on purpose (simulated-seconds-
#:   per-wall-second is a reported metric);
#: * ``net/tcp.py`` is the real-TCP front-end — its sockets live on the
#:   host clock, not the simulated one;
#: * ``sim/rng.py`` is the RngRegistry: the one sanctioned constructor
#:   of ``random.Random`` instances.
DEFAULT_ALLOWLIST: Dict[str, Set[str]] = {
    "harness/": {"wallclock"},
    "net/tcp.py": {"wallclock"},
    "sim/rng.py": {"adhoc-rng"},
}

_PRAGMA = re.compile(r"#\s*lint:\s*allow\[([^\]]*)\]")
_EXTERNAL = re.compile(r"#\s*protocol:\s*external\b")

#: container methods that put an item into ``self.<attr>``.
PUSH_METHODS = {"append", "extend", "insert", "appendleft", "push"}

#: fork explosion guard of the path walker (cfg.FlowWalker) and the
#: commit-point query: beyond this many concurrent paths they keep the
#: first ``PATH_CAP`` (real handlers stay well under it).
PATH_CAP = 192


def package_root() -> Path:
    """Directory of the installed ``repro`` package (the lint target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def parse_pragmas(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rules allowed by a ``# lint: allow[...]``."""
    out: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _PRAGMA.search(text)
        if m:
            out[lineno] = {r.strip() for r in m.group(1).split(",") if r.strip()}
    return out


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------

def const_str(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def kwarg(call: ast.Call, name: str) -> Optional[ast.expr]:
    return next((k.value for k in call.keywords if k.arg == name), None)


def arg_or_kw(call: ast.Call, pos: int, kw: str) -> Optional[ast.expr]:
    return call.args[pos] if len(call.args) > pos else kwarg(call, kw)


def call_name(call: ast.Call) -> Optional[str]:
    """``x.m(...)`` -> ``m``; ``f(...)`` -> ``f``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``X``."""
    if isinstance(node, ast.Attribute) and is_self(node.value):
        return node.attr
    return None


class Closure:
    """A statically known callable — a local ``def``/``lambda`` or a
    bound self-method reference — with its defining environment."""

    __slots__ = ("node", "env", "name", "file")

    def __init__(self, node: ast.AST, env: Dict[str, object],
                 name: str = "", file: str = ""):
        self.node = node
        self.env = env
        self.name = name or getattr(node, "name", "<lambda>")
        self.file = file

    def params(self) -> List[str]:
        args = getattr(self.node, "args", None)
        if args is None:
            return []
        return [a.arg for a in args.args if a.arg != "self"]

    def body(self) -> List[ast.stmt]:
        """The statements; a lambda's expression is one statement."""
        if isinstance(self.node, ast.Lambda):
            expr = ast.Expr(value=self.node.body)
            return [ast.copy_location(expr, self.node.body)]
        return list(self.node.body)


class Facts:
    """Flat facts of one function or lambda, nested closures included
    (one ``ast.walk``, so list-valued facts are in breadth-first order)."""

    def __init__(self, node: ast.AST):
        self.reads: Set[str] = set()        # self.X loads
        self.writes: Set[str] = set()       # self.X stores and dels
        self.self_calls: Set[str] = set()   # self.m(...)
        self.super_calls: Set[str] = set()  # super().m(...)
        self.calls: Set[str] = set()        # <anything>.m(...)
        self.drives: Dict[Tuple[str, str], int] = {}  # self.X.m(...) -> line
        self.fed: Set[str] = set()          # self.X[...].append(...) & co.
        self.attrs: Set[str] = set()        # every attribute name
        self.strings: Set[str] = set()      # every str constant
        self.len_caps: Set[str] = set()     # len(self.X) <cmp> ...
        self.sends: List[Tuple[int, str]] = []   # self.send(_, "<type>")
        self.stores: List[Tuple[int, str]] = []  # self.X = ...
        self.pumps: List[Tuple[str, str]] = []   # self.X = Pump(self.m)
        self.datalet_ops: List[Optional[str]] = []  # None = dynamic op
        self.self_passed_to: Set[str] = set()  # callee names given bare self
        self.epoch_compare = False
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute):
                self.attrs.add(n.attr)
                if is_self(n.value):
                    stored = isinstance(n.ctx, (ast.Store, ast.Del))
                    (self.writes if stored else self.reads).add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                self.strings.add(n.value)
            elif isinstance(n, ast.Call):
                self._call(n)
            elif isinstance(n, ast.Assign):
                self._assign(n)
            elif isinstance(n, ast.Compare):
                self._compare(n)

    def _call(self, n: ast.Call) -> None:
        func = n.func
        for arg in list(n.args) + [k.value for k in n.keywords]:
            if is_self(arg):
                self.self_passed_to.add(func.id if isinstance(func, ast.Name) else "")
        if not isinstance(func, ast.Attribute):
            return
        self.calls.add(func.attr)
        owner = self_attr(func.value)
        if is_self(func.value):
            self.self_calls.add(func.attr)
            if func.attr == "datalet_call":
                op = const_str(n.args[0]) if n.args else None
                if op is None:
                    op = const_str(kwarg(n, "type"))
                self.datalet_ops.append(op)
            elif func.attr == "send" and len(n.args) >= 2 \
                    and const_str(n.args[1]) is not None:
                self.sends.append((n.lineno, n.args[1].value))
        elif owner is not None:
            self.drives.setdefault((owner, func.attr), n.lineno)
        elif isinstance(func.value, ast.Call) and call_name(func.value) == "super":
            self.super_calls.add(func.attr)
        if func.attr in PUSH_METHODS:
            target = func.value
            while isinstance(target, ast.Subscript):
                target = target.value
            if self_attr(target) is not None:
                self.fed.add(target.attr)

    def _assign(self, n: ast.Assign) -> None:
        targets = [self_attr(t) for t in n.targets]
        self.stores.extend((n.lineno, t) for t in targets if t is not None)
        value = n.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id == "Pump":
            issue = self_attr(arg_or_kw(value, 0, "issue"))
            if issue is not None:
                self.pumps.extend((t, issue) for t in targets if t is not None)

    def _compare(self, n: ast.Compare) -> None:
        left = n.left
        if isinstance(left, ast.Call) and isinstance(left.func, ast.Name) \
                and left.func.id == "len" and left.args \
                and self_attr(left.args[0]) is not None:
            self.len_caps.add(left.args[0].attr)
        if not self.epoch_compare:
            self.epoch_compare = any(
                (isinstance(sub, ast.Attribute) and "epoch" in sub.attr)
                or (isinstance(sub, ast.Name) and "epoch" in sub.id)
                for sub in ast.walk(n))


# ----------------------------------------------------------------------
# modules, classes, registrations
# ----------------------------------------------------------------------

@dataclass
class Site:
    """A call or comparison with its lexical scope: the enclosing class
    (``<module rel>`` at top level), the enclosing function and its
    parameters (``self`` excluded; ``""`` outside any function), and the
    names bound by enclosing ``for t in ("a", "b"):`` loops over literal
    strings."""

    node: ast.AST
    path: str
    cls: str
    func: str
    params: Tuple[str, ...]
    loops: Dict[str, Tuple[str, ...]]


class _Scopes(ast.NodeVisitor):
    """Every call and comparison of a module, in source order."""

    def __init__(self, rel: str):
        self.rel = rel
        self.sites: List[Site] = []
        self.cls = f"<module {rel}>"
        self.func: Tuple[str, Tuple[str, ...]] = ("", ())
        self.loops: Dict[str, Tuple[str, ...]] = {}

    def _enter(self, node: ast.AST, scope: str, value) -> None:
        saved = getattr(self, scope)
        setattr(self, scope, value)
        self.generic_visit(node)
        setattr(self, scope, saved)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter(node, "cls", node.name)

    def visit_FunctionDef(self, node) -> None:
        params = tuple(a.arg for a in node.args.args if a.arg != "self")
        self._enter(node, "func", (node.name, params))

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_For(self, node: ast.For) -> None:
        elts = node.iter.elts if isinstance(
            node.iter, (ast.Tuple, ast.List, ast.Set)) else []
        consts = tuple(const_str(e) for e in elts)
        if elts and None not in consts and isinstance(node.target, ast.Name):
            self._enter(node, "loops", {**self.loops, node.target.id: consts})
        else:
            self.generic_visit(node)

    def visit_Call(self, node: ast.AST) -> None:
        self.sites.append(Site(node, self.rel, self.cls, *self.func, self.loops))
        self.generic_visit(node)

    visit_Compare = visit_Call


class Module:
    """One parsed source file."""

    def __init__(self, rel: str, source: str):
        self.rel = rel
        self.tree = ast.parse(source)
        self.pragmas = parse_pragmas(source)
        #: lines carrying ``# protocol: external``
        self.external = {
            lineno for lineno, text in enumerate(source.splitlines(), start=1)
            if _EXTERNAL.search(text)
        }

    @cached_property
    def sites(self) -> List[Site]:
        scopes = _Scopes(self.rel)
        scopes.visit(self.tree)
        return scopes.sites


@dataclass
class ClassInfo:
    bases: List[str]
    methods: Dict[str, ast.AST]
    file: str


@dataclass(frozen=True)
class Registration:
    """One ``register(type, handler)`` call, by the enclosing class.
    ``types`` is None when the type expression (``expr``) is dynamic;
    ``handler`` is the bound self-method's name, ``<lambda>`` or
    ``<dynamic>``."""

    cls: str
    path: str
    line: int
    types: Optional[Tuple[str, ...]]
    handler: str
    external: bool
    expr: ast.expr


@dataclass
class Raw:
    """One finding before suppression: ``cls`` is the analyzed class
    whose ancestry a waiver must name."""

    file: str
    line: int
    rule: str
    message: str
    cls: str = ""


# ----------------------------------------------------------------------
# the index
# ----------------------------------------------------------------------

def _select(rels: Iterable[str], prefixes: Sequence[str]) -> List[str]:
    """``rels`` in prefix order: ``"dir/"`` picks the modules directly in
    that directory, anything else one exact file."""
    rels = list(rels)
    if not prefixes:
        return rels
    out: List[str] = []
    for p in prefixes:
        if p.endswith("/"):
            out.extend(r for r in rels
                       if r.startswith(p) and "/" not in r[len(p):])
        elif p in rels:
            out.append(p)
    return out


class SourceIndex:
    """Parsed modules plus everything derived from them, computed once."""

    def __init__(self, sources: Iterable[Tuple[str, str]] = ()):
        self.modules: Dict[str, Module] = {
            rel: Module(rel, src) for rel, src in sources
        }
        self._facts: Dict[int, Facts] = {}
        self._ancestry: Dict[str, List[str]] = {}

    @classmethod
    def from_root(cls, root: Optional[Path] = None,
                  *prefixes: str) -> "SourceIndex":
        """Every ``*.py`` under ``root`` (default: the installed package),
        or only those :func:`_select` keeps for ``prefixes``."""
        root = package_root() if root is None else Path(root)
        rels = [p.relative_to(root).as_posix() for p in sorted(root.rglob("*.py"))]
        return cls((rel, (root / rel).read_text()) for rel in _select(rels, prefixes))

    @classmethod
    def of(cls, sources) -> "SourceIndex":
        """``sources`` as an index: an index already, a package root
        (``None`` = the installed package) or ``(rel, source)`` pairs."""
        if isinstance(sources, SourceIndex):
            return sources
        if sources is None or isinstance(sources, (str, Path)):
            return cls.from_root(sources)
        return cls(sources)

    def under(self, *prefixes: str) -> "SourceIndex":
        """A view over part of this index, sharing trees and facts."""
        view = SourceIndex()
        view.modules = {rel: self.modules[rel]
                        for rel in _select(self.modules, prefixes)}
        view._facts = self._facts
        return view

    # -- class table ---------------------------------------------------
    @cached_property
    def classes(self) -> Dict[str, ClassInfo]:
        out: Dict[str, ClassInfo] = {}
        for module in self.modules.values():
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    out[node.name] = ClassInfo(
                        [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                         for b in node.bases],
                        {item.name: item for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))},
                        module.rel)
        return out

    @property
    def sites(self) -> Iterator[Site]:
        for module in self.modules.values():
            yield from module.sites

    @cached_property
    def registrations(self) -> List[Registration]:
        """``register(type, handler)`` calls in source order; a literal
        loop ``for t in ("a", "b"): register(t, ...)`` expands."""
        out: List[Registration] = []
        for site in self.sites:
            call = site.node
            if not (isinstance(call, ast.Call) and call.args
                    and call_name(call) == "register"):
                continue
            arg = call.args[0]
            types = ((const_str(arg),) if const_str(arg) is not None
                     else site.loops.get(getattr(arg, "id", None)))
            handler = "<dynamic>"
            if len(call.args) > 1:
                h = call.args[1]
                handler = self_attr(h) or (
                    "<lambda>" if isinstance(h, ast.Lambda) else "<dynamic>")
            out.append(Registration(
                site.cls, site.path, call.lineno, types, handler,
                call.lineno in self.modules[site.path].external, arg))
        return out

    def ancestry(self, cls: str) -> List[str]:
        """Name-based base chain, most-derived first (approximate MRO)."""
        order = self._ancestry.get(cls)
        if order is None:
            order, stack = [], [cls]
            while stack:
                cur = stack.pop(0)
                if cur in order:
                    continue
                order.append(cur)
                if cur in self.classes:
                    stack.extend(self.classes[cur].bases)
            self._ancestry[cls] = order
        return order

    def methods(self, cls: str) -> Dict[str, ast.AST]:
        """Methods ``cls`` defines itself."""
        info = self.classes.get(cls)
        return info.methods if info is not None else {}

    def resolve(self, cls: str, method: str, after: str = ""):
        """``(funcdef, defining class)`` along the ancestry past class
        ``after`` (as ``super().method`` there), or ``(None, None)``."""
        ancestry = self.ancestry(cls)
        for ancestor in ancestry[ancestry.index(after) + 1 if after else 0:]:
            fn = self.methods(ancestor).get(method)
            if fn is not None:
                return fn, ancestor
        return None, None

    def file_of(self, cls: str) -> str:
        info = self.classes.get(cls)
        return info.file if info is not None else "<unknown>"

    def facts(self, node: ast.AST) -> Facts:
        facts = self._facts.get(id(node))
        if facts is None:
            facts = self._facts[id(node)] = Facts(node)
        return facts

    @cached_property
    def _own_handlers(self) -> Dict[str, Dict[str, str]]:
        out: Dict[str, Dict[str, str]] = {}
        for reg in self.registrations:
            for t in reg.types or ():
                out.setdefault(reg.cls, {}).setdefault(t, reg.handler)
        return out

    def handlers(self, cls: str) -> Dict[str, str]:
        """msg type -> handler method, most-derived registration winning."""
        merged: Dict[str, str] = {}
        for ancestor in self.ancestry(cls):
            for t, handler in self._own_handlers.get(ancestor, {}).items():
                merged.setdefault(t, handler)
        return merged

    def pumps(self, cls: str) -> Dict[str, str]:
        """``attr -> issue method`` for every ``self.<attr> =
        Pump(self.<issue>)`` along the ancestry.  Issue callables that
        are not plain self-method references (local closures) resolve to
        nothing here."""
        out: Dict[str, str] = {}
        for ancestor in self.ancestry(cls):
            for fn in self.methods(ancestor).values():
                for attr, issue in self.facts(fn).pumps:
                    out.setdefault(attr, issue)
        return out

    # -- the finding filter --------------------------------------------
    def findings(self, raws: Iterable[Raw],
                 allowlist: Optional[Dict[str, Set[str]]] = None,
                 waivers: Sequence = (), tag: str = "waiver",
                 dedup: bool = True) -> List[Finding]:
        """Suppress ``raws`` by pragma, allowlist and waiver, then (with
        ``dedup``) keep one finding per ``(file, line, rule)`` — an
        unsuppressed occurrence outranks a suppressed one — sorted.

        A waiver covers a raw whose rule it names when its class is on
        the raw's class ancestry (the last such waiver wins); its
        condition and reason ride into the message as ``[<tag>: ...]``.
        Raws anchored outside this index (code inlined from another
        file) are dropped."""
        allowlist = DEFAULT_ALLOWLIST if allowlist is None else allowlist
        out: List[Finding] = []
        best: Dict[Tuple[str, int, str], int] = {}
        for raw in raws:
            module = self.modules.get(raw.file)
            if module is None:
                continue
            line_rules = (module.pragmas.get(raw.line, set())
                          | module.pragmas.get(raw.line - 1, set()))
            suppressed = raw.rule in line_rules or "*" in line_rules or any(
                raw.rule in rules for prefix, rules in allowlist.items()
                if raw.file == prefix or raw.file.startswith(prefix))
            message = raw.message
            waiver = next((w for w in reversed(waivers) if w.rule == raw.rule
                           and w.cls in self.ancestry(raw.cls)), None)
            if waiver is not None:
                suppressed = True
                message += f" [{tag}: {waiver.condition} — {waiver.reason}]"
            finding = Finding(path=raw.file, line=raw.line, rule=raw.rule,
                              message=message, suppressed=suppressed)
            if not dedup:
                out.append(finding)
                continue
            key = (raw.file, raw.line, raw.rule)
            if key not in best:
                best[key] = len(out)
                out.append(finding)
            elif out[best[key]].suppressed and not suppressed:
                out[best[key]] = finding
        if dedup:
            out.sort(key=lambda f: (f.path, f.line, f.rule))
        return out
