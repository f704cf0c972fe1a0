"""Project-wide symbol table and call graph for interprocedural rules.

Per-file checkers see one module at a time, so a decision path that
calls, three frames down, a helper touching ``time.time()`` is
invisible to them.  This module builds the whole-program structure the
effect analysis (:mod:`repro.lint.effects`) runs over:

* :func:`build_module_summary` -- one pass over a parsed file
  extracting, per function/method, its **call sites**, its local
  **effect seeds** (wall-clock reads, RNG draws, filesystem mutations,
  ``global`` writes, unordered set iteration), its fault-handling
  markers (``raise`` statements, ``GridCounters``-style increments,
  quarantine renames) and every **broad except handler**.  Summaries
  are plain picklable data, so they travel through the worker pool and
  the on-disk summary cache (:mod:`repro.lint.summaries`) unchanged.
* :class:`CallGraph` -- links summaries into a project-wide graph:
  dotted imports resolve across modules by module-name suffix matching
  (lint roots are package-relative, imports are absolute), ``self.m()``
  dispatches through the class hierarchy to the nearest inherited
  definition *and* every subclass override (dynamic dispatch is an
  over-approximation by design).

Everything here is deliberately deterministic: every iteration order is
source order or explicitly sorted, so analysis output is byte-identical
across ``PYTHONHASHSEED`` values and worker counts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.lint.checker import FileContext
from repro.lint.rules import _NUMPY_RANDOM_OK, UnorderedIterationChecker
from repro.lint.suppress import Suppressions, parse_suppressions

# ----------------------------------------------------------------------
# the effect lattice's atoms
# ----------------------------------------------------------------------

RNG = "rng"
WALL_CLOCK = "wall-clock"
FILESYSTEM = "filesystem"
GLOBAL_MUTATION = "global-mutation"
HASH_ORDER = "hash-order"

#: every atom a function can acquire; "pure" is the empty set
EFFECT_ATOMS = frozenset({RNG, WALL_CLOCK, FILESYSTEM, GLOBAL_MUTATION, HASH_ORDER})

#: known stdlib signatures seeding the lattice, keyed (module leaf, attr)
_WALLCLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

_RNG_CALLS = frozenset({("os", "urandom"), ("uuid", "uuid1"), ("uuid", "uuid4")})

#: filesystem *mutations* (plus ``open``, which can write); pure reads
#: like ``Path.read_bytes`` are deliberately absent -- a fingerprint
#: helper hashing file contents is content-addressed, not impure
_FS_CALLS = frozenset(
    {
        ("os", "remove"),
        ("os", "unlink"),
        ("os", "rename"),
        ("os", "replace"),
        ("os", "rmdir"),
        ("os", "mkdir"),
        ("os", "makedirs"),
        ("os", "fdopen"),
        ("shutil", "rmtree"),
        ("shutil", "move"),
        ("shutil", "copy"),
        ("shutil", "copyfile"),
        ("shutil", "copytree"),
        ("tempfile", "mkstemp"),
        ("tempfile", "mkdtemp"),
        ("tempfile", "NamedTemporaryFile"),
        ("tempfile", "TemporaryDirectory"),
    }
)

#: receiver-agnostic mutating method names (Path and friends); ``rename``
#: / ``replace`` are excluded -- ``str.replace`` would drown the signal
_FS_METHODS = frozenset(
    {
        "write_text",
        "write_bytes",
        "unlink",
        "touch",
        "mkdir",
        "rmtree",
        "symlink_to",
        "hardlink_to",
    }
)

#: a seed at a line suppressed for any of these proxy rules does not
#: propagate: the author already argued the site is safe, and taint from
#: an argued-safe site would make RPR007 findings unsuppressible
_PROXY_RULES: dict[str, tuple[str, ...]] = {
    HASH_ORDER: ("RPR001", "RPR007", "RPR009"),
    RNG: ("RPR002", "RPR007", "RPR009"),
    WALL_CLOCK: ("RPR002", "RPR007", "RPR009"),
    FILESYSTEM: ("RPR007", "RPR009"),
    GLOBAL_MUTATION: ("RPR007", "RPR009"),
}


# ----------------------------------------------------------------------
# summary records (picklable plain data)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One syntactic call, pre-resolved as far as one file allows."""

    #: "local" (module-level name), "dotted" (absolute import path),
    #: "self" (method on the enclosing class)
    kind: str
    target: str
    line: int
    col: int


@dataclass(frozen=True)
class Seed:
    """A local effect source inside one function."""

    effect: str
    detail: str
    line: int


@dataclass(frozen=True)
class BroadExcept:
    """One ``except Exception`` / ``except BaseException`` / bare handler."""

    line: int
    col: int
    kind: str
    #: the handler body itself re-raises, increments a counter, or
    #: quarantines -- no graph walk needed
    sanctioned: bool
    #: calls inside the handler body, for transitive sanction lookup
    handler_calls: tuple[CallSite, ...]


@dataclass(frozen=True)
class FunctionNode:
    """Summary of one module-level function or method."""

    qualname: str
    name: str
    line: int
    col: int
    #: enclosing class name, or None for module-level functions
    cls: str | None
    calls: tuple[CallSite, ...]
    seeds: tuple[Seed, ...]
    raises: bool
    counter_increment: bool
    quarantine: bool
    broad_excepts: tuple[BroadExcept, ...]


@dataclass(frozen=True)
class ClassNode:
    """Name, bases and methods of one class (for method resolution)."""

    name: str
    line: int
    #: base refs as written, from-imports already expanded to dotted paths
    bases: tuple[str, ...]
    methods: tuple[str, ...]
    #: assigns ``scheme_id`` or is named ``*Scheduler`` (RPR009 contract)
    scheduler_like: bool


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the linker needs to know about one analysed file."""

    relpath: str
    module: str
    functions: dict[str, FunctionNode]
    classes: dict[str, ClassNode]
    from_imports: dict[str, str]
    module_aliases: dict[str, str]
    #: suppression-directive lines consumed by seed exclusion (feeds the
    #: stale-directive audit: a directive silencing a seed is in use)
    used_directive_lines: tuple[int, ...]


def module_name(relpath: str) -> str:
    """Dotted module name of a lint-root-relative path."""
    mod = relpath[:-3] if relpath.endswith(".py") else relpath
    mod = mod.replace("/", ".")
    if mod.endswith(".__init__"):
        mod = mod[: -len(".__init__")]
    elif mod == "__init__":
        mod = ""
    return mod


def _attr_parts(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None when the root is not a Name."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return list(reversed(parts))


def _assigns_scheme_id(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for t in targets:
            if isinstance(t, ast.Name) and t.id == "scheme_id":
                return True
    return False


class _FunctionExtractor:
    """Walks one function body collecting calls, seeds and handlers."""

    def __init__(
        self, ctx: FileContext, suppressions: Suppressions, used_lines: set[int]
    ) -> None:
        self.ctx = ctx
        self.suppressions = suppressions
        self.used_lines = used_lines
        #: RPR001's consumer analysis, reused for hash-order seeds
        self._order_checker = UnorderedIterationChecker(ctx)

    # -- call-site extraction -------------------------------------------
    def call_site(self, node: ast.Call) -> CallSite | None:
        fn = node.func
        ctx = self.ctx
        if isinstance(fn, ast.Name):
            origin = ctx.from_imports.get(fn.id)
            if origin is not None:
                return CallSite("dotted", origin, fn.lineno, fn.col_offset)
            if fn.id in ctx.module_aliases:
                return None
            return CallSite("local", fn.id, fn.lineno, fn.col_offset)
        if isinstance(fn, ast.Attribute):
            chain = _attr_parts(fn)
            if chain is None:
                return None
            root, rest = chain[0], chain[1:]
            if root in ("self", "cls") and len(rest) == 1:
                return CallSite("self", rest[0], fn.lineno, fn.col_offset)
            if root in ctx.module_aliases:
                dotted = ".".join([ctx.module_aliases[root], *rest])
                return CallSite("dotted", dotted, fn.lineno, fn.col_offset)
            if root in ctx.from_imports:
                dotted = ".".join([ctx.from_imports[root], *rest])
                return CallSite("dotted", dotted, fn.lineno, fn.col_offset)
            return CallSite("local", ".".join(chain), fn.lineno, fn.col_offset)
        return None

    # -- effect seeds ----------------------------------------------------
    def classify_call(self, node: ast.Call) -> Seed | None:
        fn = node.func
        ctx = self.ctx
        if isinstance(fn, ast.Name):
            if fn.id == "open":
                return Seed(FILESYSTEM, "open()", node.lineno)
            origin = ctx.from_imports.get(fn.id)
            if origin is not None:
                mod, _, attr = origin.rpartition(".")
                return self._classify_dotted(mod, attr, node)
            return None
        if not isinstance(fn, ast.Attribute):
            return None
        if fn.attr in _FS_METHODS:
            return Seed(FILESYSTEM, f".{fn.attr}()", node.lineno)
        base = fn.value
        if ctx.resolves_to_module(base, "numpy.random"):
            if fn.attr == "default_rng":
                if not (node.args or node.keywords):
                    return Seed(RNG, "unseeded numpy.random.default_rng()", node.lineno)
                return None
            if fn.attr not in _NUMPY_RANDOM_OK:
                return Seed(RNG, f"numpy.random.{fn.attr}()", node.lineno)
            return None
        if isinstance(base, ast.Name):
            mod = ctx.module_aliases.get(base.id)
            imported = ctx.from_imports.get(base.id, "")
            if mod is not None or imported:
                return self._classify_dotted(mod or imported, fn.attr, node)
        return None

    @staticmethod
    def _classify_dotted(mod: str, attr: str, node: ast.Call) -> Seed | None:
        leaf = mod.rsplit(".", 1)[-1] if mod else ""
        if mod == "random":
            if attr == "Random":
                if node.args or node.keywords:
                    return None  # seeded instance: the sanctioned pattern
                return Seed(RNG, "unseeded random.Random()", node.lineno)
            return Seed(RNG, f"random.{attr}()", node.lineno)
        if mod == "secrets":
            return Seed(RNG, f"secrets.{attr}()", node.lineno)
        if mod == "numpy.random":
            if attr == "default_rng":
                if node.args or node.keywords:
                    return None
                return Seed(RNG, "unseeded numpy.random.default_rng()", node.lineno)
            if attr not in _NUMPY_RANDOM_OK:
                return Seed(RNG, f"numpy.random.{attr}()", node.lineno)
            return None
        if attr == "SystemRandom":
            return Seed(RNG, "random.SystemRandom()", node.lineno)
        if (leaf, attr) in _WALLCLOCK_CALLS:
            return Seed(WALL_CLOCK, f"{leaf}.{attr}()", node.lineno)
        if (leaf, attr) in _RNG_CALLS:
            return Seed(RNG, f"{leaf}.{attr}()", node.lineno)
        if (leaf, attr) in _FS_CALLS:
            return Seed(FILESYSTEM, f"{leaf}.{attr}()", node.lineno)
        return None

    def _set_reason(self, node: ast.expr) -> str | None:
        """Why *node* is hash-ordered -- sets only, no dict views.

        Taint seeding is stricter than RPR001 on purpose: dict views are
        construction-ordered and usually fine, and a transitive rule
        multiplies every false positive by its caller count.
        """
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set expression"
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
                return f"{fn.id}(...)"
            return None
        if isinstance(node, ast.Name):
            if self._order_checker._local_set_name(node):
                return f"{node.id} (set-typed local)"
            return None
        if self.ctx.is_set_expr(node):
            return "a set-typed value"
        return None

    def _hash_order_seed(self, consumer: ast.AST, source: ast.expr) -> Seed | None:
        reason = self._set_reason(source)
        if reason is None:
            return None
        if self._order_checker._sanctioned(consumer):
            return None
        lineno = getattr(source, "lineno", getattr(consumer, "lineno", 0))
        return Seed(HASH_ORDER, f"unsorted iteration over {reason}", lineno)

    def _seed_suppressed(self, seed: Seed) -> bool:
        for rule in _PROXY_RULES[seed.effect]:
            d = self.suppressions.covering(rule, seed.line)
            if d is not None:
                self.used_lines.add(d.line)
                return True
        return False

    # -- fault-handling markers ------------------------------------------
    @staticmethod
    def _counter_increment(node: ast.AugAssign) -> bool:
        if not isinstance(node.op, ast.Add):
            return False
        if not isinstance(node.target, ast.Attribute):
            return False
        parts = _attr_parts(node.target)
        return parts is not None and any("counter" in p for p in parts)

    @staticmethod
    def _is_quarantine_call(node: ast.Call) -> bool:
        fn = node.func
        name = None
        if isinstance(fn, ast.Name):
            name = fn.id
        elif isinstance(fn, ast.Attribute):
            name = fn.attr
        if name is not None and "quarantine" in name:
            return True
        if name in ("rename", "replace"):
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Constant)
                    and isinstance(sub.value, str)
                    and ".corrupt" in sub.value
                ):
                    return True
        return False

    def _broad_kind(self, handler: ast.ExceptHandler) -> str | None:
        t = handler.type
        if t is None:
            return "bare"
        elts = list(t.elts) if isinstance(t, ast.Tuple) else [t]
        for e in elts:
            name = None
            if isinstance(e, ast.Name):
                name = e.id
            elif isinstance(e, ast.Attribute):
                name = e.attr
            if name in ("Exception", "BaseException"):
                return name
        return None

    def _broad_except(self, handler: ast.ExceptHandler) -> BroadExcept | None:
        kind = self._broad_kind(handler)
        if kind is None:
            return None
        sanctioned = False
        handler_calls: list[CallSite] = []
        for stmt in handler.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Raise):
                    sanctioned = True
                elif isinstance(sub, ast.AugAssign) and self._counter_increment(sub):
                    sanctioned = True
                elif isinstance(sub, ast.Call):
                    if self._is_quarantine_call(sub):
                        sanctioned = True
                    site = self.call_site(sub)
                    if site is not None:
                        handler_calls.append(site)
        return BroadExcept(
            line=handler.lineno,
            col=handler.col_offset,
            kind=kind,
            sanctioned=sanctioned,
            handler_calls=tuple(handler_calls),
        )

    # -- the per-function pass -------------------------------------------
    def extract(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None
    ) -> FunctionNode:
        qualname = f"{cls}.{fn.name}" if cls else fn.name
        calls: list[CallSite] = []
        seeds: list[Seed] = []
        raises = False
        counter_increment = False
        quarantine = False
        broads: list[BroadExcept] = []
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Call):
                site = self.call_site(sub)
                if site is not None:
                    calls.append(site)
                seed = self.classify_call(sub)
                if seed is not None and not self._seed_suppressed(seed):
                    seeds.append(seed)
                if self._is_quarantine_call(sub):
                    quarantine = True
                fname = sub.func
                if (
                    isinstance(fname, ast.Name)
                    and fname.id in ("list", "tuple", "enumerate", "reversed")
                    and sub.args
                ):
                    hseed = self._hash_order_seed(sub, sub.args[0])
                    if hseed is not None and not self._seed_suppressed(hseed):
                        seeds.append(hseed)
            elif isinstance(sub, ast.Raise):
                raises = True
            elif isinstance(sub, ast.AugAssign):
                if self._counter_increment(sub):
                    counter_increment = True
            elif isinstance(sub, ast.Global):
                seed = Seed(
                    GLOBAL_MUTATION,
                    "global " + ", ".join(sub.names),
                    sub.lineno,
                )
                if not self._seed_suppressed(seed):
                    seeds.append(seed)
            elif isinstance(sub, ast.ExceptHandler):
                be = self._broad_except(sub)
                if be is not None:
                    broads.append(be)
            elif isinstance(sub, ast.For):
                hseed = self._hash_order_seed(sub, sub.iter)
                if hseed is not None and not self._seed_suppressed(hseed):
                    seeds.append(hseed)
            elif isinstance(sub, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                for gen in sub.generators:
                    hseed = self._hash_order_seed(sub, gen.iter)
                    if hseed is not None and not self._seed_suppressed(hseed):
                        seeds.append(hseed)
        return FunctionNode(
            qualname=qualname,
            name=fn.name,
            line=fn.lineno,
            col=fn.col_offset,
            cls=cls,
            calls=tuple(calls),
            seeds=tuple(seeds),
            raises=raises,
            counter_increment=counter_increment,
            quarantine=quarantine,
            broad_excepts=tuple(broads),
        )


def _base_ref(ctx: FileContext, node: ast.expr) -> str | None:
    """A class base expression as a resolvable string ref."""
    if isinstance(node, ast.Subscript):  # Generic[...] et al.
        node = node.value
    if isinstance(node, ast.Name):
        return ctx.from_imports.get(node.id, node.id)
    parts = _attr_parts(node)
    if parts is None:
        return None
    root, rest = parts[0], parts[1:]
    if root in ctx.module_aliases:
        return ".".join([ctx.module_aliases[root], *rest])
    if root in ctx.from_imports:
        return ".".join([ctx.from_imports[root], *rest])
    return ".".join(parts)


def build_module_summary(ctx: FileContext) -> ModuleSummary:
    """Extract the interprocedural summary of one parsed file."""
    suppressions = parse_suppressions(ctx.source, ctx.relpath)
    used_lines: set[int] = set()
    extractor = _FunctionExtractor(ctx, suppressions, used_lines)
    functions: dict[str, FunctionNode] = {}
    classes: dict[str, ClassNode] = {}
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node = extractor.extract(stmt, cls=None)
            functions[node.qualname] = node
        elif isinstance(stmt, ast.ClassDef):
            methods: list[str] = []
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fnode = extractor.extract(sub, cls=stmt.name)
                    functions[fnode.qualname] = fnode
                    methods.append(sub.name)
            bases = tuple(
                ref
                for ref in (_base_ref(ctx, b) for b in stmt.bases)
                if ref is not None
            )
            classes[stmt.name] = ClassNode(
                name=stmt.name,
                line=stmt.lineno,
                bases=bases,
                methods=tuple(methods),
                scheduler_like=(
                    stmt.name.endswith("Scheduler") or _assigns_scheme_id(stmt)
                ),
            )
    return ModuleSummary(
        relpath=ctx.relpath,
        module=module_name(ctx.relpath),
        functions=functions,
        classes=classes,
        from_imports=dict(ctx.from_imports),
        module_aliases=dict(ctx.module_aliases),
        used_directive_lines=tuple(sorted(used_lines)),
    )


# ----------------------------------------------------------------------
# linking
# ----------------------------------------------------------------------

ClassRef = tuple[str, str]  # (relpath, class name)


class CallGraph:
    """Module summaries linked into one project-wide call graph."""

    def __init__(self, summaries: dict[str, ModuleSummary]) -> None:
        self.summaries: dict[str, ModuleSummary] = dict(sorted(summaries.items()))
        self.nodes: dict[str, FunctionNode] = {}
        self.node_relpath: dict[str, str] = {}
        for relpath, s in self.summaries.items():
            for qual, fnode in s.functions.items():
                nid = f"{relpath}::{qual}"
                self.nodes[nid] = fnode
                self.node_relpath[nid] = relpath
        #: deterministic node iteration order for every downstream pass
        self.order: list[str] = sorted(self.nodes)
        self._by_module: dict[str, str] = {
            s.module: relpath for relpath, s in self.summaries.items()
        }
        self._class_index: dict[ClassRef, ClassNode] = {}
        self._classes_by_name: dict[str, list[ClassRef]] = {}
        for relpath, s in self.summaries.items():
            for cname, cnode in s.classes.items():
                ref = (relpath, cname)
                self._class_index[ref] = cnode
                self._classes_by_name.setdefault(cname, []).append(ref)
        self._bases: dict[ClassRef, tuple[ClassRef, ...]] = {}
        self._subclasses: dict[ClassRef, list[ClassRef]] = {}
        self._resolve_hierarchy()
        #: caller node id -> [(call site, callee node id)], sorted stable
        self.resolved: dict[str, list[tuple[CallSite, str]]] = {}
        self._link()

    # -- module / class resolution ---------------------------------------
    def _match_module(self, dotted: str) -> str | None:
        """The relpath whose module name best matches *dotted*.

        Lint relpaths are root-relative (``sim/driver.py`` ->
        ``sim.driver``) while imports are absolute
        (``repro.sim.driver``), so matching is by dotted suffix; exact
        beats suffix, longer module names beat shorter, and ties break
        lexicographically so output never depends on dict order.
        """
        rel = self._by_module.get(dotted)
        if rel is not None:
            return rel
        best: tuple[int, str, str] | None = None
        for mod, relpath in self._by_module.items():
            if not mod:
                continue
            if dotted.endswith("." + mod) or mod.endswith("." + dotted):
                cand = (len(mod), mod, relpath)
                if best is None or cand > best:
                    best = cand
        return best[2] if best is not None else None

    def _resolve_class_ref(self, relpath: str, ref: str) -> ClassRef | None:
        if "." not in ref:
            if ref in self.summaries[relpath].classes:
                return (relpath, ref)
            refs = self._classes_by_name.get(ref, [])
            if len(refs) == 1:
                return refs[0]
            return None
        mod, _, cname = ref.rpartition(".")
        target = self._match_module(mod)
        if target is not None and cname in self.summaries[target].classes:
            return (target, cname)
        return None

    def _resolve_hierarchy(self) -> None:
        for ref in sorted(self._class_index):
            relpath, _ = ref
            resolved: list[ClassRef] = []
            for base in self._class_index[ref].bases:
                rb = self._resolve_class_ref(relpath, base)
                if rb is not None:
                    resolved.append(rb)
            self._bases[ref] = tuple(resolved)
            for rb in resolved:
                self._subclasses.setdefault(rb, []).append(ref)

    def _ancestors(self, ref: ClassRef) -> list[ClassRef]:
        """Breadth-first base classes, nearest first, cycle-safe."""
        out: list[ClassRef] = []
        seen: set[ClassRef] = {ref}
        frontier = list(self._bases.get(ref, ()))
        while frontier:
            nxt: list[ClassRef] = []
            for c in frontier:
                if c in seen:
                    continue
                seen.add(c)
                out.append(c)
                nxt.extend(self._bases.get(c, ()))
            frontier = nxt
        return out

    def _descendants(self, ref: ClassRef) -> list[ClassRef]:
        out: list[ClassRef] = []
        seen: set[ClassRef] = {ref}
        frontier = list(self._subclasses.get(ref, ()))
        while frontier:
            nxt: list[ClassRef] = []
            for c in sorted(frontier):
                if c in seen:
                    continue
                seen.add(c)
                out.append(c)
                nxt.extend(self._subclasses.get(c, ()))
            frontier = nxt
        return out

    def _method_node(self, ref: ClassRef, meth: str) -> str | None:
        relpath, cname = ref
        qual = f"{cname}.{meth}"
        if qual in self.summaries[relpath].functions:
            return f"{relpath}::{qual}"
        return None

    def class_of(self, nid: str) -> ClassNode | None:
        """The :class:`ClassNode` a method node belongs to, if any."""
        node = self.nodes[nid]
        if node.cls is None:
            return None
        return self.summaries[self.node_relpath[nid]].classes.get(node.cls)

    # -- call-site resolution --------------------------------------------
    def _resolve_in_module(self, relpath: str, tail: list[str]) -> tuple[str, ...]:
        s = self.summaries[relpath]
        if len(tail) == 1:
            name = tail[0]
            if name in s.functions and s.functions[name].cls is None:
                return (f"{relpath}::{name}",)
            if name in s.classes:
                init = self._resolve_method_nearest((relpath, name), "__init__")
                return (init,) if init is not None else ()
            return ()
        if len(tail) == 2:
            cname, meth = tail
            if cname in s.classes:
                hit = self._resolve_method_nearest((relpath, cname), meth)
                return (hit,) if hit is not None else ()
        return ()

    def _resolve_method_nearest(self, ref: ClassRef, meth: str) -> str | None:
        for c in (ref, *self._ancestors(ref)):
            nid = self._method_node(c, meth)
            if nid is not None:
                return nid
        return None

    def _resolve_dotted(self, target: str) -> tuple[str, ...]:
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            relpath = self._match_module(mod)
            if relpath is None:
                continue
            hits = self._resolve_in_module(relpath, parts[cut:])
            if hits:
                return hits
        return ()

    def resolve_site(
        self, relpath: str, caller: FunctionNode, site: CallSite
    ) -> tuple[str, ...]:
        """Callee node ids of one call site (possibly several for
        dynamic self-dispatch; empty for externals/builtins)."""
        if site.kind == "dotted":
            return self._resolve_dotted(site.target)
        if site.kind == "local":
            return self._resolve_in_module(relpath, site.target.split("."))
        if site.kind == "self":
            if caller.cls is None:
                return ()
            ref = (relpath, caller.cls)
            if ref not in self._class_index:
                return ()
            hits: set[str] = set()
            nearest = self._resolve_method_nearest(ref, site.target)
            if nearest is not None:
                hits.add(nearest)
            # dynamic dispatch: every subclass override may be the one
            # that actually runs
            for sub in self._descendants(ref):
                nid = self._method_node(sub, site.target)
                if nid is not None:
                    hits.add(nid)
            return tuple(sorted(hits))
        return ()

    def _link(self) -> None:
        for nid in self.order:
            relpath = self.node_relpath[nid]
            fnode = self.nodes[nid]
            edges: list[tuple[CallSite, str]] = []
            for site in fnode.calls:
                for callee in self.resolve_site(relpath, fnode, site):
                    edges.append((site, callee))
            self.resolved[nid] = edges


def build_call_graph(summaries: Iterable[ModuleSummary]) -> CallGraph:
    """Link *summaries* (any iterable) into a :class:`CallGraph`."""
    return CallGraph({s.relpath: s for s in summaries})
