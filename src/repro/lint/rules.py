"""Per-file checkers RPR001-RPR003, RPR005, RPR006, RPR008.

Each rule targets one bug *class* this repository has either shipped or
structurally cannot afford (see ``docs/STATIC_ANALYSIS.md`` for the
catalogue with worked examples; RPR004, the cross-file conformance
pass, lives in :mod:`repro.lint.project`).  Two rules look past one
function body: RPR005 follows a cache read method into the helpers it
calls, and RPR008 follows a broad handler into the helpers *it* calls.
Both use the same resolver, :func:`_same_file_closure`, which stays
inside the file on purpose -- what a helper imported from elsewhere
does is not visible here, so it never vouches for anything.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterable, Iterator, Mapping, TypeVar

from repro.lint.checker import Checker, FileContext

FuncDef = ast.FunctionDef | ast.AsyncFunctionDef
_Root = TypeVar("_Root", bound=ast.AST)


# ----------------------------------------------------------------------
# the shared same-file call resolver (RPR005 read paths, RPR008 sanctions)
# ----------------------------------------------------------------------


def _defs_in(body: Iterable[ast.stmt]) -> dict[str, FuncDef]:
    """The functions defined directly in *body* (a module or class), by name."""
    return {
        stmt.name: stmt
        for stmt in body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _same_file_callee(
    call: ast.Call,
    methods: Mapping[str, FuncDef],
    functions: Mapping[str, FuncDef],
) -> FuncDef | None:
    """The same-file definition *call* runs, if it can be named here.

    ``self.m()`` resolves in *methods* (the enclosing class's own
    methods -- no inheritance, no overrides) and a bare ``f()`` in
    *functions* (the module's top-level functions).  Imports, other
    classes and dynamic dispatch resolve to ``None``.
    """
    fn = call.func
    if isinstance(fn, ast.Attribute):
        if isinstance(fn.value, ast.Name) and fn.value.id == "self":
            return methods.get(fn.attr)
        return None
    if isinstance(fn, ast.Name):
        return functions.get(fn.id)
    return None


def _same_file_closure(
    roots: Iterable[_Root],
    methods: Mapping[str, FuncDef],
    functions: Mapping[str, FuncDef],
) -> Iterator[_Root | FuncDef]:
    """*roots* plus every same-file function they call, transitively.

    Each node is yielded once, so recursion terminates; resolution is
    :func:`_same_file_callee`'s.
    """
    seen: set[ast.AST] = set()
    work: list[_Root | FuncDef] = list(roots)
    while work:
        node = work.pop()
        if node in seen:
            continue
        seen.add(node)
        yield node
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                callee = _same_file_callee(sub, methods, functions)
                if callee is not None:
                    work.append(callee)


def _attr_chain(node: ast.expr) -> list[str]:
    """``a.b.c`` as ``["a", "b", "c"]`` (the root only when it is a Name)."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
    return list(reversed(parts))


def _names_corrupt(call: ast.Call) -> bool:
    """Whether *call*'s subtree carries a ``".corrupt"`` string constant."""
    return any(
        isinstance(sub, ast.Constant)
        and isinstance(sub.value, str)
        and ".corrupt" in sub.value
        for sub in ast.walk(call)
    )


# ----------------------------------------------------------------------
# RPR001 -- unordered iteration in decision paths
# ----------------------------------------------------------------------

#: consumers for which element order provably cannot leak into results.
#: ``mask_from_ids`` (repro.cluster.bitset) folds ids into a bitmask by
#: OR -- commutative, so hash order cannot reach the result.
_ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "sum", "len", "min", "max", "any", "all", "set", "frozenset",
     "mask_from_ids"}
)

#: wrappers that materialise iteration order into an ordered value
_ORDER_MATERIALISING_CALLS = frozenset({"list", "tuple", "enumerate", "reversed"})

#: transparent wrappers to skip when walking to the real consumer
_TRANSPARENT = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp, ast.Starred)


class UnorderedIterationChecker(Checker):
    """RPR001: iteration order of a hash-ordered collection can steer a
    scheduling decision.

    The exact bug shape of the PR-2 ``_try_resume`` fix: walking a
    ``set``/``frozenset`` (or a dict view whose insertion order derives
    from one) inside ``cluster/``, ``core/``, ``schedulers/`` or
    ``sim/`` without an enclosing ``sorted(...)``.  Order-insensitive
    folds (``sum``, ``len``, ``any``, ``min``/``max``, rebuilding a
    ``set``, ``mask_from_ids``'s commutative OR) pass; a plain ``for``,
    a list/dict comprehension, ``list()`` / ``tuple()`` /
    ``enumerate()`` do not.

    The bitmask kernel's mask-iteration helpers
    (:func:`repro.cluster.bitset.iter_bits` / ``mask_to_ids``) are the
    sanctioned replacement inside the patrolled paths: they walk an
    *integer* lowest-bit-first, so their order is ascending by
    construction and never touches hash order.  The rule does not flag
    them because they are not set-typed -- iterate masks, not sets.
    """

    rule: ClassVar[str] = "RPR001"
    title: ClassVar[str] = "unordered iteration in a scheduling-decision path"
    decision_paths_only: ClassVar[bool] = True

    # -- classification -------------------------------------------------
    def _unordered_reason(self, node: ast.expr) -> str | None:
        ctx = self.ctx
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
                return f"{fn.id}(...)"
            if isinstance(fn, ast.Attribute):
                if fn.attr in ("keys", "values", "items") and not node.args:
                    return (
                        f".{fn.attr}() (dict view -- order is construction "
                        "order, which hash-ordered inputs can scramble)"
                    )
                if fn.attr in (
                    "union",
                    "intersection",
                    "difference",
                    "symmetric_difference",
                ) and ctx.is_set_expr(fn.value):
                    return f"a set .{fn.attr}(...)"
                if fn.attr in ctx.set_returning or fn.attr.endswith("_set"):
                    return f"{fn.attr}() (returns a set)"
            if isinstance(fn, ast.Name) and fn.id in ctx.set_returning:
                return f"{fn.id}() (returns a set)"
            return None
        if isinstance(node, ast.Attribute) and ctx.is_set_expr(node):
            return f"self.{node.attr} (set-typed attribute)"
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            if ctx.is_set_expr(node.left) or ctx.is_set_expr(node.right):
                return "a set-algebra expression"
            return None
        if isinstance(node, ast.Name) and self._local_set_name(node):
            return f"{node.id} (set-typed local)"
        return None

    def _local_set_name(self, node: ast.Name) -> bool:
        """Name assigned a set expression / annotation in its function."""
        func = None
        for parent in self.ctx.parent_chain(node):
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = parent
                break
        if func is None:
            return False
        for sub in ast.walk(func):
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                if sub.target.id == node.id and self.ctx._is_set_annotation(
                    sub.annotation
                ):
                    return True
            elif isinstance(sub, ast.Assign) and sub.value is not node:
                for target in sub.targets:
                    if isinstance(target, ast.Name) and target.id == node.id:
                        if self.ctx.is_set_expr(sub.value):
                            return True
            elif isinstance(sub, ast.arg) and sub.arg == node.id:
                if sub.annotation is not None and self.ctx._is_set_annotation(
                    sub.annotation
                ):
                    return True
        return False

    # -- consumer analysis ----------------------------------------------
    def _sanctioned(self, node: ast.AST) -> bool:
        """Whether the nearest real consumer is order-insensitive."""
        cur = node
        for parent in self.ctx.parent_chain(node):
            if isinstance(parent, _TRANSPARENT):
                cur = parent
                continue
            if isinstance(parent, ast.Call):
                fn = parent.func
                if cur in parent.args or any(
                    kw.value is cur for kw in parent.keywords
                ):
                    if isinstance(fn, ast.Name) and fn.id in _ORDER_INSENSITIVE_CALLS:
                        return True
                cur = parent
                continue
            if isinstance(parent, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops
            ):
                return True  # membership test: order-free
            return False
        return False

    def _check_iter_source(self, consumer: ast.AST, source: ast.expr) -> None:
        reason = self._unordered_reason(source)
        if reason is None:
            return
        if self._sanctioned(consumer):
            return
        self.flag(
            source,
            f"iterating {reason} in a scheduling-decision path; wrap in "
            "sorted(...) with a total key (hash order is not part of the "
            "schedule)",
        )

    # -- visitors --------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iter_source(node, node.iter)
        self.generic_visit(node)

    def _visit_comp(
        self, node: ast.GeneratorExp | ast.ListComp | ast.DictComp
    ) -> None:
        for gen in node.generators:
            self._check_iter_source(node, gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_DictComp = _visit_comp

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        # a genexp is as (in)nocent as whatever consumes it
        if not self._sanctioned(node):
            for gen in node.generators:
                self._check_iter_source(node, gen.iter)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # output is a set: iteration order cannot be observed through it
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if (
            isinstance(fn, ast.Name)
            and fn.id in _ORDER_MATERIALISING_CALLS
            and node.args
        ):
            reason = self._unordered_reason(node.args[0])
            if reason is not None and not self._sanctioned(node):
                self.flag(
                    node,
                    f"{fn.id}() materialises the hash order of {reason}; "
                    "use sorted(...) with a total key instead",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# RPR002 -- nondeterminism sources
# ----------------------------------------------------------------------

_WALLCLOCK = {
    ("time", "time"): "time.time()",
    ("time", "time_ns"): "time.time_ns()",
    ("time", "monotonic"): "time.monotonic()",
    ("time", "perf_counter"): "time.perf_counter()",
    ("os", "urandom"): "os.urandom()",
    ("uuid", "uuid1"): "uuid.uuid1()",
    ("uuid", "uuid4"): "uuid.uuid4()",
    ("datetime", "now"): "datetime.now()",
    ("datetime", "utcnow"): "datetime.utcnow()",
    ("datetime", "today"): "datetime.today()",
    ("date", "today"): "date.today()",
}

#: numpy.random names that are fine (seedable generator construction)
_NUMPY_RANDOM_OK = frozenset({"Generator", "SeedSequence", "BitGenerator", "PCG64"})


class NondeterminismSourceChecker(Checker):
    """RPR002: wall clocks and process-global / unseeded randomness.

    Simulation time comes from the event engine and randomness from an
    explicitly seeded ``numpy.random.Generator`` injected by the
    caller; anything else (``time.time()``, ``datetime.now()``,
    ``os.urandom``, the global ``random`` module, legacy
    ``numpy.random.*`` functions, unseeded ``default_rng()``) makes a
    run irreproducible and its cache fingerprint a lie.
    """

    rule: ClassVar[str] = "RPR002"
    title: ClassVar[str] = "nondeterminism source"

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if isinstance(fn, ast.Attribute):
            self._check_attribute_call(node, fn)
        elif isinstance(fn, ast.Name):
            origin = self.ctx.from_imports.get(fn.id)
            if origin is not None:
                mod, _, attr = origin.rpartition(".")
                if (mod.split(".")[-1], attr) in _WALLCLOCK or mod == "random":
                    self.flag(
                        node,
                        f"call to {origin} -- simulation time/randomness must "
                        "come from the engine or an injected seeded Generator",
                    )
                elif origin == "numpy.random.default_rng" and not (
                    node.args or node.keywords
                ):
                    self.flag(node, "default_rng() without a seed is irreproducible")
        self.generic_visit(node)

    def _check_attribute_call(self, node: ast.Call, fn: ast.Attribute) -> None:
        base = fn.value
        # random.<anything>() on the random *module* (process-global RNG);
        # constructing a *seeded* instance -- random.Random(seed) -- is the
        # sanctioned pattern and passes, an argless Random() does not
        if isinstance(base, ast.Name) and self.ctx.module_aliases.get(base.id) == "random":
            if fn.attr in ("Random", "SystemRandom"):
                if fn.attr == "SystemRandom" or not (node.args or node.keywords):
                    self.flag(
                        node,
                        f"random.{fn.attr}() without an explicit seed is "
                        "irreproducible; pass a seed derived from the run config",
                    )
                return
            self.flag(
                node,
                f"random.{fn.attr}() uses the process-global RNG; inject a "
                "seeded numpy Generator instead",
            )
            return
        # wall clocks: time.time(), datetime.now(), os.urandom(), ...
        if isinstance(base, ast.Name):
            mod = self.ctx.module_aliases.get(base.id, None)
            imported = self.ctx.from_imports.get(base.id, "")
            leaf = (mod or imported.rsplit(".", 1)[-1] or base.id).split(".")[-1]
            if mod is not None or imported:
                if (leaf, fn.attr) in _WALLCLOCK:
                    self.flag(
                        node,
                        f"{_WALLCLOCK[(leaf, fn.attr)]} is wall-clock/entropy "
                        "state; simulation time comes from the engine",
                    )
                    return
        # numpy.random.<fn>() legacy global functions / unseeded default_rng
        if self.ctx.resolves_to_module(base, "numpy.random"):
            if fn.attr == "default_rng":
                if not (node.args or node.keywords):
                    self.flag(node, "default_rng() without a seed is irreproducible")
            elif fn.attr not in _NUMPY_RANDOM_OK:
                self.flag(
                    node,
                    f"numpy.random.{fn.attr}() uses the legacy global RNG; "
                    "use an injected seeded Generator",
                )


# ----------------------------------------------------------------------
# RPR003 -- exact float equality on time-like expressions
# ----------------------------------------------------------------------

_TIME_NAMES = frozenset(
    {
        "t",
        "t0",
        "t1",
        "now",
        "time",
        "makespan",
        "anchor",
        "deadline",
        "xfactor",
        "priority",
        "estimate",
        "turnaround",
        "slowdown",
        "expected_end",
        "last_arrival",
        "overhead",
    }
)

_TIME_SUFFIXES = (
    "_time",
    "_end",
    "_until",
    "_at",
    "_seconds",
    "_mark",
    "_priority",
    "_factor",
    "_interval",
    "_estimate",
    "_overhead",
    "_xfactor",
)


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    if isinstance(node, ast.Subscript):
        sl = node.slice
        if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
            return sl.value
    return None


def _is_timelike(node: ast.expr) -> bool:
    name = _terminal_name(node)
    if name is None:
        if isinstance(node, ast.BinOp):
            return _is_timelike(node.left) or _is_timelike(node.right)
        return False
    return name in _TIME_NAMES or name.endswith(_TIME_SUFFIXES)


class FloatTimeEqualityChecker(Checker):
    """RPR003: ``==`` / ``!=`` between event-time or xfactor expressions.

    Event times and xfactors are accumulated floats; after a few
    suspend/resume cycles two mathematically equal times differ by an
    ulp and an exact comparison silently flips a decision.  Compare
    with an explicit epsilon, integer ticks, or an ordering operator.
    ``is None`` checks and comparisons against non-time values pass.
    """

    rule: ClassVar[str] = "RPR003"
    title: ClassVar[str] = "exact float equality between time-like values"

    def visit_Compare(self, node: ast.Compare) -> None:
        sides = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = sides[i], sides[i + 1]
            if self._none_or_sentinel(left) or self._none_or_sentinel(right):
                continue
            if _is_timelike(left) or _is_timelike(right):
                self.flag(
                    node,
                    "exact ==/!= between time-like float expressions; use an "
                    "epsilon, integer ticks, or an ordering comparison",
                )
                break
        self.generic_visit(node)

    @staticmethod
    def _none_or_sentinel(node: ast.expr) -> bool:
        # `x == None` is its own (ruff E711) problem; string/bool
        # constants mean the name heuristic picked up a non-time value
        return isinstance(node, ast.Constant) and not isinstance(
            node.value, (int, float)
        )


# ----------------------------------------------------------------------
# RPR005 -- trace/cache purity
# ----------------------------------------------------------------------

_JSON_SAFE_CALLS = frozenset(
    {"int", "float", "str", "bool", "list", "dict", "sorted", "tuple", "len", "round",
     "min", "max", "abs"}
)


class CachePurityChecker(Checker):
    """RPR005: cached/parallel cells must be JSON-stable and picklable.

    Three concrete shapes:

    * a ``config()`` override returning values the cache fingerprint
      cannot stably serialise (lambdas, sets -- iteration order leaks
      into the JSON -- or reaches into ``self.driver`` process state);
      the returned dict literal must also carry the ``"scheme"`` key
      the registry rebuilds from;
    * submitting a ``lambda`` or nested function to a process pool
      (unpicklable, and closing over process-local state even when a
      fork makes it *appear* to work);
    * a cache **read** path (``get`` / ``__contains__`` / ``__len__`` of
      a ``*Cache`` class, including the ``self._helper()`` methods they
      call) mutating the filesystem -- a lookup that deletes or rewrites
      entries turns concurrent readers into writers and destroys the
      evidence of corruption.  The one sanctioned mutation is the
      quarantine rename: ``rename``/``replace`` whose call carries a
      ``".corrupt"`` string constant moves an unreadable entry aside
      instead of destroying it.
    """

    rule: ClassVar[str] = "RPR005"
    title: ClassVar[str] = "trace/cache purity violation"

    #: cache methods that must behave as reads
    _READ_METHODS: ClassVar[frozenset[str]] = frozenset(
        {"get", "__contains__", "__len__"}
    )
    #: attribute calls that mutate the filesystem (Path / os / shutil)
    _FS_MUTATORS: ClassVar[frozenset[str]] = frozenset(
        {"unlink", "remove", "rmtree", "rename", "replace", "rmdir",
         "write_bytes", "write_text", "touch"}
    )
    #: mutators the quarantine sanction can bless
    _QUARANTINE_OK: ClassVar[frozenset[str]] = frozenset({"rename", "replace"})

    # -- cache read-path mutations ---------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name.endswith("Cache"):
            self._check_cache_read_paths(node)
        self.generic_visit(node)

    def _check_cache_read_paths(self, cls: ast.ClassDef) -> None:
        methods = _defs_in(cls.body)
        roots = [methods[name] for name in sorted(self._READ_METHODS) if name in methods]
        # read-path helpers (self._helper()) are part of the read path;
        # module-level functions are not followed
        for method in _same_file_closure(roots, methods, {}):
            for sub in ast.walk(method):
                if not isinstance(sub, ast.Call):
                    continue
                fn = sub.func
                if not isinstance(fn, ast.Attribute):
                    continue
                if _same_file_callee(sub, methods, {}) is not None:
                    continue  # a helper: scanned in its own right
                if fn.attr in self._FS_MUTATORS:
                    if fn.attr in self._QUARANTINE_OK and _names_corrupt(sub):
                        continue
                    self.flag(
                        sub,
                        f".{fn.attr}() on the cache read path (via "
                        f"{cls.name}.{method.name}); reads must not mutate the store "
                        '-- quarantine unreadable entries (rename to ".corrupt") '
                        "instead of deleting or rewriting them",
                    )

    # -- config() returns ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name == "config" and self._in_scheduler_class(node):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Return) and sub.value is not None:
                    self._check_config_return(sub.value)
        self.generic_visit(node)

    def _in_scheduler_class(self, node: ast.FunctionDef) -> bool:
        for parent in self.ctx.parent_chain(node):
            if isinstance(parent, ast.ClassDef):
                if parent.name.endswith("Scheduler"):
                    return True
                return any(
                    isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "scheme_id"
                        for t in stmt.targets
                    )
                    for stmt in parent.body
                )
        return False

    def _check_config_return(self, value: ast.expr) -> None:
        if isinstance(value, ast.Dict):
            keys = [
                k.value
                for k in value.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            ]
            has_splat = any(k is None for k in value.keys)
            if "scheme" not in keys and not has_splat:
                self.flag(
                    value,
                    'config() dict lacks the "scheme" key the registry and '
                    "cache fingerprint key on",
                )
            for v in value.values:
                self._check_config_value(v)
        else:
            for sub in ast.walk(value):
                if isinstance(sub, ast.expr):
                    self._check_config_value(sub, nested=True)

    def _check_config_value(self, v: ast.expr, nested: bool = False) -> None:
        targets = ast.walk(v) if not nested else [v]
        for sub in targets:
            if isinstance(sub, ast.Lambda):
                self.flag(sub, "config() value contains a lambda (not JSON-stable)")
            elif isinstance(sub, (ast.Set, ast.SetComp)):
                self.flag(
                    sub,
                    "config() value contains a set (hash order leaks into the "
                    "cache fingerprint); use sorted(...)",
                )
            elif isinstance(sub, ast.Call):
                fn = sub.func
                if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
                    self.flag(
                        sub,
                        "config() value builds a set (not JSON-stable); use "
                        "sorted(...)",
                    )
            elif isinstance(sub, ast.Attribute):
                chain = _attr_chain(sub)
                if "driver" in chain[1:]:
                    self.flag(
                        sub,
                        "config() reads self.driver.* -- process-local "
                        "simulation state must not reach the cache fingerprint",
                    )

    # -- pool submissions -------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in (
            "submit",
            "apply_async",
            "map",
            "map_async",
            "imap",
            "imap_unordered",
        ):
            if node.args:
                task = node.args[0]
                if isinstance(task, ast.Lambda):
                    self.flag(
                        task,
                        f"lambda passed to .{fn.attr}() -- unpicklable and "
                        "closes over process-local state",
                    )
                elif isinstance(task, ast.Name) and self._is_nested_function(
                    task.id, node
                ):
                    self.flag(
                        task,
                        f"nested function {task.id!r} passed to .{fn.attr}() "
                        "-- worker processes cannot unpickle it; hoist it to "
                        "module level",
                    )
        self.generic_visit(node)

    def _is_nested_function(self, name: str, site: ast.AST) -> bool:
        enclosing = [
            p
            for p in self.ctx.parent_chain(site)
            if isinstance(p, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for func in enclosing:
            for stmt in ast.walk(func):
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt is not func
                    and stmt.name == name
                ):
                    return True
        return False


# ----------------------------------------------------------------------
# RPR006 -- mutable defaults / shared class-level state
# ----------------------------------------------------------------------

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
)


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None
        )
        return name in _MUTABLE_CALLS
    return False


class MutableSharedStateChecker(Checker):
    """RPR006: mutable defaults and class-level mutable containers.

    A mutable default argument is shared across *calls*; a class-level
    mutable attribute is shared across *instances* -- for schedulers,
    that is state bleeding between grid cells (the exact hazard the
    registry's rebuild-per-worker contract exists to prevent).
    Dataclass ``field(default_factory=...)`` and ``__slots__`` are, of
    course, fine.
    """

    rule: ClassVar[str] = "RPR006"
    title: ClassVar[str] = "mutable default / shared class-level state"

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        for default in (
            *args.defaults,
            *(d for d in args.kw_defaults if d is not None),
        ):
            if _is_mutable_literal(default):
                self.flag(
                    default,
                    f"mutable default argument in {node.name}() is shared "
                    "across calls; default to None and create inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            value: ast.expr | None = None
            name: str | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                if isinstance(stmt.targets[0], ast.Name):
                    name = stmt.targets[0].id
                    value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                value = stmt.value
            if name is None or value is None or name == "__slots__":
                continue
            if isinstance(value, ast.Call):
                fn = value.func
                fn_name = fn.id if isinstance(fn, ast.Name) else (
                    fn.attr if isinstance(fn, ast.Attribute) else None
                )
                if fn_name == "field":
                    continue  # dataclass field(default_factory=...) is the fix
            if _is_mutable_literal(value):
                self.flag(
                    value,
                    f"class-level mutable attribute {name!r} is shared across "
                    "all instances; initialise it in __init__ (or use a "
                    "dataclass default_factory)",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# RPR008 -- broad handlers that swallow faults untraced
# ----------------------------------------------------------------------


def _broad_kind(handler: ast.ExceptHandler) -> str | None:
    """``"bare"``, ``"Exception"`` or ``"BaseException"``; None if narrow."""
    t = handler.type
    if t is None:
        return "bare"
    for e in t.elts if isinstance(t, ast.Tuple) else [t]:
        name = e.id if isinstance(e, ast.Name) else (
            e.attr if isinstance(e, ast.Attribute) else None
        )
        if name in ("Exception", "BaseException"):
            return name
    return None


def _records_fault(node: ast.AST) -> bool:
    """Whether *node* re-raises, bumps a ``*counter*`` attribute with
    ``+=``, or quarantines (a ``*quarantine*`` call, or a rename/replace
    to ``.corrupt``) anywhere in its subtree."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise):
            return True
        if (
            isinstance(sub, ast.AugAssign)
            and isinstance(sub.op, ast.Add)
            and isinstance(sub.target, ast.Attribute)
            and any("counter" in part for part in _attr_chain(sub.target))
        ):
            return True
        if isinstance(sub, ast.Call):
            fn = sub.func
            name = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None
            )
            if name is not None and "quarantine" in name:
                return True
            if name in ("rename", "replace") and _names_corrupt(sub):
                return True
    return False


class BroadExceptChecker(Checker):
    """RPR008: a broad ``except`` that can swallow a fault untraced.

    ``except Exception`` / ``except BaseException`` / bare ``except:``
    must re-raise, increment a ``*counter*`` attribute, or quarantine
    -- so a degraded run stays observable in ``GridCounters`` instead
    of silently returning a different result.  The sanction may sit in
    the handler body or in any same-file function or same-class method
    the handler calls, followed transitively (the retry-loop shape
    where ``_charge_failed_attempt`` raises on the last attempt).  A
    helper imported from another module is not followed: the handler
    is flagged, and narrowing it or moving the bookkeeping next to it
    is the fix.
    """

    rule: ClassVar[str] = "RPR008"
    title: ClassVar[str] = "broad except handler can swallow faults untraced"

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._functions = _defs_in(ctx.tree.body)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        kind = _broad_kind(node)
        if kind is not None and not self._handled(node):
            what = "bare `except:`" if kind == "bare" else f"broad `except {kind}`"
            self.flag(
                node,
                f"{what} swallows faults without re-raise, quarantine, or a "
                "counters increment (directly or via a same-file function or "
                "method it calls); narrow the exception or record the fault "
                "so degraded runs stay observable",
            )
        self.generic_visit(node)

    def _handled(self, handler: ast.ExceptHandler) -> bool:
        cls = next(
            (p for p in self.ctx.parent_chain(handler) if isinstance(p, ast.ClassDef)),
            None,
        )
        methods = _defs_in(cls.body) if cls is not None else {}
        return any(
            _records_fault(node)
            for node in _same_file_closure([handler], methods, self._functions)
        )


#: the per-file rule set, in rule-id order (RPR004 is project-level)
PER_FILE_CHECKERS: tuple[type[Checker], ...] = (
    UnorderedIterationChecker,
    NondeterminismSourceChecker,
    FloatTimeEqualityChecker,
    CachePurityChecker,
    MutableSharedStateChecker,
    BroadExceptChecker,
)
