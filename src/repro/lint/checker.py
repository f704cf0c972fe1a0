"""The per-file checker framework: visitor base and file context.

:class:`FileContext` is parsed once per file and shared by every
checker run over it: source lines, an AST with parent links, dotted
scope names, the file's import aliases, and a deliberately *shallow*
set-type inference (annotations, literal assignments, set-algebra
operators, module-local return types) -- enough to recognise the bug
shapes the rules target without becoming a type checker.  Where the
inference cannot see, the rules stay silent: a determinism linter must
be high-precision or its suppressions rot into noise.

:class:`Checker` is the :class:`ast.NodeVisitor` base concrete rules
subclass; :func:`checker_applies` gates path-scoped rules (RPR001 only
patrols scheduling-decision code under ``core/``, ``schedulers/``,
``sim/``).
"""

from __future__ import annotations

import ast
import re
from typing import ClassVar, Iterator

from repro.lint.findings import Finding

#: matches decision-path directories at any depth of the relpath, so the
#: same rule scoping works for ``src/repro`` roots and test fixtures.
#: ``cluster/`` joined the patrol in PR 4: allocation policy choices are
#: schedule-steering, and the bitmask kernel's mask-iteration helpers
#: (``iter_bits``/``mask_to_ids``, ascending-by-construction) are the
#: sanctioned way to walk processor sets there.
DECISION_PATH_RE = re.compile(r"(^|/)(cluster|core|schedulers|sim)/")


class FileContext:
    """Everything the checkers need to know about one parsed file."""

    def __init__(self, relpath: str, source: str, tree: ast.Module) -> None:
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: child node -> parent node, for consumer/scope lookups
        self.parents: dict[ast.AST, ast.AST] = {}
        #: node -> dotted scope name ("Cls.meth"), computed in one walk
        self._scopes: dict[ast.AST, str] = {}
        #: local alias -> canonical module name ("np" -> "numpy")
        self.module_aliases: dict[str, str] = {}
        #: local name -> "module.attr" for from-imports ("urandom" -> "os.urandom")
        self.from_imports: dict[str, str] = {}
        #: names of set-typed attributes of self ("_running", ...)
        self.set_self_attrs: set[str] = set()
        #: module-local function/method names whose return type is a set
        self.set_returning: set[str] = set()
        self._index()

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _index(self) -> None:
        stack: list[str] = []

        def walk(node: ast.AST) -> None:
            is_scope = isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            if is_scope:
                stack.append(node.name)  # type: ignore[attr-defined]
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
                self._scopes[child] = ".".join(stack) if stack else "<module>"
                walk(child)
            if is_scope:
                stack.pop()

        walk(self.tree)

        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, ast.AnnAssign) and self._is_set_annotation(
                node.annotation
            ):
                target = node.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self.set_self_attrs.add(target.attr)
            elif isinstance(node, ast.Assign):
                if self.is_set_expr(node.value, shallow=True):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            self.set_self_attrs.add(target.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.returns is not None and self._is_set_annotation(node.returns):
                    self.set_returning.add(node.name)

    @staticmethod
    def _is_set_annotation(annotation: ast.expr) -> bool:
        """``set[...]`` / ``frozenset[...]`` / ``Set[...]`` annotations."""
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotation: cheap textual check
            return bool(re.match(r"\s*(frozen)?[sS]et\b", node.value))
        return name in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def scope_of(self, node: ast.AST) -> str:
        return self._scopes.get(node, "<module>")

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def parent_chain(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def resolves_to_module(self, node: ast.expr, module: str) -> bool:
        """Whether *node* names *module* through this file's imports."""
        if isinstance(node, ast.Name):
            return self.module_aliases.get(node.id) == module
        if isinstance(node, ast.Attribute):
            # numpy.random reached as ``np.random`` or ``numpy.random``
            parts: list[str] = []
            cur: ast.expr = node
            while isinstance(cur, ast.Attribute):
                parts.append(cur.attr)
                cur = cur.value
            if isinstance(cur, ast.Name):
                root = self.module_aliases.get(cur.id, cur.id)
                dotted = ".".join([root, *reversed(parts)])
                return dotted == module
        return False

    # ------------------------------------------------------------------
    # shallow set-type inference
    # ------------------------------------------------------------------
    def is_set_expr(self, node: ast.expr, *, shallow: bool = False) -> bool:
        """Whether *node* evaluates to a set/frozenset, as far as the
        shallow inference can see (annotations, literals, set algebra,
        module-local returns).  False negatives are fine; false
        positives are not.
        """
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
                return True
            if not shallow and isinstance(fn, ast.Attribute):
                # set-producing methods: s.union(...), s.copy() on a set,
                # and module-local functions annotated -> set[...]
                if fn.attr in ("union", "intersection", "difference", "symmetric_difference"):
                    return self.is_set_expr(fn.value)
                if fn.attr in self.set_returning:
                    return True
            if not shallow and isinstance(fn, ast.Name) and fn.id in self.set_returning:
                return True
            return False
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.set_self_attrs
            ):
                return True
            return False
        if not shallow and isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False


class Checker(ast.NodeVisitor):
    """Base class for per-file rules.

    Subclasses set :attr:`rule` / :attr:`title`, optionally restrict
    themselves with :attr:`decision_paths_only`, and call
    :meth:`flag` from their ``visit_*`` methods.  Findings are plain
    data (:class:`repro.lint.findings.Finding`); suppressions are
    applied later in the engine, so checkers never need to know about
    them.
    """

    rule: ClassVar[str] = "RPR999"
    title: ClassVar[str] = ""
    #: restrict to core/ | schedulers/ | sim/ (RPR001's scope)
    decision_paths_only: ClassVar[bool] = False

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, relpath: str) -> bool:
        if cls.decision_paths_only:
            return bool(DECISION_PATH_RE.search(relpath.replace("\\", "/")))
        return True

    def flag(self, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        self.findings.append(
            Finding(
                rule=self.rule,
                path=self.ctx.relpath,
                line=lineno,
                col=col,
                message=message,
                snippet=self.ctx.line_text(lineno),
                symbol=self.ctx.scope_of(node),
            )
        )

    def run(self) -> list[Finding]:
        self.visit(self.ctx.tree)
        return self.findings
