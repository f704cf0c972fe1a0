"""RPR004: cross-file protocol-conformance checks.

Where RPR001-003/005/006 look at one file at a time, RPR004 checks the
*agreements between* modules that the test suite can only check
dynamically (and therefore only for the event sequences a given
workload happens to produce):

* **Scheduler contract** -- every concrete :class:`Scheduler` subclass
  overrides ``scheme_id`` (in the class body, or -- for a composing
  kernel like ``PolicyKernel`` -- by assigning ``self.scheme_id`` in
  ``__init__``), keeps registry-compatible ``config(self)`` /
  ``describe(self)`` signatures, and -- if its ``__init__`` takes
  behavioural knobs -- overrides ``config()`` so those knobs reach the
  cache fingerprint and the worker-side rebuild (the silent-stale-cache
  bug class).  That every scheme constructor sits in the scheme table
  of ``schedulers/registry.py`` and takes exactly its config keys is a
  tier-1 test, not a lint check.
* **Policy contract** -- every concrete policy-axis class
  (``QueuePolicy`` / ``ReservationPolicy`` / ``BackfillPolicy`` /
  ``PreemptionPolicy`` descendants) whose ``__init__`` takes knobs must
  override ``config_fragment()`` so the knobs reach
  ``PolicyKernel.config()`` -- the same stale-cache bug class, one
  composition layer down -- and ``config_fragment`` must stay callable
  with no arguments.
* **Event-vocabulary lockstep** -- the :class:`Tracer` must emit every
  type in ``EVENT_TYPES`` (no orphan vocabulary), and the replay
  (``obs/summary.py``), which every count and state of a run is folded
  from, must handle the full vocabulary.
* **Call-site conformance** -- ``tracer.<method>(...)`` sites in
  ``core/`` / ``schedulers/`` / ``sim/`` must name real Tracer methods,
  and literal ``decision(..., "<action>", ...)`` actions must come from
  ``DECISION_ACTIONS``.
* **Recorder protocol** -- anything that defines ``record(event)``
  must also provide ``close()`` and the ``enabled`` flag the driver's
  zero-overhead gate reads.

Checks degrade gracefully: each sub-check only runs when the files it
needs are part of the analysed set, so fixture trees exercise them in
isolation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.checker import DECISION_PATH_RE, FileContext
from repro.lint.findings import Finding

RULE = "RPR004"

#: private plumbing on Tracer that call sites must not use directly
_PRIVATE_PREFIX = "_"


@dataclass
class _ClassInfo:
    name: str
    relpath: str
    lineno: int
    bases: list[str]
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    assigns: dict[str, ast.expr] = field(default_factory=dict)
    is_abstract: bool = False


def _base_names(node: ast.ClassDef) -> list[str]:
    out: list[str] = []
    for b in node.bases:
        if isinstance(b, ast.Name):
            out.append(b.id)
        elif isinstance(b, ast.Attribute):
            out.append(b.attr)
    return out


def _collect_classes(contexts: dict[str, FileContext]) -> dict[str, _ClassInfo]:
    classes: dict[str, _ClassInfo] = {}
    for relpath in sorted(contexts):
        ctx = contexts[relpath]
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _ClassInfo(
                name=node.name,
                relpath=relpath,
                lineno=node.lineno,
                bases=_base_names(node),
            )
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    info.methods[stmt.name] = stmt
                    for deco in stmt.decorator_list:
                        dname = (
                            deco.id
                            if isinstance(deco, ast.Name)
                            else deco.attr
                            if isinstance(deco, ast.Attribute)
                            else None
                        )
                        if dname in ("abstractmethod", "abstractproperty"):
                            info.is_abstract = True
                elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    t = stmt.targets[0]
                    if isinstance(t, ast.Name):
                        info.assigns[t.id] = stmt.value
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    if stmt.value is not None:
                        info.assigns[stmt.target.id] = stmt.value
            if "ABC" in info.bases or "Protocol" in info.bases:
                info.is_abstract = True
            classes[node.name] = classes.get(node.name) or info
    return classes


def _descends_from(
    classes: dict[str, _ClassInfo], name: str, root: str, _seen: frozenset[str] = frozenset()
) -> bool:
    if name == root:
        return True
    info = classes.get(name)
    if info is None or name in _seen:
        return False
    return any(
        _descends_from(classes, b, root, _seen | {name}) for b in info.bases
    )


def _inherited_assign(
    classes: dict[str, _ClassInfo], cls_name: str, attr: str, root_cls: str
) -> ast.expr | None:
    """Class-body assignment of *attr* on *cls_name* or a proper ancestor
    below *root_cls* (the abstract root's default does not count)."""
    info = classes.get(cls_name)
    if info is None or cls_name == root_cls:
        return None
    if attr in info.assigns:
        return info.assigns[attr]
    for b in info.bases:
        found = _inherited_assign(classes, b, attr, root_cls)
        if found is not None:
            return found
    return None


def _finding(relpath: str, node: ast.AST | None, ctx: FileContext | None, msg: str,
             symbol: str = "<module>") -> Finding:
    lineno = getattr(node, "lineno", 0) if node is not None else 0
    col = getattr(node, "col_offset", 0) if node is not None else 0
    return Finding(
        rule=RULE,
        path=relpath,
        line=lineno,
        col=col,
        message=msg,
        snippet=ctx.line_text(lineno) if ctx is not None else "",
        symbol=ctx.scope_of(node) if ctx is not None and node is not None else symbol,
    )


# ----------------------------------------------------------------------
# scheduler contract
# ----------------------------------------------------------------------
def _check_schedulers(
    contexts: dict[str, FileContext], classes: dict[str, _ClassInfo]
) -> list[Finding]:
    findings: list[Finding] = []
    for name in sorted(classes):
        info = classes[name]
        if name == "Scheduler" or not _descends_from(classes, name, "Scheduler"):
            continue
        if info.is_abstract:
            continue
        ctx = contexts[info.relpath]
        node = next(
            (
                n
                for n in ast.walk(ctx.tree)
                if isinstance(n, ast.ClassDef) and n.name == name
            ),
            None,
        )
        # scheme_id must be overridden somewhere below the abstract base
        # (class body, or self.scheme_id assigned by a composing
        # __init__ as PolicyKernel does)
        if _inherited_assign(
            classes, name, "scheme_id", root_cls="Scheduler"
        ) is None and not _self_attr_in_inits(
            classes, name, "scheme_id", root_cls="Scheduler"
        ):
            findings.append(
                _finding(
                    info.relpath,
                    node,
                    ctx,
                    f"Scheduler subclass {name} never overrides scheme_id; the "
                    "registry and cache fingerprint cannot identify it",
                )
            )
        # behavioural knobs in __init__ demand a config() override
        init = info.methods.get("__init__")
        if init is not None:
            extra = [a.arg for a in (*init.args.args[1:], *init.args.kwonlyargs)]
            if extra and _inherited_assign_method(
                classes, name, "config", root_cls="Scheduler"
            ) is None:
                findings.append(
                    _finding(
                        info.relpath,
                        init,
                        ctx,
                        f"{name}.__init__ takes behavioural knobs "
                        f"({', '.join(extra)}) but no config() override "
                        "captures them -- cached results would go stale "
                        "silently",
                    )
                )
        # signature conformance: the registry, cache and report layer all
        # call config()/describe() with no arguments
        for meth in ("config", "describe"):
            fn = info.methods.get(meth)
            if fn is None:
                continue
            n_required = (
                len([a for a in fn.args.args if a.arg != "self"])
                - len(fn.args.defaults)
                + len([d for d in fn.args.kw_defaults if d is None])
            )
            if n_required > 0:
                findings.append(
                    _finding(
                        info.relpath,
                        fn,
                        ctx,
                        f"{name}.{meth}() takes required parameters; the "
                        "registry and report layer call it as "
                        f"{meth}(self) only",
                    )
                )
    return findings


def _self_attr_in_inits(
    classes: dict[str, _ClassInfo],
    cls_name: str,
    attr: str,
    root_cls: str,
    _seen: frozenset[str] = frozenset(),
) -> bool:
    """True when *cls_name* or an ancestor below *root_cls* assigns
    ``self.<attr>`` inside its ``__init__`` (dynamic override)."""
    info = classes.get(cls_name)
    if info is None or cls_name == root_cls or cls_name in _seen:
        return False
    init = info.methods.get("__init__")
    if init is not None and any(
        isinstance(n, ast.Assign)
        and any(
            isinstance(t, ast.Attribute)
            and t.attr == attr
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
            for t in n.targets
        )
        for n in ast.walk(init)
    ):
        return True
    return any(
        _self_attr_in_inits(classes, b, attr, root_cls, _seen | {cls_name})
        for b in info.bases
    )


def _inherited_assign_method(
    classes: dict[str, _ClassInfo], cls_name: str, meth: str, root_cls: str
) -> ast.FunctionDef | None:
    info = classes.get(cls_name)
    if info is None or cls_name == root_cls:
        return None
    if meth in info.methods:
        return info.methods[meth]
    for b in info.bases:
        found = _inherited_assign_method(classes, b, meth, root_cls)
        if found is not None:
            return found
    return None


# ----------------------------------------------------------------------
# policy contract (the composition layer under PolicyKernel)
# ----------------------------------------------------------------------
#: the four policy-axis roots of repro/schedulers/policy.py
_POLICY_ROOTS = ("QueuePolicy", "ReservationPolicy", "BackfillPolicy", "PreemptionPolicy")


def _check_policies(
    contexts: dict[str, FileContext], classes: dict[str, _ClassInfo]
) -> list[Finding]:
    """Concrete policy classes must surface their knobs in config_fragment.

    ``PolicyKernel.config()`` is assembled purely from the axes'
    ``config_fragment()`` dicts, so a policy knob that never reaches a
    fragment is invisible to the result cache and the worker-side
    rebuild -- exactly the scheduler ``config()`` bug class, one
    composition layer down.
    """
    findings: list[Finding] = []
    for name in sorted(classes):
        info = classes[name]
        if name == "Policy" or name in _POLICY_ROOTS:
            continue
        if not any(_descends_from(classes, name, root) for root in _POLICY_ROOTS):
            continue
        if info.is_abstract:
            continue
        ctx = contexts[info.relpath]
        init = info.methods.get("__init__")
        if init is not None:
            extra = [a.arg for a in (*init.args.args[1:], *init.args.kwonlyargs)]
            if extra and _inherited_assign_method(
                classes, name, "config_fragment", root_cls="Policy"
            ) is None:
                findings.append(
                    _finding(
                        info.relpath,
                        init,
                        ctx,
                        f"policy {name}.__init__ takes knobs "
                        f"({', '.join(extra)}) but no config_fragment() "
                        "override surfaces them -- PolicyKernel.config() "
                        "and the cache fingerprint would miss them",
                    )
                )
        fn = info.methods.get("config_fragment")
        if fn is not None:
            n_required = (
                len([a for a in fn.args.args if a.arg != "self"])
                - len(fn.args.defaults)
                + len([d for d in fn.args.kw_defaults if d is None])
            )
            if n_required > 0:
                findings.append(
                    _finding(
                        info.relpath,
                        fn,
                        ctx,
                        f"policy {name}.config_fragment() takes required "
                        "parameters; PolicyKernel.config() calls it as "
                        "config_fragment(self) only",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# event vocabulary / replay coverage
# ----------------------------------------------------------------------
def _find_events_module(contexts: dict[str, FileContext]) -> str | None:
    for relpath in sorted(contexts):
        if relpath.replace("\\", "/").endswith("obs/events.py"):
            return relpath
    return None


def _tuple_of_strings(ctx: FileContext, const_name: str) -> tuple[list[str], ast.AST | None]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            t = node.targets[0]
            if isinstance(t, ast.Name) and t.id == const_name:
                if isinstance(node.value, (ast.Tuple, ast.List)):
                    return (
                        [
                            e.value
                            for e in node.value.elts
                            if isinstance(e, ast.Constant) and isinstance(e.value, str)
                        ],
                        node,
                    )
    return ([], None)


def _tracer_class(ctx: FileContext) -> ast.ClassDef | None:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef) and node.name == "Tracer":
            return node
    return None


def _string_constants(node: ast.AST) -> set[str]:
    return {
        n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _check_event_lockstep(contexts: dict[str, FileContext]) -> list[Finding]:
    findings: list[Finding] = []
    events_rel = _find_events_module(contexts)
    if events_rel is None:
        return findings
    ctx = contexts[events_rel]
    event_types, event_node = _tuple_of_strings(ctx, "EVENT_TYPES")
    tracer = _tracer_class(ctx)
    if not event_types or tracer is None:
        return findings

    # emission coverage: every EVENT_TYPES member must appear as a
    # literal inside the Tracer class (emitted or assigned to an etype)
    emitted = _string_constants(tracer) & set(event_types)
    for missing in sorted(set(event_types) - emitted):
        findings.append(
            _finding(
                events_rel,
                event_node,
                ctx,
                f"event type {missing!r} is declared in EVENT_TYPES but the "
                "Tracer never emits it (orphan vocabulary)",
            )
        )

    # replay coverage: obs/summary.py must mention every type
    for relpath in sorted(contexts):
        if relpath.replace("\\", "/").endswith("obs/summary.py"):
            summary_ctx = contexts[relpath]
            known = _string_constants(summary_ctx.tree)
            for missing in sorted(set(event_types) - known):
                findings.append(
                    _finding(
                        relpath,
                        summary_ctx.tree.body[0] if summary_ctx.tree.body else None,
                        summary_ctx,
                        f"replay summariser never references event type "
                        f"{missing!r}; summarize_trace would silently drop it",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# tracer call sites in decision paths
# ----------------------------------------------------------------------
def _check_tracer_call_sites(contexts: dict[str, FileContext]) -> list[Finding]:
    findings: list[Finding] = []
    events_rel = _find_events_module(contexts)
    if events_rel is None:
        return findings
    events_ctx = contexts[events_rel]
    tracer = _tracer_class(events_ctx)
    if tracer is None:
        return findings
    tracer_methods = {
        m.name for m in tracer.body if isinstance(m, ast.FunctionDef)
    }
    decision_actions, _ = _tuple_of_strings(events_ctx, "DECISION_ACTIONS")

    for relpath in sorted(contexts):
        if not DECISION_PATH_RE.search(relpath.replace("\\", "/")):
            continue
        ctx = contexts[relpath]
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            recv = node.func.value
            is_tracer = (isinstance(recv, ast.Name) and recv.id == "tracer") or (
                isinstance(recv, ast.Attribute) and recv.attr == "tracer"
            )
            if not is_tracer:
                continue
            meth = node.func.attr
            if meth not in tracer_methods or meth.startswith(_PRIVATE_PREFIX):
                findings.append(
                    _finding(
                        relpath,
                        node,
                        ctx,
                        f"call to tracer.{meth}() which is not a public Tracer "
                        "method (obs/events.py)",
                    )
                )
                continue
            if meth == "decision" and decision_actions and len(node.args) >= 2:
                action = node.args[1]
                if isinstance(action, ast.Constant) and isinstance(action.value, str):
                    if action.value not in decision_actions:
                        findings.append(
                            _finding(
                                relpath,
                                node,
                                ctx,
                                f"decision action {action.value!r} is not in "
                                "DECISION_ACTIONS; the replay would not "
                                "classify it",
                            )
                        )
    return findings


# ----------------------------------------------------------------------
# recorder protocol
# ----------------------------------------------------------------------
def _check_recorders(contexts: dict[str, FileContext]) -> list[Finding]:
    findings: list[Finding] = []
    for relpath in sorted(contexts):
        ctx = contexts[relpath]
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if "Protocol" in _base_names(node):
                continue
            methods = {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
            record = next(
                (
                    m
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and m.name == "record"
                ),
                None,
            )
            if record is None:
                continue
            args = [a.arg for a in record.args.args]
            if len(args) != 2 or args[0] != "self":
                continue  # not the TraceRecorder shape
            # require the event parameter to look like one (annotation or name)
            param = record.args.args[1]
            ann_ok = param.annotation is not None and "Event" in ast.dump(
                param.annotation
            )
            name_ok = "event" in param.arg
            if not (ann_ok or name_ok):
                continue
            class_attr_names = {
                t.id
                for stmt in node.body
                if isinstance(stmt, ast.Assign)
                for t in stmt.targets
                if isinstance(t, ast.Name)
            } | {
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            }
            has_enabled = "enabled" in class_attr_names or any(
                isinstance(n, ast.Attribute)
                and n.attr == "enabled"
                and isinstance(n.ctx, ast.Store)
                for n in ast.walk(node)
            )
            if "close" not in methods:
                findings.append(
                    _finding(
                        relpath,
                        node,
                        ctx,
                        f"recorder {node.name} defines record() but no close(); "
                        "the TraceRecorder protocol requires flush/release",
                    )
                )
            if not has_enabled:
                findings.append(
                    _finding(
                        relpath,
                        node,
                        ctx,
                        f"recorder {node.name} never sets `enabled`; the driver's "
                        "zero-overhead gate reads it to decide whether to trace",
                    )
                )
    return findings


def run_project_checks(contexts: dict[str, FileContext]) -> list[Finding]:
    """All RPR004 sub-checks over the analysed file set."""
    classes = _collect_classes(contexts)
    findings: list[Finding] = []
    findings.extend(_check_schedulers(contexts, classes))
    findings.extend(_check_policies(contexts, classes))
    findings.extend(_check_event_lockstep(contexts))
    findings.extend(_check_tracer_call_sites(contexts))
    findings.extend(_check_recorders(contexts))
    return findings
