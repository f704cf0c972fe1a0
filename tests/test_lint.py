"""repro-lint: per-rule fixtures, suppression mechanics, CLI.

Each RPR rule gets at least one *positive* fixture (the bug shape it
exists for -- RPR001's is the PR-2 ``_try_resume`` hash-order bug) and
one *negative* (the sanctioned pattern that must stay quiet).  Fixture
trees are written to ``tmp_path`` and linted through the real engine.
The deleted checks RPR004-RPR006 keep their fixture shapes here, each
built as a live object and shown to fail the runtime test that replaced
the check.  The meta-tests at the bottom pin the deliverable: the live
``src/repro`` tree is clean, a single file gets the verdict the tree
run gives it, and output does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import repro
from repro.experiments import GridCell, GridExecutionError, ResultCache, parallel, run_grid
from repro.lint import lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.engine import LintReport, analyze_source, discover_files, rule_catalogue
from repro.lint.findings import Finding, assign_occurrences
from repro.lint.sarif import render_sarif
from repro.lint.suppress import parse_suppressions
from repro.obs import events as obs_events
from repro.obs.events import Tracer
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import SCHEMES
from repro.sim.driver import SimulationResult
from repro.workload.job import Job
from repro.workload.synthetic import generate_trace
from tests.test_obs import check_recorder, check_trace_vocabulary, traced_scheme_runs
from tests.test_parallel import check_cache_read_path
from tests.test_policy_kernel import check_scheme_contract

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

#: every rule the linter ships, framework diagnostics included
RULES = ["RPR000", "RPR001", "RPR002", "RPR003", "RPR008"]


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, src in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src), encoding="utf-8")
    return root


def findings_for(
    source: str, relpath: str = "core/fixture.py", select: set[str] | None = None
) -> list[Finding]:
    result = analyze_source(
        relpath, textwrap.dedent(source), frozenset(select) if select else None
    )
    return result.findings + result.errors


def rules_of(findings: list[Finding]) -> set[str]:
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# RPR001 -- unordered iteration in decision paths
# ----------------------------------------------------------------------
class TestRPR001:
    # the PR-2 _try_resume bug, distilled: resume order steered by the
    # hash order of a set of suspended-job owners
    TRY_RESUME_BUG = """
        class SelectiveSuspensionScheduler:
            def _try_resume(self) -> None:
                owners = {j.owner_id for j in self.suspended}
                for owner in owners:
                    self._resume_one(owner)
    """

    def test_try_resume_hash_order_bug_fires(self) -> None:
        found = findings_for(self.TRY_RESUME_BUG, "core/selective_suspension.py")
        assert "RPR001" in rules_of(found)

    def test_sorted_wrapper_is_clean(self) -> None:
        fixed = self.TRY_RESUME_BUG.replace("in owners:", "in sorted(owners):")
        assert "RPR001" not in rules_of(
            findings_for(fixed, "core/selective_suspension.py")
        )

    def test_order_insensitive_folds_are_clean(self) -> None:
        src = """
            def width(jobs: set) -> int:
                total = sum(j.procs for j in jobs)
                biggest = max(j.procs for j in jobs)
                return total + biggest + len(jobs)
        """
        assert findings_for(src, "schedulers/x.py", select={"RPR001"}) == []

    def test_membership_test_is_clean(self) -> None:
        src = """
            def is_running(self, job) -> bool:
                return job in {j for j in self.running}
        """
        assert findings_for(src, "sim/x.py", select={"RPR001"}) == []

    def test_dict_view_iteration_fires(self) -> None:
        src = """
            def pick(self):
                for job_id, cols in self.columns.items():
                    return job_id
        """
        assert "RPR001" in rules_of(findings_for(src, "schedulers/gang2.py"))

    def test_list_materialises_hash_order(self) -> None:
        src = """
            def victims(self, pool: set):
                return list(pool)
        """
        assert "RPR001" in rules_of(findings_for(src, "core/x.py"))

    def test_non_decision_path_is_exempt(self) -> None:
        found = findings_for(self.TRY_RESUME_BUG, "analysis/report.py")
        assert "RPR001" not in rules_of(found)

    def test_set_rebuild_is_clean(self) -> None:
        src = """
            def used(self) -> set:
                return set(c for cols in self.columns.values() for c in cols)
        """
        assert findings_for(src, "schedulers/x.py", select={"RPR001"}) == []

    # -- PR-4: the bitmask kernel joins the patrol ---------------------
    def test_cluster_path_is_patrolled(self) -> None:
        # iterating a set in cluster/ fires exactly like core/ --
        # allocation choices steer the schedule
        src = """
            def pack(self, count: int):
                for p in self.free_set():
                    if count == 0:
                        break
                    self._claim(p)
                    count -= 1
        """
        assert "RPR001" in rules_of(findings_for(src, "cluster/machine.py"))

    def test_mask_iteration_helpers_are_clean(self) -> None:
        # iter_bits/mask_to_ids walk an *integer* lowest-bit-first:
        # ascending by construction, nothing hash-ordered to flag
        src = """
            from repro.cluster.bitset import iter_bits, mask_to_ids

            def claim(self, mask: int, owner: int) -> None:
                for p in iter_bits(mask):
                    self._proc_owner[p] = owner
                ids = list(mask_to_ids(mask))
        """
        assert findings_for(src, "cluster/machine.py", select={"RPR001"}) == []

    def test_mask_from_ids_is_order_insensitive_consumer(self) -> None:
        # folding a set into a bitmask is commutative OR; feeding a set
        # into mask_from_ids cannot leak hash order into the schedule
        src = """
            from repro.cluster.bitset import mask_from_ids

            def pin(self, procs: set) -> int:
                return mask_from_ids(p for p in procs)
        """
        assert findings_for(src, "core/sweep.py", select={"RPR001"}) == []

    def test_materialising_a_set_in_cluster_path_fires(self) -> None:
        src = """
            def snapshot(self):
                return tuple(self.free_set())
        """
        assert "RPR001" in rules_of(findings_for(src, "cluster/snapshot.py"))


# ----------------------------------------------------------------------
# RPR002 -- nondeterminism sources
# ----------------------------------------------------------------------
class TestRPR002:
    def test_wall_clock_fires(self) -> None:
        src = """
            import time

            def stamp():
                return time.time()
        """
        assert "RPR002" in rules_of(findings_for(src))

    def test_global_random_fires(self) -> None:
        src = """
            import random

            def jitter():
                return random.random()
        """
        assert "RPR002" in rules_of(findings_for(src))

    def test_seeded_random_instance_is_clean(self) -> None:
        src = """
            import random

            def make_rng(seed: int):
                return random.Random(seed)
        """
        assert findings_for(src, select={"RPR002"}) == []

    def test_argless_random_instance_fires(self) -> None:
        src = """
            import random

            def make_rng():
                return random.Random()
        """
        assert "RPR002" in rules_of(findings_for(src))

    def test_unseeded_default_rng_fires(self) -> None:
        src = """
            import numpy as np

            def rng():
                return np.random.default_rng()
        """
        assert "RPR002" in rules_of(findings_for(src))

    def test_seeded_default_rng_is_clean(self) -> None:
        src = """
            import numpy as np

            def rng(seed: int):
                return np.random.default_rng(seed)
        """
        assert findings_for(src, select={"RPR002"}) == []

    def test_legacy_numpy_global_fires(self) -> None:
        src = """
            import numpy.random

            def sample(n):
                return numpy.random.exponential(1.0, n)
        """
        assert "RPR002" in rules_of(findings_for(src))

    def test_from_import_wallclock_fires(self) -> None:
        src = """
            from time import time

            def stamp():
                return time()
        """
        assert "RPR002" in rules_of(findings_for(src))


# ----------------------------------------------------------------------
# RPR003 -- exact float equality on time-like expressions
# ----------------------------------------------------------------------
class TestRPR003:
    def test_time_equality_fires(self) -> None:
        src = """
            def stale(job, now: float) -> bool:
                return job.expected_end == now
        """
        assert "RPR003" in rules_of(findings_for(src)), "expected_end == now"

    def test_xfactor_inequality_fires(self) -> None:
        src = """
            def changed(a, b) -> bool:
                return a.xfactor != b.xfactor
        """
        assert "RPR003" in rules_of(findings_for(src))

    def test_ordering_comparison_is_clean(self) -> None:
        src = """
            def overdue(job, now: float) -> bool:
                return job.expected_end <= now
        """
        assert findings_for(src, select={"RPR003"}) == []

    def test_string_comparison_is_clean(self) -> None:
        # the heuristic must not fire when one side is a non-numeric
        # constant: `mode == "time"` is not a float comparison
        src = """
            def is_time_mode(mode: str) -> bool:
                return mode == "time"
        """
        assert findings_for(src, select={"RPR003"}) == []

    def test_non_time_names_are_clean(self) -> None:
        src = """
            def same_owner(a, b) -> bool:
                return a.owner_id == b.owner_id
        """
        assert findings_for(src, select={"RPR003"}) == []


# ----------------------------------------------------------------------
# the deleted checks RPR004-RPR006: each fixture shape they encoded, built
# as a live object, fails the runtime test that replaced the check
# ----------------------------------------------------------------------
class _Idle(Scheduler):
    """Schedules nothing; the scheme shapes below subclass it."""

    def on_arrival(self, job: Job) -> None:
        pass

    def on_finish(self, job: Job) -> None:
        pass


def breaks_scheme_contract(monkeypatch: pytest.MonkeyPatch, cls: type[Scheduler]) -> str:
    """The error the table test's check raises on *cls*, put in the
    scheme table ("" when it passes)."""
    monkeypatch.setitem(SCHEMES, cls.__name__, cls)
    try:
        check_scheme_contract(cls)
    except (AssertionError, AttributeError, KeyError, TypeError) as exc:
        return type(exc).__name__
    return ""


@pytest.fixture(scope="module")
def scheme_runs() -> dict[str, list[dict]]:
    return traced_scheme_runs()


class TestRPR004:
    """Now ``tests/test_policy_kernel.py::test_every_scheme_class_is_in_the_table``
    and ``tests/test_obs.py``'s vocabulary and recorder-protocol tests."""

    def test_missing_scheme_id_fires(self, monkeypatch) -> None:
        class BadScheduler(_Idle):
            pass

        assert breaks_scheme_contract(monkeypatch, BadScheduler) == "AssertionError"

    def test_conforming_scheduler_is_clean(self, monkeypatch) -> None:
        class GoodScheduler(_Idle):
            scheme_id = "GoodScheduler"

            def config(self) -> dict[str, object]:
                return {"scheme": self.scheme_id}

        assert breaks_scheme_contract(monkeypatch, GoodScheduler) == ""

    def test_init_knobs_without_config_override_fires(self, monkeypatch) -> None:
        class KnobScheduler(_Idle):
            scheme_id = "KnobScheduler"

            def __init__(self, suspension_factor: float = 2.0) -> None:
                super().__init__()
                self.sf = suspension_factor

        assert breaks_scheme_contract(monkeypatch, KnobScheduler) == "AssertionError"

    def test_config_with_required_params_fires(self, monkeypatch) -> None:
        class SigScheduler(_Idle):
            scheme_id = "SigScheduler"

            def config(self, extra: object) -> dict[str, object]:  # type: ignore[override]
                return {"scheme": self.scheme_id, "extra": extra}

        assert breaks_scheme_contract(monkeypatch, SigScheduler) == "TypeError"

    def test_recorder_without_close_or_enabled_fires(self) -> None:
        class HalfRecorder:
            def record(self, event: object) -> None:
                pass

        with pytest.raises(AttributeError, match="enabled"):
            check_recorder(HalfRecorder(), generate_trace("SDSC", n_jobs=40, seed=9))

    def test_orphan_event_type_fires(self, monkeypatch, scheme_runs) -> None:
        monkeypatch.setattr(obs_events, "EVENT_TYPES", (*obs_events.EVENT_TYPES, "ghost"))
        with pytest.raises(AssertionError):
            check_trace_vocabulary(scheme_runs)

    def test_unknown_decision_action_fires(self, monkeypatch, scheme_runs) -> None:
        # speculative backfilling emits an action the vocabulary lacks
        declared = tuple(a for a in obs_events.DECISION_ACTIONS if a != "speculate")
        monkeypatch.setattr(obs_events, "DECISION_ACTIONS", declared)
        with pytest.raises(AssertionError):
            check_trace_vocabulary(scheme_runs)

    def test_unknown_tracer_method_fires(self, monkeypatch) -> None:
        # the driver's tracer.arrival(...) call now names no Tracer method
        monkeypatch.delattr(Tracer, "arrival")
        with pytest.raises(AttributeError, match="arrival"):
            traced_scheme_runs()


class _Configured(_Idle):
    """A scheme whose one knob, ``margin``, is what ``knob()`` returns."""

    scheme_id = "FooScheduler"

    def __init__(self, margin: object = 1.5) -> None:
        super().__init__()

    def knob(self) -> object:
        return 1.5

    def config(self) -> dict[str, object]:
        return {"scheme": self.scheme_id, "margin": self.knob()}


_SIMULATE_INSTALLED, _KILL_POOL = parallel._simulate_installed, parallel._kill_pool


def _pool_task(i: int) -> object:
    """Module level, so a pool can pickle it by name."""
    return _SIMULATE_INSTALLED(i)


class _UnlinkInGet(ResultCache):
    # the historical bug shape: "clean up" corrupt entries on read
    def get(self, fingerprint: str) -> SimulationResult | None:
        path = self._path(fingerprint)
        try:
            return pickle.loads(path.read_bytes())
        except FileNotFoundError:
            return None
        except Exception:
            path.unlink()
            return None


class _RenameToBak(ResultCache):
    def _quarantine(self, path: Path) -> None:
        path.rename(path.with_suffix(".bak"))


class _DropHelper(ResultCache):
    def _quarantine(self, path: Path) -> None:
        self._drop(path)

    def _drop(self, path: Path) -> None:
        path.unlink()


class TestRPR005:
    """Config purity: the table test, which encodes each config as JSON
    before any run; pool tasks: the real pools, which pickle them; the
    cache read path: ``tests/test_parallel.py::test_cache_reads_only_quarantine``."""

    def breaks_with(self, monkeypatch, value: object) -> str:
        class FooScheduler(_Configured):
            def knob(self) -> object:
                return value

        return breaks_scheme_contract(monkeypatch, FooScheduler)

    def test_config_without_scheme_key_fires(self, monkeypatch) -> None:
        class FooScheduler(_Configured):
            def config(self) -> dict[str, object]:
                return {"margin": 1.5}

        assert breaks_scheme_contract(monkeypatch, FooScheduler) == "KeyError"

    def test_lambda_in_config_fires(self, monkeypatch) -> None:
        assert self.breaks_with(monkeypatch, lambda j: j.procs) == "TypeError"

    def test_set_in_config_fires(self, monkeypatch) -> None:
        assert self.breaks_with(monkeypatch, {"a", "b"}) == "TypeError"

    def test_clean_config_passes(self, monkeypatch) -> None:
        assert self.breaks_with(monkeypatch, 1.5) == ""

    def test_driver_state_in_config_fires(self, monkeypatch) -> None:
        class FooScheduler(_Configured):
            def knob(self) -> object:
                return self.driver.now  # type: ignore[union-attr]

        assert breaks_scheme_contract(monkeypatch, FooScheduler) == "AttributeError"

    def run_pooled(self, monkeypatch, task: object) -> None:
        monkeypatch.setattr(parallel, "_simulate_installed", task)
        # a killed pool's manager thread ends before the test does
        monkeypatch.setattr(
            parallel, "_kill_pool", lambda pool: (_KILL_POOL(pool), pool.shutdown(wait=True))
        )
        jobs = generate_trace("SDSC", n_jobs=20, seed=1)
        cells = [GridCell(key, jobs, 128, {"scheme": key}) for key in ("fcfs", "easy")]
        assert len(run_grid(cells, workers=2).results) == 2

    # a pool killed after a task failed to pickle can trip CPython 3.11's
    # executor thread (InvalidStateError in terminate_broken); harmless
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_lambda_to_pool_fires(self, monkeypatch) -> None:
        with pytest.raises(GridExecutionError, match="pickle"):
            self.run_pooled(monkeypatch, lambda i: _SIMULATE_INSTALLED(i))

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_nested_function_to_pool_fires(self, monkeypatch) -> None:
        def work(i: int) -> object:
            return _SIMULATE_INSTALLED(i)

        with pytest.raises(GridExecutionError, match="pickle"):
            self.run_pooled(monkeypatch, work)

    def test_module_level_worker_is_clean(self, monkeypatch) -> None:
        self.run_pooled(monkeypatch, _pool_task)

    def test_unlink_in_cache_get_fires(self, tmp_path, monkeypatch) -> None:
        with pytest.raises(AssertionError):
            check_cache_read_path(_UnlinkInGet(tmp_path), monkeypatch)

    def test_quarantine_rename_in_cache_get_is_clean(self, tmp_path, monkeypatch) -> None:
        check_cache_read_path(ResultCache(tmp_path), monkeypatch)

    def test_non_quarantine_rename_in_cache_get_fires(self, tmp_path, monkeypatch) -> None:
        with pytest.raises(AssertionError):
            check_cache_read_path(_RenameToBak(tmp_path), monkeypatch)

    def test_mutation_in_read_path_helper_fires(self, tmp_path, monkeypatch) -> None:
        with pytest.raises(AssertionError):
            check_cache_read_path(_DropHelper(tmp_path), monkeypatch)

    def test_write_path_mutations_are_clean(self, tmp_path, monkeypatch) -> None:
        # put and clear write and delete; only get, in and len are reads
        cache = ResultCache(tmp_path)
        check_cache_read_path(cache, monkeypatch)
        assert cache.clear() == 2 and len(cache) == 0


#: values whose sharing across calls or instances leaks state
_MUTABLE = (list, dict, set, bytearray, collections.deque)


def shared_mutable_state(*objs: object) -> list[str]:
    """Mutable default arguments of the functions and methods among
    *objs*, and mutable class attributes of the classes among them."""
    found = []
    for obj in objs:
        members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
        for name, value in members:
            if isinstance(value, _MUTABLE) and not (name[:1] == "_" == name[-1:]):
                found.append(f"{obj.__qualname__}.{name}")  # type: ignore[attr-defined]
            fn = getattr(value, "__func__", value)
            if inspect.isfunction(fn) and any(
                isinstance(d, _MUTABLE)
                for d in (*(fn.__defaults__ or ()), *(fn.__kwdefaults__ or {}).values())
            ):
                found.append(fn.__qualname__)
    return found


class TestRPR006:
    """Ruff's B006 and RUF012 flag these shapes in source (CI's lint
    job shows both fire); the live check finds them on the package."""

    def test_package_shares_no_mutable_state(self) -> None:
        objs = [
            obj
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith("__main__")
            for obj in vars(importlib.import_module(info.name)).values()
            if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ == info.name
        ]
        assert len(objs) > 100 and shared_mutable_state(*objs) == []

    def test_mutable_default_argument_fires(self) -> None:
        def plan(jobs: list[int], seen: list[int] = []) -> list[int]:  # noqa: B006
            return seen

        assert shared_mutable_state(plan) == [plan.__qualname__]

    def test_class_level_mutable_fires(self) -> None:
        class Sched:
            pending = []  # noqa: RUF012

        assert shared_mutable_state(Sched) == [f"{Sched.__qualname__}.pending"]

    def test_none_default_is_clean(self) -> None:
        def plan(jobs: list[int], seen: list[int] | None = None) -> list[int]:
            return seen if seen is not None else []

        assert shared_mutable_state(plan) == []

    def test_dataclass_field_is_clean(self) -> None:
        @dataclass(slots=True)
        class Sched:
            pending: list[int] = field(default_factory=list)

        assert shared_mutable_state(Sched) == []


# ----------------------------------------------------------------------
# RPR008 -- broad handlers that swallow faults untraced
# ----------------------------------------------------------------------
class TestRPR008:
    def run_rule(
        self, tmp_path: Path, source: str, extra: dict[str, str] | None = None
    ) -> list[str]:
        write_tree(tmp_path, {"experiments/worker.py": source, **(extra or {})})
        return [f.rule for f in lint_paths([tmp_path], select=["RPR008"]).active]

    def test_silent_swallow_fires(self, tmp_path: Path) -> None:
        assert self.run_rule(
            tmp_path,
            """
            def attempt(task):
                try:
                    return task()
                except Exception:
                    return None
            """,
        ) == ["RPR008"]

    def test_bare_except_fires(self, tmp_path: Path) -> None:
        assert self.run_rule(
            tmp_path,
            """
            def attempt(task):
                try:
                    return task()
                except:
                    pass
            """,
        ) == ["RPR008"]

    def test_reraise_is_sanctioned(self, tmp_path: Path) -> None:
        assert (
            self.run_rule(
                tmp_path,
                """
                def attempt(task):
                    try:
                        return task()
                    except Exception as exc:
                        raise RuntimeError("cell failed") from exc
                """,
            )
            == []
        )

    def test_counter_increment_is_sanctioned(self, tmp_path: Path) -> None:
        assert (
            self.run_rule(
                tmp_path,
                """
                def attempt(self, task):
                    try:
                        return task()
                    except Exception:
                        self.outcome.counters.retries += 1
                        return None
                """,
            )
            == []
        )

    def test_quarantine_is_sanctioned(self, tmp_path: Path) -> None:
        assert (
            self.run_rule(
                tmp_path,
                """
                class EntryCache:
                    def get(self, path):
                        try:
                            return path.read_bytes()
                        except Exception:
                            self._quarantine(path)
                            return None

                    def _quarantine(self, path):
                        path.rename(str(path) + ".corrupt")
                """,
            )
            == []
        )

    def test_transitive_sanction_through_helper(self, tmp_path: Path) -> None:
        # the handler delegates to a helper that raises -- the grid
        # executor's run_serial/_charge_failed_attempt shape
        assert (
            self.run_rule(
                tmp_path,
                """
                class Runner:
                    def attempt(self, task):
                        try:
                            return task()
                        except Exception as exc:
                            self._charge(exc)

                    def _charge(self, exc):
                        if self.retries_left == 0:
                            raise RuntimeError("exhausted") from exc
                        self.outcome.counters.retries += 1
                """,
            )
            == []
        )

    # the rule's scope: same-class methods and same-file functions are
    # followed transitively, a helper imported from another file is not
    SAME_FILE_SCOPE = {
        "two-hop-same-class": (
            """
            class Runner:
                def attempt(self, task):
                    try:
                        return task()
                    except Exception as exc:
                        self._a(exc)

                def _a(self, exc):
                    self._b(exc)

                def _b(self, exc):
                    raise RuntimeError("exhausted") from exc
            """,
            None,
            [],
        ),
        "module-level-helper": (
            """
            def fail(exc):
                raise RuntimeError("cell failed") from exc

            def attempt(task):
                try:
                    return task()
                except Exception as exc:
                    fail(exc)
            """,
            None,
            [],
        ),
        "imported-helper": (
            """
            from experiments.failures import fail

            def attempt(task):
                try:
                    return task()
                except Exception as exc:
                    fail(exc)
            """,
            {
                "experiments/failures.py": """
                    def fail(exc):
                        raise RuntimeError("cell failed") from exc
                """
            },
            ["RPR008"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(SAME_FILE_SCOPE))
    def test_same_file_scope(self, tmp_path: Path, case: str) -> None:
        source, extra, expected = self.SAME_FILE_SCOPE[case]
        assert self.run_rule(tmp_path, source, extra) == expected

    def test_narrowed_tuple_is_exempt(self, tmp_path: Path) -> None:
        assert (
            self.run_rule(
                tmp_path,
                """
                def attempt(task):
                    try:
                        return task()
                    except (OSError, ValueError):
                        return None
                """,
            )
            == []
        )

    def test_live_triage_sites_stay_narrow(self) -> None:
        """The three handlers narrowed when RPR008 shipped stay narrow."""
        report = lint_paths(
            [SRC / "cli.py", SRC / "experiments/cache.py", SRC / "experiments/parallel.py"],
            select=["RPR008"],
        )
        assert report.active == []


# ----------------------------------------------------------------------
# suppression directives
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_justified_inline_suppresses(self) -> None:
        src = """
            def plan(pool: set):
                return list(pool)  # repro-lint: disable=RPR001 -- fixture: order provably unused
        """
        result = analyze_source("core/x.py", textwrap.dedent(src))
        assert result.findings == []
        assert result.suppressed == 1

    def test_justified_standalone_covers_next_line(self) -> None:
        src = """
            def plan(pool: set):
                # repro-lint: disable=RPR001 -- fixture: order provably unused
                return list(pool)
        """
        result = analyze_source("core/x.py", textwrap.dedent(src))
        assert result.findings == []
        assert result.suppressed == 1

    def test_unjustified_directive_does_not_suppress(self) -> None:
        src = """
            def plan(pool: set):
                return list(pool)  # repro-lint: disable=RPR001
        """
        result = analyze_source("core/x.py", textwrap.dedent(src))
        # the RPR001 stays active AND the naked directive is RPR000
        assert "RPR001" in {f.rule for f in result.findings}
        assert any(
            e.rule == "RPR000" and "justification" in e.message for e in result.errors
        )

    def test_unknown_rule_id_is_reported(self) -> None:
        src = "x = 1  # repro-lint: disable=RPR999x -- nonsense\n"
        supp = parse_suppressions(src, "x.py")
        assert supp.errors and "unknown rule id" in supp.errors[0].message

    def test_disable_all_with_justification(self) -> None:
        src = """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=all -- fixture: generated shim
        """
        result = analyze_source("core/x.py", textwrap.dedent(src))
        assert result.findings == []
        assert result.suppressed >= 1

    def test_wrong_rule_does_not_suppress_others(self) -> None:
        src = """
            def plan(pool: set):
                return list(pool)  # repro-lint: disable=RPR003 -- fixture: wrong rule listed
        """
        result = analyze_source("core/x.py", textwrap.dedent(src))
        assert "RPR001" in {f.rule for f in result.findings}


# ----------------------------------------------------------------------
# stale-suppression audit
# ----------------------------------------------------------------------
class TestUnusedSuppressions:
    TREE = {
        "core/mix.py": """
            import time

            def stale():
                # repro-lint: disable=RPR001 -- nothing iterates a set here
                return 1

            def live():
                return time.time()  # repro-lint: disable=RPR002 -- fixture clock
        """,
    }

    def test_stale_directive_flagged_when_asked(self, tmp_path: Path) -> None:
        report = lint_paths([write_tree(tmp_path, self.TREE)])
        assert [f.rule for f in report.active] == ["RPR000"]
        f = report.active[0]
        assert "unused suppression" in f.message and "RPR001" in f.message
        assert f.line == 5

    def test_audit_skipped_under_select(self, tmp_path: Path) -> None:
        # an unselected rule cannot defend its directives
        root = write_tree(tmp_path, self.TREE)
        assert lint_paths([root], select=["RPR001", "RPR002"]).active == []


# ----------------------------------------------------------------------
# engine: discovery, occurrence numbering, fingerprints
# ----------------------------------------------------------------------
class TestEngine:
    def test_discovery_is_sorted_and_skips_caches(self, tmp_path: Path) -> None:
        (tmp_path / "b.py").write_text("", encoding="utf-8")
        (tmp_path / "a.py").write_text("", encoding="utf-8")
        pyc = tmp_path / "__pycache__"
        pyc.mkdir()
        (pyc / "junk.py").write_text("", encoding="utf-8")
        rels = [rel for _, rel in discover_files([tmp_path])]
        assert rels == ["a.py", "b.py"]

    def test_syntax_error_is_a_finding_not_a_crash(self) -> None:
        result = analyze_source("core/broken.py", "def f(:\n")
        assert [f.rule for f in result.findings] == ["RPR000"]

    def test_occurrence_numbering_disambiguates_repeats(self) -> None:
        f = Finding(
            rule="RPR003", path="p.py", line=1, col=0, message="m", snippet="x == y"
        )
        g = Finding(
            rule="RPR003", path="p.py", line=9, col=0, message="m", snippet="x == y"
        )
        a, b = assign_occurrences([f, g])
        assert (a.occurrence, b.occurrence) == (0, 1)
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_survives_line_drift(self, tmp_path: Path) -> None:
        # the SARIF partialFingerprints identity: the line number moves,
        # the fingerprint does not
        src = "def stale(job, now: float) -> bool:\n    return job.expected_end == now\n"
        mod = write_tree(tmp_path, {"core/mod.py": src}) / "core" / "mod.py"
        (finding,) = lint_paths([tmp_path]).active
        mod.write_text("import math\n\n\n" + src, encoding="utf-8")
        (moved,) = lint_paths([tmp_path]).active
        assert moved.line != finding.line
        assert moved.fingerprint() == finding.fingerprint()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_codes(self, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
        bad = tmp_path / "core"
        bad.mkdir()
        (bad / "m.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n", encoding="utf-8"
        )
        assert lint_main([str(tmp_path)]) == 1
        (bad / "m.py").write_text("def f():\n    return 0\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == 0

    def test_json_output_shape(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        core = tmp_path / "core"
        core.mkdir()
        (core / "m.py").write_text(
            "def stale(a, now):\n    return a.expected_end == now\n", encoding="utf-8"
        )
        code = lint_main([str(tmp_path), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["counts"]["active"] == 1
        assert doc["findings"][0]["rule"] == "RPR003"
        assert doc["findings"][0]["fingerprint"]

    def test_select_restricts_rules(self, tmp_path: Path) -> None:
        core = tmp_path / "core"
        core.mkdir()
        (core / "m.py").write_text(
            "import time\n\ndef f(a, now):\n"
            "    return time.time() if a.expected_end == now else 0\n",
            encoding="utf-8",
        )
        only_002 = lint_paths([tmp_path], select=["RPR002"])
        assert rules_of(only_002.active) == {"RPR002"}

    def test_list_rules(self, capsys: pytest.CaptureFixture) -> None:
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == RULES


# ----------------------------------------------------------------------
# the deliverable: the live tree is clean, every accepted finding inline
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_src_repro_is_clean(self) -> None:
        report = lint_paths([SRC])
        assert report.active == [], "\n".join(f.render() for f in report.active)
        assert report.exit_code == 0


# ----------------------------------------------------------------------
# a file argument gets the verdict the tree run gives that file
# ----------------------------------------------------------------------
class TestFileArguments:
    def test_package_relpath_from_file_argument(self) -> None:
        ((_, rel),) = discover_files([SRC / "core" / "tss.py"])
        assert rel == "core/tss.py"

    def test_decision_path_file_linted_alone(self, tmp_path: Path) -> None:
        root = write_tree(
            tmp_path / "pkg",
            {
                "__init__.py": "",
                "core/__init__.py": "",
                "core/x.py": """
                    def first(pool: set):
                        for job in pool:
                            return job
                """,
            },
        )
        alone = lint_paths([root / "core" / "x.py"], select=["RPR001"]).active
        in_tree = lint_paths([root], select=["RPR001"]).active
        assert [f.as_dict() for f in alone] == [f.as_dict() for f in in_tree]
        assert [f.rule for f in alone] == ["RPR001"]

    @pytest.mark.parametrize(
        "rel", ["obs/counters.py", "schedulers/gang.py", "schedulers/policy.py"]
    )
    def test_live_file_linted_alone(self, rel: str) -> None:
        # policy.py and gang.py carry justified directives and counters.py
        # none: alone, each must stay clean, no directive reported unused
        report = lint_paths([SRC / rel])
        assert report.active == []
        assert report.suppressed == (SRC / rel).read_text().count("# repro-lint: disable=")


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
FIXTURE_TREE = {
    "core/sched.py": """
        def decide(pool: set):
            return [job for job in pool]
    """,
    "analysis/clock.py": """
        import time

        def stamp():
            return time.time()
    """,
    "experiments/worker.py": """
        def attempt(task):
            try:
                return task()
            except Exception:
                return None
    """,
}


def lint_fixture(root: Path) -> LintReport:
    return lint_paths([write_tree(root, FIXTURE_TREE)])


class TestSarif:
    def test_document_shape(self, tmp_path: Path) -> None:
        doc = json.loads(render_sarif(lint_fixture(tmp_path / "src"), uri_base="src"))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == RULES == [rule for rule, _ in rule_catalogue()]
        assert {res["ruleId"] for res in run["results"]} == {"RPR001", "RPR002", "RPR008"}
        for res in run["results"]:
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"].startswith("src/")
            assert loc["region"]["startLine"] >= 1
            assert res["partialFingerprints"]["reproLint/v1"]



# ----------------------------------------------------------------------
# determinism: hash seeds
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["human", "sarif"])
    def test_output_invariant_across_hash_seeds(self, tmp_path: Path, fmt: str) -> None:
        root = write_tree(tmp_path / "src", FIXTURE_TREE)
        outputs = set()
        for seed in ("0", "1", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.lint.cli",
                    "--format",
                    fmt,
                    str(root),
                ],
                capture_output=True,
                text=True,
                env=env,
                cwd=tmp_path,
            )
            assert proc.returncode == 1, proc.stderr  # fixture has findings
            outputs.add(proc.stdout)
        assert len(outputs) == 1, "lint output varies with hash seed"
