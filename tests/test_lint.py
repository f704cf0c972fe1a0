"""repro-lint: per-rule fixtures, suppression/baseline mechanics, CLI.

Each RPR rule gets at least one *positive* fixture (the bug shape it
exists for -- RPR001's is the PR-2 ``_try_resume`` hash-order bug) and
one *negative* (the sanctioned pattern that must stay quiet).  Fixture
trees are written to ``tmp_path`` and linted through the real engine.
The meta-tests at the bottom pin the deliverable: the live
``src/repro`` tree is clean under the shipped baseline, a single file
gets the verdict the tree run gives it, and output does not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import Baseline, lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.engine import LintReport, analyze_source, discover_files, rule_catalogue
from repro.lint.findings import Finding, assign_occurrences
from repro.lint.sarif import render_sarif
from repro.lint.suppress import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
SHIPPED_BASELINE = REPO_ROOT / "tools" / "lint_baseline.json"

#: every rule the linter ships, framework diagnostics included
RULES = ["RPR000", "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006", "RPR008"]


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
# RPR004 -- cross-file protocol conformance (via lint_paths on a tree)
# ----------------------------------------------------------------------
class TestRPR004:
    def lint_tree(self, tmp_path: Path, files: dict[str, str]) -> list[Finding]:
        return lint_paths([write_tree(tmp_path, files)], select=["RPR004"]).active

    def test_missing_scheme_id_fires(self, tmp_path: Path) -> None:
        found = self.lint_tree(
            tmp_path,
            {
                "schedulers/bad.py": """
                    class BadScheduler(Scheduler):
                        def on_arrival(self, job):
                            pass
                """
            },
        )
        assert any("scheme_id" in f.message for f in found)

    def test_conforming_scheduler_is_clean(self, tmp_path: Path) -> None:
        found = self.lint_tree(
            tmp_path,
            {
                "schedulers/good.py": """
                    class GoodScheduler(Scheduler):
                        scheme_id = "good"

                        def config(self):
                            return {"scheme": self.scheme_id}
                """
            },
        )
        assert found == []

    def test_init_knobs_without_config_override_fires(self, tmp_path: Path) -> None:
        found = self.lint_tree(
            tmp_path,
            {
                "schedulers/knobs.py": """
                    class KnobScheduler(Scheduler):
                        scheme_id = "knobs"

                        def __init__(self, suspension_factor: float):
                            self.sf = suspension_factor
                """
            },
        )
        assert any("config() override" in f.message for f in found)

    def test_config_with_required_params_fires(self, tmp_path: Path) -> None:
        found = self.lint_tree(
            tmp_path,
            {
                "schedulers/sig.py": """
                    class SigScheduler(Scheduler):
                        scheme_id = "sig"

                        def config(self, extra):
                            return {"scheme": self.scheme_id, "extra": extra}
                """
            },
        )
        assert any("required parameters" in f.message for f in found)

    def test_recorder_without_close_or_enabled_fires(self, tmp_path: Path) -> None:
        found = self.lint_tree(
            tmp_path,
            {
                "obs/half.py": """
                    class HalfRecorder:
                        def record(self, event):
                            self.rows.append(event)
                """
            },
        )
        msgs = " ".join(f.message for f in found)
        assert "close()" in msgs and "enabled" in msgs

    def test_orphan_event_type_fires(self, tmp_path: Path) -> None:
        found = self.lint_tree(
            tmp_path,
            {
                "obs/events.py": """
                    EVENT_TYPES = ("arrival", "ghost")

                    class Tracer:
                        def arrival(self, t, job):
                            self._emit("arrival", t)
                """
            },
        )
        assert any("ghost" in f.message for f in found)

    def test_unknown_decision_action_fires(self, tmp_path: Path) -> None:
        found = self.lint_tree(
            tmp_path,
            {
                "obs/events.py": """
                    EVENT_TYPES = ("decision",)
                    DECISION_ACTIONS = ("preempt",)

                    class Tracer:
                        def decision(self, t, action):
                            self._emit("decision", t)
                """,
                "schedulers/rogue.py": """
                    def plan(self, t):
                        self.tracer.decision(t, "yolo")
                """,
            },
        )
        assert any("'yolo'" in f.message for f in found)

    def test_unknown_tracer_method_fires(self, tmp_path: Path) -> None:
        found = self.lint_tree(
            tmp_path,
            {
                "obs/events.py": """
                    EVENT_TYPES = ("arrival",)

                    class Tracer:
                        def arrival(self, t, job):
                            self._emit("arrival", t)
                """,
                "sim/rogue.py": """
                    def go(self, t):
                        self.tracer.arival(t, None)
                """,
            },
        )
        assert any("arival" in f.message for f in found)


# ----------------------------------------------------------------------
# RPR005 -- trace/cache purity
# ----------------------------------------------------------------------
class TestRPR005:
    def test_config_without_scheme_key_fires(self) -> None:
        src = """
            class FooScheduler:
                scheme_id = "foo"

                def config(self):
                    return {"margin": self.margin}
        """
        assert "RPR005" in rules_of(findings_for(src, "schedulers/foo.py"))

    def test_lambda_in_config_fires(self) -> None:
        src = """
            class FooScheduler:
                def config(self):
                    return {"scheme": "foo", "key": lambda j: j.procs}
        """
        assert "RPR005" in rules_of(findings_for(src, "schedulers/foo.py"))

    def test_set_in_config_fires(self) -> None:
        src = """
            class FooScheduler:
                def config(self):
                    return {"scheme": "foo", "cats": {"a", "b"}}
        """
        assert "RPR005" in rules_of(findings_for(src, "schedulers/foo.py"))

    def test_driver_state_in_config_fires(self) -> None:
        src = """
            class FooScheduler:
                def config(self):
                    return {"scheme": "foo", "now": self.driver.now}
        """
        assert "RPR005" in rules_of(findings_for(src, "schedulers/foo.py"))

    def test_clean_config_passes(self) -> None:
        src = """
            class FooScheduler:
                def config(self):
                    return {"scheme": "foo", "margin": float(self.margin)}
        """
        assert findings_for(src, "schedulers/foo.py", select={"RPR005"}) == []

    def test_lambda_to_pool_fires(self) -> None:
        src = """
            def run_all(pool, cells):
                return [pool.submit(lambda c: c.run(), c) for c in cells]
        """
        assert "RPR005" in rules_of(findings_for(src, "experiments/x.py"))

    def test_nested_function_to_pool_fires(self) -> None:
        src = """
            def run_all(pool, cells):
                def work(c):
                    return c.run()
                return [pool.submit(work, c) for c in cells]
        """
        assert "RPR005" in rules_of(findings_for(src, "experiments/x.py"))

    def test_module_level_worker_is_clean(self) -> None:
        src = """
            def work(c):
                return c.run()

            def run_all(pool, cells):
                return [pool.submit(work, c) for c in cells]
        """
        assert findings_for(src, "experiments/x.py", select={"RPR005"}) == []

    # -- cache read-path mutations ------------------------------------
    def test_unlink_in_cache_get_fires(self) -> None:
        # the historical bug shape: "clean up" corrupt entries on read
        src = """
            class ResultCache:
                def get(self, fp):
                    path = self._path(fp)
                    try:
                        return load(path)
                    except Exception:
                        path.unlink()
                        return None
        """
        found = findings_for(src, "experiments/cache.py", select={"RPR005"})
        assert found and "read path" in found[0].message

    def test_quarantine_rename_in_cache_get_is_clean(self) -> None:
        src = """
            class ResultCache:
                def get(self, fp):
                    path = self._path(fp)
                    try:
                        return load(path)
                    except Exception:
                        path.rename(path.with_name(path.name + ".corrupt"))
                        return None
        """
        assert findings_for(src, "experiments/cache.py", select={"RPR005"}) == []

    def test_non_quarantine_rename_in_cache_get_fires(self) -> None:
        src = """
            class ResultCache:
                def get(self, fp):
                    path = self._path(fp)
                    try:
                        return load(path)
                    except Exception:
                        path.rename(path.with_suffix(".bak"))
                        return None
        """
        assert "RPR005" in rules_of(
            findings_for(src, "experiments/cache.py", select={"RPR005"})
        )

    def test_mutation_in_read_path_helper_fires(self) -> None:
        # helpers reached from get() are part of the read path too
        src = """
            class ResultCache:
                def get(self, fp):
                    try:
                        return load(self._path(fp))
                    except Exception:
                        self._drop(self._path(fp))
                        return None

                def _drop(self, path):
                    path.unlink()
        """
        assert "RPR005" in rules_of(
            findings_for(src, "experiments/cache.py", select={"RPR005"})
        )

    def test_write_path_mutations_are_clean(self) -> None:
        src = """
            class ResultCache:
                def get(self, fp):
                    return load(self._path(fp))

                def put(self, fp, result):
                    os.replace(tmp, self._path(fp))

                def clear(self):
                    for p in self.root.glob("*/*.pkl"):
                        p.unlink()
        """
        assert findings_for(src, "experiments/cache.py", select={"RPR005"}) == []

    def test_non_cache_class_read_methods_exempt(self) -> None:
        src = """
            class Workspace:
                def get(self, name):
                    path = self.root / name
                    path.unlink()
                    return path
        """
        assert findings_for(src, "experiments/x.py", select={"RPR005"}) == []


# ----------------------------------------------------------------------
# RPR006 -- mutable defaults / shared class-level state
# ----------------------------------------------------------------------
class TestRPR006:
    def test_mutable_default_argument_fires(self) -> None:
        src = """
            def plan(jobs, seen=[]):
                seen.extend(jobs)
                return seen
        """
        assert "RPR006" in rules_of(findings_for(src))

    def test_class_level_mutable_fires(self) -> None:
        src = """
            class Sched:
                pending = []
        """
        assert "RPR006" in rules_of(findings_for(src))

    def test_none_default_is_clean(self) -> None:
        src = """
            def plan(jobs, seen=None):
                seen = seen if seen is not None else []
                return seen
        """
        assert findings_for(src, select={"RPR006"}) == []

    def test_dataclass_field_is_clean(self) -> None:
        src = """
            from dataclasses import dataclass, field

            @dataclass
            class Sched:
                pending: list = field(default_factory=list)
                __slots__ = ("pending",)
        """
        assert findings_for(src, select={"RPR006"}) == []


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

    def test_cross_file_suppression_counts_as_used(self, tmp_path: Path) -> None:
        # the directive fires in the RPR004 pass, after per-file analysis
        root = write_tree(
            tmp_path,
            {
                "schedulers/bad.py": """
                    # repro-lint: disable=RPR004 -- fixture: identified elsewhere
                    class BadScheduler(Scheduler):
                        def on_arrival(self, job):
                            pass
                """,
            },
        )
        report = lint_paths([root])
        assert report.active == []
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# baseline mechanics
# ----------------------------------------------------------------------
class TestBaseline:
    SRC = """\
def stale(job, now: float) -> bool:
    return job.expected_end == now
"""

    def write_tree(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "core"
        pkg.mkdir()
        (pkg / "mod.py").write_text(self.SRC, encoding="utf-8")
        return tmp_path

    def test_unjustified_baseline_entry_is_a_finding(self, tmp_path: Path) -> None:
        root = self.write_tree(tmp_path)
        report = lint_paths([root])
        (finding,) = report.active
        bl = Baseline(path=str(tmp_path / "bl.json"))
        bl.absorb([finding])
        bl.save()

        report2 = lint_paths([root], baseline=Baseline.load(bl.path))
        assert any(f.rule == "RPR000" for f in report2.active)

    def test_justified_baseline_entry_silences(self, tmp_path: Path) -> None:
        root = self.write_tree(tmp_path)
        report = lint_paths([root])
        (finding,) = report.active
        bl = Baseline(path=str(tmp_path / "bl.json"))
        bl.entries[finding.fingerprint()] = Baseline.entry_for(
            finding, "fixture: reviewed, exact identity comparison"
        )
        bl.save()

        report2 = lint_paths([root], baseline=Baseline.load(bl.path))
        assert report2.active == []
        assert len(report2.baselined) == 1
        assert report2.exit_code == 0

    def test_fingerprint_survives_line_drift(self, tmp_path: Path) -> None:
        root = self.write_tree(tmp_path)
        (finding,) = lint_paths([root]).active
        # prepend unrelated code: the line number moves, identity does not
        mod = root / "core" / "mod.py"
        mod.write_text("import math\n\n\n" + self.SRC, encoding="utf-8")
        (moved,) = lint_paths([root]).active
        assert moved.line != finding.line
        assert moved.fingerprint() == finding.fingerprint()

    def test_stale_entries_are_reported(self, tmp_path: Path) -> None:
        root = self.write_tree(tmp_path)
        (finding,) = lint_paths([root]).active
        bl = Baseline(path=str(tmp_path / "bl.json"))
        bl.entries[finding.fingerprint()] = Baseline.entry_for(finding, "reviewed")
        bl.save()
        # fix the offending line; the baseline entry goes stale
        (root / "core" / "mod.py").write_text(
            "def stale(job, now: float) -> bool:\n"
            "    return job.expected_end <= now\n",
            encoding="utf-8",
        )
        report = lint_paths([root], baseline=Baseline.load(bl.path))
        assert report.active == []
        assert report.stale_baseline == [finding.fingerprint()]


class TestPartialRuns:
    """A run that covers some rules or some files leaves the other
    baseline entries alone: they are neither stale nor pruned."""

    def copy_baseline(self, tmp_path: Path) -> Path:
        copy = tmp_path / "lint_baseline.json"
        shutil.copy(SHIPPED_BASELINE, copy)
        return copy

    def test_select_run_reports_no_stale_entries(self) -> None:
        report = lint_paths(
            [SRC], baseline=Baseline.load(SHIPPED_BASELINE), select=["RPR001"]
        )
        assert report.stale_baseline == []

    @pytest.mark.parametrize(
        "args",
        [
            [str(SRC), "--select", "RPR001"],
            [str(SRC / "schedulers" / "policy.py")],
        ],
        ids=["select", "one-file"],
    )
    def test_update_baseline_keeps_uncovered_entries(
        self, tmp_path: Path, args: list[str]
    ) -> None:
        copy = self.copy_baseline(tmp_path)
        assert lint_main([*args, "--update-baseline", "--baseline", str(copy)]) == 0
        assert Baseline.load(copy).entries == Baseline.load(SHIPPED_BASELINE).entries

    def test_full_update_still_prunes_stale_entries(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path / "src", {"core/mod.py": TestBaseline.SRC})
        (finding,) = lint_paths([root]).active
        bl = Baseline(path=str(tmp_path / "bl.json"))
        bl.entries[finding.fingerprint()] = Baseline.entry_for(finding, "reviewed")
        bl.save()
        (root / "core" / "mod.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(root), "--update-baseline", "--baseline", bl.path]) == 0
        assert Baseline.load(bl.path).entries == {}


# ----------------------------------------------------------------------
# engine: discovery, occurrence numbering
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
        assert lint_main([str(tmp_path), "--no-baseline"]) == 1
        (bad / "m.py").write_text("def f():\n    return 0\n", encoding="utf-8")
        assert lint_main([str(tmp_path), "--no-baseline"]) == 0

    def test_json_output_shape(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        core = tmp_path / "core"
        core.mkdir()
        (core / "m.py").write_text(
            "def stale(a, now):\n    return a.expected_end == now\n", encoding="utf-8"
        )
        code = lint_main([str(tmp_path), "--no-baseline", "--format", "json"])
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
# the deliverable: the live tree is clean under the shipped baseline
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_src_repro_is_clean_under_shipped_baseline(self) -> None:
        baseline = Baseline.load(REPO_ROOT / "tools" / "lint_baseline.json")
        report = lint_paths([REPO_ROOT / "src" / "repro"], baseline=baseline)
        assert report.active == [], "\n".join(f.render() for f in report.active)
        assert report.exit_code == 0

    def test_shipped_baseline_has_no_stale_entries(self) -> None:
        baseline = Baseline.load(REPO_ROOT / "tools" / "lint_baseline.json")
        report = lint_paths([REPO_ROOT / "src" / "repro"], baseline=baseline)
        assert report.stale_baseline == []

    def test_every_shipped_baseline_entry_is_justified(self) -> None:
        baseline = Baseline.load(REPO_ROOT / "tools" / "lint_baseline.json")
        assert baseline.unjustified() == []


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
        # policy.py carries a baselined RPR003, gang.py a justified
        # RPR001 directive and counters.py neither: alone, each must
        # stay clean, with nothing stale and no directive reported unused
        report = lint_paths([SRC / rel], baseline=Baseline.load(SHIPPED_BASELINE))
        tree = lint_paths([SRC], baseline=Baseline.load(SHIPPED_BASELINE))
        assert report.active == []
        assert report.stale_baseline == []
        assert [f.fingerprint() for f in report.baselined] == [
            f.fingerprint() for f in tree.baselined if f.path == rel
        ]


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


def lint_fixture(root: Path, **kw) -> LintReport:
    return lint_paths([write_tree(root, FIXTURE_TREE)], **kw)


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

    def test_baselined_findings_carry_suppressions(self, tmp_path: Path) -> None:
        raw = lint_fixture(tmp_path / "src")
        baseline = Baseline(path=str(tmp_path / "baseline.json"))
        baseline.absorb(raw.active)
        for entry in baseline.entries.values():
            entry["justification"] = "accepted for the fixture"
        report = lint_paths([tmp_path / "src"], baseline=baseline)
        doc = json.loads(render_sarif(report, uri_base="src"))
        results = doc["runs"][0]["results"]
        assert results and all(
            r["suppressions"] == [{"kind": "external"}] for r in results
        )


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
                    "--no-baseline",
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
