"""Interprocedural lint: call graph, effect fixpoint, RPR007-009,
summary cache, SARIF, and determinism of all of it.

Fixture trees are written to ``tmp_path`` and linted through the real
engine so every test exercises the same pipeline CI runs: per-file
analysis (optionally cached), summary extraction, call-graph linking,
effect propagation, suppression folding.  The invariance tests at the
bottom pin the acceptance criteria: warm, cold, serial and parallel
runs -- and runs under different ``PYTHONHASHSEED`` values -- produce
byte-identical human and SARIF reports.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint.callgraph import build_call_graph, build_module_summary, module_name
from repro.lint.checker import FileContext
from repro.lint.effects import propagate_effects, sanction_closure
from repro.lint.engine import LintReport, lint_paths, render_human
from repro.lint.sarif import render_sarif
from repro.lint.summaries import SummaryCache, analyzer_fingerprint, entry_key

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, src in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src), encoding="utf-8")
    return root


def summary_of(source: str, relpath: str = "pkg/mod.py"):
    import ast

    src = textwrap.dedent(source)
    return build_module_summary(FileContext(relpath, src, ast.parse(src)))


def lint(root: Path, **kw) -> LintReport:
    return lint_paths([root], **kw)


def rules_of(report: LintReport) -> set[str]:
    return {f.rule for f in report.active}


# ----------------------------------------------------------------------
# call-graph construction
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_module_name_mapping(self) -> None:
        assert module_name("sim/driver.py") == "sim.driver"
        assert module_name("workload/__init__.py") == "workload"
        assert module_name("__init__.py") == ""

    def test_local_and_dotted_edges(self, tmp_path: Path) -> None:
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": """
                    from pkg.b import helper

                    def top():
                        helper()
                        local()

                    def local():
                        pass
                """,
                "pkg/b.py": """
                    def helper():
                        pass
                """,
            },
        )
        import ast

        summaries = []
        for rel in ("pkg/__init__.py", "pkg/a.py", "pkg/b.py"):
            src = (tmp_path / rel).read_text()
            summaries.append(build_module_summary(FileContext(rel, src, ast.parse(src))))
        graph = build_call_graph(summaries)
        callees = {c for _, c in graph.resolved["pkg/a.py::top"]}
        assert callees == {"pkg/b.py::helper", "pkg/a.py::local"}

    def test_cycles_terminate(self) -> None:
        import ast

        src = textwrap.dedent(
            """
            import time

            def ping():
                pong()

            def pong():
                ping()
                time.time()
            """
        )
        s = build_module_summary(FileContext("m.py", src, ast.parse(src)))
        graph = build_call_graph([s])
        effects = propagate_effects(graph)
        assert effects["m.py::ping"] == frozenset({"wall-clock"})
        assert effects["m.py::pong"] == frozenset({"wall-clock"})

    def test_method_override_dispatch(self) -> None:
        import ast

        src = textwrap.dedent(
            """
            import time

            class Base:
                def run(self):
                    return self.hook()

                def hook(self):
                    return 0

            class Derived(Base):
                def hook(self):
                    return time.time()
            """
        )
        s = build_module_summary(FileContext("m.py", src, ast.parse(src)))
        graph = build_call_graph([s])
        callees = {c for _, c in graph.resolved["m.py::Base.run"]}
        # dynamic dispatch: both the inherited and the overriding hook
        assert callees == {"m.py::Base.hook", "m.py::Derived.hook"}
        effects = propagate_effects(graph)
        assert "wall-clock" in effects["m.py::Base.run"]


# ----------------------------------------------------------------------
# effect seeds
# ----------------------------------------------------------------------
class TestEffectSeeds:
    def test_wall_clock_and_rng_seeds(self) -> None:
        s = summary_of(
            """
            import time, os

            def f():
                return time.monotonic() + len(os.urandom(4))
            """
        )
        effects = {seed.effect for seed in s.functions["f"].seeds}
        assert effects == {"wall-clock", "rng"}

    def test_seeded_rng_is_pure(self) -> None:
        s = summary_of(
            """
            import random
            from numpy.random import default_rng

            def f(seed):
                return random.Random(seed).random() + default_rng(seed).random()
            """
        )
        assert s.functions["f"].seeds == ()

    def test_filesystem_seeds(self) -> None:
        s = summary_of(
            """
            import os

            def f(path):
                path.write_text("x")
                os.replace("a", "b")
            """
        )
        assert {seed.effect for seed in s.functions["f"].seeds} == {"filesystem"}

    def test_hash_order_seed_and_sorted_sanction(self) -> None:
        s = summary_of(
            """
            def dirty(pool: set):
                return [x for x in pool]

            def clean(pool: set):
                return [x for x in sorted(pool)]
            """
        )
        assert {seed.effect for seed in s.functions["dirty"].seeds} == {"hash-order"}
        assert s.functions["clean"].seeds == ()

    def test_global_mutation_seed(self) -> None:
        s = summary_of(
            """
            _N = 0

            def bump():
                global _N
                _N += 1
            """
        )
        assert {seed.effect for seed in s.functions["bump"].seeds} == {
            "global-mutation"
        }

    def test_suppressed_seed_does_not_propagate(self, tmp_path: Path) -> None:
        write_tree(
            tmp_path,
            {
                "util/clock.py": """
                    import time

                    def deadline():
                        # repro-lint: disable=RPR002 -- executor deadline, not sim state
                        return time.monotonic()
                """,
                "sim/loop.py": """
                    from util.clock import deadline

                    def step():
                        return deadline()
                """,
            },
        )
        report = lint(tmp_path, select=["RPR007"])
        assert report.active == []


# ----------------------------------------------------------------------
# RPR007 -- transitive nondeterminism taint
# ----------------------------------------------------------------------
class TestRPR007:
    THREE_FRAMES = {
        "core/sched.py": """
            from analysis.stats import summarise

            def decide(queue):
                return summarise(queue)
        """,
        "analysis/stats.py": """
            from analysis.clock import stamp

            def summarise(queue):
                return (len(queue), stamp())
        """,
        "analysis/clock.py": """
            import time

            def stamp():
                return time.time()
        """,
    }

    def test_taint_through_three_frames(self, tmp_path: Path) -> None:
        write_tree(tmp_path, self.THREE_FRAMES)
        report = lint(tmp_path, select=["RPR007"])
        assert [f.rule for f in report.active] == ["RPR007"]
        f = report.active[0]
        # flagged at the perimeter crossing, inside the decision path
        assert f.path == "core/sched.py"
        assert f.symbol == "decide"
        assert "time.time()" in f.message
        assert "summarise -> stamp" in f.message

    def test_sorted_fix_goes_quiet(self, tmp_path: Path) -> None:
        write_tree(
            tmp_path,
            {
                "core/sched.py": """
                    from analysis.stats import summarise

                    def decide(queue):
                        return summarise(queue)
                """,
                "analysis/stats.py": """
                    def summarise(queue):
                        return sorted(queue)
                """,
            },
        )
        assert lint(tmp_path, select=["RPR007"]).active == []

    def test_hash_order_taint(self, tmp_path: Path) -> None:
        write_tree(
            tmp_path,
            {
                "schedulers/pick.py": """
                    from util.sets import first

                    def pick(jobs):
                        return first(jobs)
                """,
                "util/sets.py": """
                    def first(jobs: set):
                        for j in jobs:
                            return j
                """,
            },
        )
        report = lint(tmp_path, select=["RPR007"])
        assert [f.rule for f in report.active] == ["RPR007"]
        assert "hash-order" in report.active[0].message

    def test_patrolled_callee_is_not_double_flagged(self, tmp_path: Path) -> None:
        # the tainted callee lives in sim/ -- itself patrolled, so the
        # caller does not repeat its finding (RPR002 owns the seed site)
        write_tree(
            tmp_path,
            {
                "sim/outer.py": """
                    from sim.inner import now

                    def advance():
                        return now()
                """,
                "sim/inner.py": """
                    import time

                    def now():
                        return time.time()
                """,
            },
        )
        assert lint(tmp_path, select=["RPR007"]).active == []

    def test_tracer_methods_are_patrolled(self, tmp_path: Path) -> None:
        write_tree(
            tmp_path,
            {
                "obs/tracing.py": """
                    from util.ids import fresh_id

                    class EventTracer:
                        def emit(self, event):
                            return (fresh_id(), event)
                """,
                "util/ids.py": """
                    import uuid

                    def fresh_id():
                        return uuid.uuid4()
                """,
            },
        )
        report = lint(tmp_path, select=["RPR007"])
        assert [f.symbol for f in report.active] == ["EventTracer.emit"]


# ----------------------------------------------------------------------
# RPR008 -- exception-flow audit
# ----------------------------------------------------------------------
class TestRPR008:
    def run_rule(self, tmp_path: Path, source: str) -> list[str]:
        write_tree(tmp_path, {"experiments/worker.py": source})
        return [f.rule for f in lint(tmp_path, select=["RPR008"]).active]

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
        # the handler delegates to a helper that raises -- the PR-5
        # run_serial/_charge_failed_attempt shape
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
        """The three ISSUE-8 triage sites must not regress to broad."""
        report = lint_paths(
            [
                REPO_ROOT / "src/repro/cli.py",
                REPO_ROOT / "src/repro/experiments/cache.py",
                REPO_ROOT / "src/repro/experiments/parallel.py",
            ],
            select=["RPR008"],
        )
        assert report.active == []


# ----------------------------------------------------------------------
# RPR009 -- effect-contract drift
# ----------------------------------------------------------------------
class TestRPR009:
    def test_config_acquiring_filesystem_fires(self, tmp_path: Path) -> None:
        write_tree(
            tmp_path,
            {
                "schedulers/bad.py": """
                    from util.disk import snapshot

                    class DriftingScheduler:
                        scheme_id = "drift"

                        def config(self):
                            return {"scheme": self.scheme_id, "snap": snapshot()}
                """,
                "util/disk.py": """
                    def snapshot():
                        with open("/tmp/state") as fh:
                            return fh.read()
                """,
            },
        )
        report = lint(tmp_path, select=["RPR009"])
        assert [f.rule for f in report.active] == ["RPR009"]
        f = report.active[0]
        assert f.symbol == "DriftingScheduler.config"
        assert "filesystem" in f.message

    def test_pure_config_is_quiet(self, tmp_path: Path) -> None:
        write_tree(
            tmp_path,
            {
                "schedulers/good.py": """
                    class SteadyScheduler:
                        scheme_id = "steady"

                        def config(self):
                            return {"scheme": self.scheme_id, "k": self.k}
                """,
            },
        )
        assert lint(tmp_path, select=["RPR009"]).active == []

    def test_fingerprint_function_with_rng_fires(self, tmp_path: Path) -> None:
        write_tree(
            tmp_path,
            {
                "cachemod.py": """
                    import uuid

                    def cell_fingerprint(cfg):
                        return f"{cfg}-{uuid.uuid4()}"
                """,
            },
        )
        report = lint(tmp_path, select=["RPR009"])
        assert [f.symbol for f in report.active] == ["cell_fingerprint"]

    def test_pipeline_stage_config_is_contract(self, tmp_path: Path) -> None:
        write_tree(
            tmp_path,
            {
                "workload/stages.py": """
                    import time

                    class LoadScaleStage:
                        def config(self):
                            return {"stage": "scale", "at": time.time()}
                """,
            },
        )
        report = lint(tmp_path, select=["RPR009"])
        assert [f.symbol for f in report.active] == ["LoadScaleStage.config"]


# ----------------------------------------------------------------------
# sanction closure unit coverage
# ----------------------------------------------------------------------
class TestSanctionClosure:
    def test_closure_reaches_through_chain(self) -> None:
        import ast

        src = textwrap.dedent(
            """
            def a():
                b()

            def b():
                c()

            def c():
                raise RuntimeError("boom")

            def idle():
                return 1
            """
        )
        s = build_module_summary(FileContext("m.py", src, ast.parse(src)))
        graph = build_call_graph([s])
        closure = sanction_closure(graph)
        assert {"m.py::a", "m.py::b", "m.py::c"} <= closure
        assert "m.py::idle" not in closure


# ----------------------------------------------------------------------
# summary cache
# ----------------------------------------------------------------------
FIXTURE_TREE = {
    "core/sched.py": """
        from analysis.stats import summarise

        def decide(queue):
            return summarise(queue)
    """,
    "analysis/stats.py": """
        from analysis.clock import stamp

        def summarise(queue):
            return (len(queue), stamp())
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


class TestSummaryCache:
    def test_warm_run_reanalyses_nothing(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path / "src", FIXTURE_TREE)
        cache_dir = tmp_path / "cache"
        cold = lint(root, summary_cache=cache_dir)
        assert (cold.analyzed, cold.summary_hits) == (len(FIXTURE_TREE), 0)
        warm = lint(root, summary_cache=cache_dir)
        assert (warm.analyzed, warm.summary_hits) == (0, len(FIXTURE_TREE))

    def test_only_changed_module_reanalysed(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path / "src", FIXTURE_TREE)
        cache_dir = tmp_path / "cache"
        lint(root, summary_cache=cache_dir)
        target = root / "analysis" / "clock.py"
        target.write_text(target.read_text() + "\n# changed\n")
        touched = lint(root, summary_cache=cache_dir)
        assert (touched.analyzed, touched.summary_hits) == (1, len(FIXTURE_TREE) - 1)

    def test_warm_and_cold_reports_byte_identical(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path / "src", FIXTURE_TREE)
        cache_dir = tmp_path / "cache"
        cold = lint(root, summary_cache=cache_dir)
        warm = lint(root, summary_cache=cache_dir)
        nocache = lint(root)
        assert render_human(cold) == render_human(warm) == render_human(nocache)
        assert (
            render_sarif(cold, uri_base="src")
            == render_sarif(warm, uri_base="src")
            == render_sarif(nocache, uri_base="src")
        )

    def test_select_bypasses_cache(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path / "src", FIXTURE_TREE)
        cache_dir = tmp_path / "cache"
        lint(root, summary_cache=cache_dir, select=["RPR001"])
        # nothing was stored: the next full run is entirely cold
        full = lint(root, summary_cache=cache_dir)
        assert full.summary_hits == 0

    def test_corrupt_entry_quarantined_and_reanalysed(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path / "src", FIXTURE_TREE)
        cache = SummaryCache(tmp_path / "cache")
        lint(root, summary_cache=cache)
        source = (root / "core" / "sched.py").read_text(encoding="utf-8")
        key = entry_key("core/sched.py", source)
        victim = cache._path(key)
        victim.write_bytes(b"not a pickle")
        probe = SummaryCache(tmp_path / "cache")
        report = lint(root, summary_cache=probe)
        assert report.analyzed == 1
        assert probe.corrupt == 1
        assert victim.with_name(victim.name + ".corrupt").exists()
        assert render_human(report) == render_human(lint(root))

    def test_analyzer_fingerprint_keys_the_entry(self) -> None:
        # same source, same relpath -> same key; the analyser hash is a
        # stable prefix ingredient (editing any lint module changes it,
        # which is exercised implicitly by every PR touching the linter)
        assert entry_key("a.py", "x = 1\n") == entry_key("a.py", "x = 1\n")
        assert entry_key("a.py", "x = 1\n") != entry_key("b.py", "x = 1\n")
        assert len(analyzer_fingerprint()) == 64

    def test_cached_payload_is_a_file_result(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path / "src", FIXTURE_TREE)
        cache = SummaryCache(tmp_path / "cache")
        lint(root, summary_cache=cache)
        source = (root / "core" / "sched.py").read_text(encoding="utf-8")
        payload = cache._path(entry_key("core/sched.py", source))
        with payload.open("rb") as fh:
            result = pickle.load(fh)
        assert result.relpath == "core/sched.py"
        assert result.summary is not None
        assert "decide" in result.summary.functions


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
        root = write_tree(tmp_path, self.TREE)
        report = lint(root, report_unused_suppressions=True)
        assert [f.rule for f in report.active] == ["RPR000"]
        f = report.active[0]
        assert "unused suppression" in f.message and "RPR001" in f.message
        assert f.line == 5

    def test_audit_off_by_default(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path, self.TREE)
        assert lint(root).active == []

    def test_seed_suppression_counts_as_used(self, tmp_path: Path) -> None:
        # the directive fires only through taint-seed exclusion (the
        # call sits outside any per-file RPR002 finding's reach because
        # we select RPR007 paths), yet it must not be reported stale
        root = write_tree(
            tmp_path,
            {
                "util/clock.py": """
                    import time

                    def deadline():
                        # repro-lint: disable=RPR002 -- executor deadline
                        return time.monotonic()
                """,
            },
        )
        report = lint(root, report_unused_suppressions=True)
        assert report.active == []


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
class TestSarif:
    def test_document_shape(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path / "src", FIXTURE_TREE)
        doc = json.loads(render_sarif(lint(root), uri_base="src"))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert {"RPR007", "RPR008", "RPR009"} <= set(rule_ids)
        assert run["results"], "fixture tree must produce findings"
        for res in run["results"]:
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"].startswith("src/")
            assert loc["region"]["startLine"] >= 1
            assert res["partialFingerprints"]["reproLint/v1"]

    def test_baselined_findings_carry_suppressions(self, tmp_path: Path) -> None:
        from repro.lint.baseline import Baseline

        root = write_tree(tmp_path / "src", FIXTURE_TREE)
        raw = lint(root)
        baseline = Baseline(path=tmp_path / "baseline.json")
        baseline.absorb(raw.active)
        for entry in baseline.entries.values():
            entry["justification"] = "accepted for the fixture"
        report = lint(root, baseline=baseline)
        doc = json.loads(render_sarif(report, uri_base="src"))
        results = doc["runs"][0]["results"]
        assert results and all(
            r["suppressions"] == [{"kind": "external"}] for r in results
        )


# ----------------------------------------------------------------------
# determinism: worker counts and hash seeds
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_parallel_equals_serial(self, tmp_path: Path) -> None:
        root = write_tree(tmp_path / "src", FIXTURE_TREE)
        serial = lint(root, jobs=1)
        parallel = lint(root, jobs=3)
        assert render_human(serial) == render_human(parallel)
        assert render_sarif(serial, uri_base="src") == render_sarif(
            parallel, uri_base="src"
        )

    @pytest.mark.parametrize("fmt", ["human", "sarif"])
    def test_output_invariant_across_hash_seeds_and_jobs(
        self, tmp_path: Path, fmt: str
    ) -> None:
        root = write_tree(tmp_path / "src", FIXTURE_TREE)
        outputs = set()
        for seed, jobs in (("0", "1"), ("1", "2"), ("4242", "3")):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.lint.cli",
                    "--no-baseline",
                    "--jobs",
                    jobs,
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
        assert len(outputs) == 1, "lint output varies with hash seed / workers"
