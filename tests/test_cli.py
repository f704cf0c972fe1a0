"""CLI entry points (small sizes to keep the suite fast)."""

from __future__ import annotations

import pytest

from repro.cli import (
    EXPERIMENTS,
    SCHEDULER_ALIASES,
    _build_scheduler,
    build_parser,
    main,
)
from repro.schedulers.registry import known_schemes


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["run", "--trace", "SDSC", "--scheduler", "ss"])
    assert args.command == "run"
    assert args.trace == "SDSC"


def test_run_command(capsys):
    rc = main(["run", "--trace", "SDSC", "--jobs", "120", "--scheduler", "easy"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "EASY" in out
    assert "mean slowdown by category" in out


def test_run_with_ss_and_overhead(capsys):
    rc = main(
        [
            "run",
            "--trace",
            "SDSC",
            "--jobs",
            "100",
            "--scheduler",
            "ss",
            "--sf",
            "1.5",
            "--overhead",
        ]
    )
    assert rc == 0
    assert "SS(SF=1.5)" in capsys.readouterr().out


def test_run_with_load_scaling(capsys):
    rc = main(["run", "--trace", "SDSC", "--jobs", "100", "--load", "1.3"])
    assert rc == 0


def test_run_unknown_scheduler():
    with pytest.raises(SystemExit):
        main(["run", "--scheduler", "bogus", "--jobs", "10"])


@pytest.mark.parametrize(
    "option, value",
    [("--cell-timeout", "0"), ("--cell-retries", "-2"), ("--workers", "-3")],
)
def test_invalid_grid_options_are_usage_errors(option, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["compare", "--trace", "SDSC", "--jobs", "20", option, value])
    assert excinfo.value.code == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, named",
    [("--sf", "nan", "suspension_factor"), ("--sf", "0.5", "suspension_factor"),
     ("--jobs", "0", "n_jobs"), ("--jobs", "-5", "n_jobs"), ("--load", "0", "load factor"),
     ("--load", "nan", "load factor"), ("--trace", "FOO", "'FOO'")],
)
def test_invalid_run_options_are_usage_errors(option, value, named, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--jobs", "20", option, value])
    assert excinfo.value.code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, named",
    [("--trace", "NOPE", "'NOPE'"), ("--jobs", "0", "n_jobs"), ("--jobs", "-5", "n_jobs")],
)
def test_invalid_experiment_options_are_usage_errors(option, value, named, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "tables-4-5", "--jobs", "20", option, value])
    assert excinfo.value.code == 2
    assert named in capsys.readouterr().err


def test_compare_command(capsys):
    rc = main(["compare", "--trace", "SDSC", "--jobs", "100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "No Suspension" in out
    assert "IS" in out


def test_experiment_list(capsys):
    rc = main(["experiment", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_experiment_unknown_id(capsys):
    rc = main(["experiment", "nope"])
    assert rc == 2


def test_experiment_no_id_returns_error(capsys):
    rc = main(["experiment"])
    assert rc == 2


def test_experiment_figs_4_6(capsys):
    rc = main(["experiment", "figs-4-6"])
    assert rc == 0
    assert "SF=2" in capsys.readouterr().out


def test_experiment_tables_4_5_small(capsys):
    rc = main(["experiment", "tables-4-5", "--trace", "SDSC", "--jobs", "150"])
    assert rc == 0
    assert "Table V" in capsys.readouterr().out


def test_run_from_swf_file(tmp_path, capsys):
    from repro.workload.swf import jobs_to_swf_records, write_swf
    from repro.workload.synthetic import generate_trace

    jobs = generate_trace("SDSC", n_jobs=80, seed=3)
    path = tmp_path / "t.swf"
    write_swf(path, jobs_to_swf_records(jobs))
    rc = main(
        ["run", "--trace", "SDSC", "--swf", str(path), "--scheduler", "easy"]
    )
    assert rc == 0
    assert "EASY" in capsys.readouterr().out


def _header_log(tmp_path, header="; MaxProcs: 128\n"):
    """Three jobs: 16, 200 and 4 processors wide."""
    path = tmp_path / "hdr.swf"
    path.write_text(
        header
        + "1 0 -1 3600 16 -1 -1 16 7200 -1 1 5 2 -1 1 -1 -1 -1\n"
        + "2 10 -1 3600 200 -1 -1 200 7200 -1 1 5 2 -1 1 -1 -1 -1\n"
        + "3 20 -1 60 4 -1 -1 4 70 -1 1 5 2 -1 1 -1 -1 -1\n"
    )
    return str(path)


def test_swf_machine_size_comes_from_the_header(tmp_path, capsys):
    """``MaxProcs: 128`` sets the machine and the width cap; the report
    is titled by the log, not by a preset the log never ran on."""
    log = _header_log(tmp_path)
    assert main(["inspect", "--swf", log]) == 0
    out = capsys.readouterr().out
    assert "jobs: 2 " in out  # the 200-wide job cannot run on 128
    assert "% of 128" in out
    assert main(["run", "--swf", log, "--scheduler", "easy"]) == 0
    assert "hdr.swf: EASY" in capsys.readouterr().out


def test_swf_explicit_trace_overrides_the_header(tmp_path, capsys):
    log = _header_log(tmp_path)
    assert main(["inspect", "--swf", log, "--trace", "CTC"]) == 0
    out = capsys.readouterr().out
    assert "jobs: 3 " in out
    assert "% of 430" in out


def test_swf_without_header_size_or_trace_is_a_usage_error(tmp_path, capsys):
    log = _header_log(tmp_path, header="; Computer: unknown\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--swf", log])
    assert excinfo.value.code == 2
    assert "--trace" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value", [("--estimates", "inaccurate"), ("--estimates", "accurate"), ("--seed", "9")]
)
def test_generator_options_with_swf_are_usage_errors(tmp_path, option, value, capsys):
    """The log keeps its own estimates, so these options would be ignored."""
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--swf", _header_log(tmp_path), "--scheduler", "easy", option, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert option in err
    assert "workload stats/replay --estimates" in err


@pytest.mark.parametrize("name", sorted({*known_schemes(), *SCHEDULER_ALIASES}))
def test_run_all_scheduler_names(name, capsys):
    args = build_parser().parse_args(["run", "--scheduler", name])
    assert _build_scheduler(args).scheme_id == SCHEDULER_ALIASES.get(name, name)
    rc = main(["run", "--trace", "SDSC", "--jobs", "80", "--scheduler", name])
    assert rc == 0
    assert "mean slowdown by category" in capsys.readouterr().out


# ----------------------------------------------------------------------
# `trace` subcommands (docs/TRACING.md)
# ----------------------------------------------------------------------
def _record_small_trace(tmp_path, capsys, scheduler="ss"):
    out = tmp_path / f"{scheduler}.jsonl"
    rc = main(
        [
            "trace",
            "record",
            "--trace",
            "SDSC",
            "--jobs",
            "120",
            "--seed",
            "9",
            "--load",
            "1.2",
            "--scheduler",
            scheduler,
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out, capsys.readouterr().out


def test_trace_record_then_summarize_round_trip(tmp_path, capsys):
    """`record` prints the replayed summary; `summarize` must print the

    byte-identical block -- output equality IS the round-trip check."""
    out, recorded = _record_small_trace(tmp_path, capsys)
    assert out.exists() and out.stat().st_size > 0
    assert "run_end check      consistent with driver totals" in recorded
    rc = main(["trace", "summarize", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == recorded


def test_trace_filter_by_type_and_job(tmp_path, capsys):
    import json

    out, _ = _record_small_trace(tmp_path, capsys)
    rc = main(["trace", "filter", str(out), "--type", "decision"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    events = [json.loads(line) for line in lines]
    assert all(e["type"] == "decision" for e in events)
    jid = events[0]["job"]
    rc = main(["trace", "filter", str(out), "--job", str(jid)])
    assert rc == 0
    per_job = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert per_job and all(e["job"] == jid for e in per_job)


def test_trace_gantt_ascii_and_csv(tmp_path, capsys):
    out, _ = _record_small_trace(tmp_path, capsys)
    rc = main(["trace", "gantt", str(out), "--width", "40"])
    assert rc == 0
    chart = capsys.readouterr().out
    assert "legend:" in chart and "columns" in chart
    rc = main(["trace", "gantt", str(out), "--csv"])
    assert rc == 0
    csv_text = capsys.readouterr().out
    assert csv_text.startswith("job,start,end,duration,width,area,end_type,via,resumed")


@pytest.mark.parametrize(
    "option, value", [("--width", "0"), ("--max-jobs", "0"), ("--max-jobs", "-2")]
)
def test_invalid_gantt_options_are_usage_errors(tmp_path, option, value, capsys):
    out, _ = _record_small_trace(tmp_path, capsys)
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "gantt", str(out), option, value])
    assert excinfo.value.code == 2
    assert f"{option} must be at least 1" in capsys.readouterr().err


def test_trace_record_all_scheduler_names(tmp_path, capsys):
    for name in ("easy", "tss", "is", "speculative"):
        out, recorded = _record_small_trace(tmp_path, capsys, scheduler=name)
        assert "trace summary:" in recorded


def test_compare_with_trace_dir(tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    rc = main(
        [
            "compare",
            "--trace",
            "SDSC",
            "--jobs",
            "100",
            "--trace-dir",
            str(trace_dir),
        ]
    )
    assert rc == 0
    assert "No Suspension" in capsys.readouterr().out
    written = sorted(p.name for p in trace_dir.glob("*.jsonl"))
    assert len(written) >= 3  # one per compared scheme
    from repro.obs import read_trace, summarize_trace

    for path in trace_dir.glob("*.jsonl"):
        assert summarize_trace(read_trace(path)).matches_run_end is True


# ----------------------------------------------------------------------
# the workload family (streaming SWF pipeline)
# ----------------------------------------------------------------------
@pytest.fixture()
def swf_log(tmp_path):
    from repro.workload.swf import write_synthetic_swf

    path = tmp_path / "demo.swf"
    write_synthetic_swf(path, n_jobs=200, n_procs=128)
    return str(path)


def test_workload_validate_clean(swf_log, capsys):
    rc = main(["workload", "validate", swf_log])
    assert rc == 0
    out = capsys.readouterr().out
    assert "records" in out
    assert "clean" in out


def test_workload_validate_flags_dirty_log(tmp_path, capsys):
    path = tmp_path / "dirty.swf"
    path.write_text(
        "; MaxProcs: 128\n"
        "1 0 -1 3600 16 -1 -1 16 7200 -1 1 5 2 -1 1 -1 -1 -1\n"
        "not an swf line\n"
    )
    rc = main(["workload", "validate", str(path)])
    assert rc == 1
    assert "malformed" in capsys.readouterr().out


def test_workload_stats(swf_log, capsys):
    rc = main(["workload", "stats", swf_log])
    assert rc == 0
    out = capsys.readouterr().out
    assert "jobs" in out
    assert "offered demand" in out


def test_workload_stats_with_pipeline(swf_log, capsys):
    rc = main(["workload", "stats", swf_log, "--load", "1.3",
               "--estimates", "inaccurate", "--seed", "9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pipeline: load_scale -> estimates" in out


def test_workload_stats_needs_procs_without_header(tmp_path):
    path = tmp_path / "bare.swf"
    path.write_text("1 0 -1 3600 16 -1 -1 16 7200 -1 1 5 2 -1 1 -1 -1 -1\n")
    with pytest.raises(SystemExit, match="--procs"):
        main(["workload", "stats", str(path)])


@pytest.mark.parametrize("command", ["stats", "replay"])
def test_workload_commands_parse_each_line_once(swf_log, command, monkeypatch, capsys):
    """Without --procs the machine size comes from the header alone."""
    from repro.workload.swf import SWFRecord

    parsed = []
    parse = SWFRecord.from_line
    monkeypatch.setattr(SWFRecord, "from_line", lambda line: parsed.append(line) or parse(line))
    assert main(["workload", command, swf_log]) == 0
    assert len(parsed) == 200


@pytest.mark.parametrize(
    "command, option, value, named",
    [
        ("stats", "--load", "0", "load factor"),
        ("stats", "--load", "nan", "load factor"),
        ("stats", "--load", "inf", "load factor"),
        ("replay", "--load", "0", "load factor"),
        ("replay", "--load", "nan", "load factor"),
        ("replay", "--load", "inf", "load factor"),
        ("replay", "--window", "0", "--window"),
        ("replay", "--window", "-1", "--window"),
        ("replay", "--window", "nan", "--window"),
        ("replay", "--batch-size", "0", "--batch-size"),
        ("stats", "--procs", "0", "--procs"),
        ("stats", "--procs", "-4", "--procs"),
        ("replay", "--procs", "-4", "--procs"),
    ],
)
def test_invalid_workload_options_are_usage_errors(
    swf_log, command, option, value, named, capsys
):
    with pytest.raises(SystemExit) as excinfo:
        main(["workload", command, swf_log, option, value])
    assert excinfo.value.code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "stats", "replay"])
def test_missing_workload_log_is_a_usage_error(tmp_path, command, capsys):
    missing = str(tmp_path / "missing.swf")
    with pytest.raises(SystemExit) as excinfo:
        main(["workload", command, missing])
    assert excinfo.value.code == 2
    assert missing in capsys.readouterr().err


def test_workload_replay(swf_log, capsys):
    rc = main(["workload", "replay", swf_log, "--scheduler", "easy",
               "--window", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "shards:" in out
    assert "outcome fingerprint:" in out
    assert "mean slowdown per category" in out


def test_workload_replay_fingerprint_reproducible(swf_log, capsys):
    main(["workload", "replay", swf_log, "--window", "6"])
    first = capsys.readouterr().out
    main(["workload", "replay", swf_log, "--window", "6", "--batch-size", "3"])
    second = capsys.readouterr().out

    def fp(out):
        return next(
            line for line in out.splitlines() if line.startswith("outcome fingerprint:")
        )

    assert fp(first) == fp(second)


def test_workload_replay_with_trace_dir(swf_log, tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    rc = main(["workload", "replay", swf_log, "--window", "6",
               "--trace-dir", str(trace_dir)])
    assert rc == 0
    traces = list(trace_dir.glob("shard*.jsonl"))
    assert traces  # one JSONL per shard
