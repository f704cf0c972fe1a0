"""SWF parsing, writing and job conversion."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.swf import (
    SWFReader,
    SWFRecord,
    format_scan_report,
    iter_swf,
    jobs_from_swf_records,
    jobs_to_swf_records,
    parse_header_directive,
    read_swf,
    read_swf_header,
    scan_swf,
    stream_jobs,
    stream_swf,
    write_swf,
    write_synthetic_swf,
)

GOOD_LINE = "1 0 10 3600 16 -1 -1 16 7200 -1 1 5 2 -1 1 -1 -1 -1"


def test_parse_good_line():
    rec = SWFRecord.from_line(GOOD_LINE)
    assert rec.job_number == 1
    assert rec.submit_time == 0.0
    assert rec.run_time == 3600.0
    assert rec.requested_procs == 16
    assert rec.requested_time == 7200.0
    assert rec.user_id == 5


def test_parse_rejects_wrong_field_count():
    with pytest.raises(ValueError, match="fields"):
        SWFRecord.from_line("1 2 3")


def test_parse_rejects_nonnumeric():
    bad = GOOD_LINE.replace("3600", "xyz")
    with pytest.raises(ValueError):
        SWFRecord.from_line(bad)


def test_iter_swf_skips_comments_and_blanks():
    stream = io.StringIO(f"; UnixStartTime: 0\n\n{GOOD_LINE}\n;\n{GOOD_LINE}\n")
    records = list(iter_swf(stream))
    assert len(records) == 2


def test_iter_swf_reports_line_numbers():
    stream = io.StringIO(f"{GOOD_LINE}\nbroken line here\n")
    with pytest.raises(ValueError, match="line 2"):
        list(iter_swf(stream))


def test_round_trip_through_file(tmp_path):
    rec = SWFRecord.from_line(GOOD_LINE)
    path = tmp_path / "trace.swf"
    n = write_swf(path, [rec, rec], header={"MaxNodes": "128"})
    assert n == 2
    back = read_swf(path)
    assert len(back) == 2
    assert back[0] == rec
    assert read_swf_header(path) == {"MaxNodes": "128"}


def test_to_line_is_parseable():
    rec = SWFRecord.from_line(GOOD_LINE)
    assert SWFRecord.from_line(rec.to_line()) == rec


# ----------------------------------------------------------------------
# conversion to Jobs
# ----------------------------------------------------------------------
def _rec(
    job=1, submit=0.0, run=100.0, req_procs=4, req_time=200.0, alloc=4, mem_kb=-1.0
) -> SWFRecord:
    return SWFRecord(
        job_number=job,
        submit_time=submit,
        wait_time=-1.0,
        run_time=run,
        allocated_procs=alloc,
        avg_cpu_time=-1.0,
        used_memory_kb=-1.0,
        requested_procs=req_procs,
        requested_time=req_time,
        requested_memory_kb=mem_kb,
        status=1,
        user_id=3,
        group_id=-1,
        executable=-1,
        queue=-1,
        partition=-1,
        preceding_job=-1,
        think_time=-1.0,
    )


def test_jobs_basic_conversion():
    jobs = jobs_from_swf_records([_rec()])
    assert len(jobs) == 1
    j = jobs[0]
    assert j.run_time == 100.0
    assert j.estimate == 200.0
    assert j.procs == 4
    assert j.user == 3


def test_jobs_drop_nonpositive_runtime():
    jobs = jobs_from_swf_records([_rec(run=-1.0), _rec(job=2, run=0.0), _rec(job=3)])
    assert [j.job_id for j in jobs] == [3]


def test_jobs_drop_too_wide():
    jobs = jobs_from_swf_records([_rec(req_procs=64), _rec(job=2)], max_procs=32)
    assert [j.job_id for j in jobs] == [2]


def test_jobs_fall_back_to_allocated_procs():
    jobs = jobs_from_swf_records([_rec(req_procs=-1, alloc=8)])
    assert jobs[0].procs == 8


def test_jobs_missing_estimate_falls_back_to_runtime():
    jobs = jobs_from_swf_records([_rec(req_time=-1.0)])
    assert jobs[0].estimate == 100.0


def test_jobs_clamp_tiny_runtime():
    jobs = jobs_from_swf_records([_rec(run=0.4)], min_run_time=1.0)
    assert jobs[0].run_time == 1.0


def test_jobs_preserve_underestimates():
    """Real logs contain estimate < run time; the loader must not hide it."""
    jobs = jobs_from_swf_records([_rec(run=500.0, req_time=100.0)])
    assert jobs[0].estimate == 100.0
    assert jobs[0].run_time == 500.0


def test_jobs_rebase_to_zero():
    jobs = jobs_from_swf_records([_rec(submit=1000.0), _rec(job=2, submit=1500.0)])
    assert jobs[0].submit_time == 0.0
    assert jobs[1].submit_time == 500.0


def test_jobs_rebase_optional():
    jobs = jobs_from_swf_records([_rec(submit=1000.0)], rebase_time=False)
    assert jobs[0].submit_time == 1000.0


def test_jobs_sorted_by_submit():
    jobs = jobs_from_swf_records([_rec(job=1, submit=500.0), _rec(job=2, submit=100.0)])
    assert [j.job_id for j in jobs] == [2, 1]


def test_memory_kb_to_mb_conversion():
    jobs = jobs_from_swf_records([_rec(mem_kb=512000.0)])
    assert jobs[0].memory_mb == pytest.approx(500.0)


def test_jobs_to_swf_round_trip():
    jobs = jobs_from_swf_records([_rec()])
    recs = jobs_to_swf_records(jobs)
    back = jobs_from_swf_records(recs)
    assert back[0].run_time == jobs[0].run_time
    assert back[0].procs == jobs[0].procs
    assert back[0].estimate == jobs[0].estimate


# ----------------------------------------------------------------------
# streaming reader
# ----------------------------------------------------------------------
def _swf_file(tmp_path, lines, header=None):
    path = tmp_path / "log.swf"
    text = ""
    for key, value in (header or {}).items():
        text += f"; {key}: {value}\n"
    text += "".join(line + "\n" for line in lines)
    path.write_text(text)
    return path


def test_reader_header_and_records(tmp_path):
    path = _swf_file(
        tmp_path,
        [GOOD_LINE],
        header={"Computer": "IBM SP2", "MaxProcs": "128", "UnixStartTime": "840000000"},
    )
    with SWFReader(path) as reader:
        assert reader.header.computer == "IBM SP2"
        assert reader.header.max_procs == 128
        assert reader.header.unix_start_time == 840000000
        assert reader.header.machine_procs() == 128
        records = list(reader)
    assert len(records) == 1
    assert records[0] == SWFRecord.from_line(GOOD_LINE)


def test_reader_machine_procs_falls_back_to_max_nodes(tmp_path):
    path = _swf_file(tmp_path, [GOOD_LINE], header={"MaxNodes": "64"})
    with SWFReader(path) as reader:
        assert reader.header.max_procs is None
        assert reader.header.machine_procs() == 64


def test_reader_header_tolerates_garbage_values(tmp_path):
    path = _swf_file(tmp_path, [GOOD_LINE], header={"MaxProcs": "lots"})
    with SWFReader(path) as reader:
        assert reader.header.max_procs is None
        assert reader.header.directives["MaxProcs"] == "lots"


def test_reader_is_single_pass(tmp_path):
    path = _swf_file(tmp_path, [GOOD_LINE])
    with SWFReader(path) as reader:
        assert len(list(reader)) == 1
        with pytest.raises(RuntimeError, match="single-pass"):
            list(reader)


def test_reader_malformed_raise_names_line(tmp_path):
    path = _swf_file(tmp_path, [GOOD_LINE, "this is not swf"])
    with SWFReader(path) as reader:
        with pytest.raises(ValueError, match="line 2"):
            list(reader)


def test_reader_malformed_skip_counts(tmp_path):
    path = _swf_file(tmp_path, [GOOD_LINE, "broken", GOOD_LINE])
    with SWFReader(path, on_malformed="skip") as reader:
        records = list(reader)
    assert len(records) == 2
    assert reader.malformed_lines == 1
    assert reader.records_read == 2


def test_reader_rejects_bad_policy(tmp_path):
    with pytest.raises(ValueError, match="on_malformed"):
        SWFReader("whatever.swf", on_malformed="explode")


def test_reader_iter_chunks(tmp_path):
    path = _swf_file(tmp_path, [GOOD_LINE] * 5)
    with SWFReader(path) as reader:
        chunks = list(reader.iter_chunks(2))
    assert [len(c) for c in chunks] == [2, 2, 1]


def test_stream_swf_matches_read_swf(tmp_path):
    path = _swf_file(tmp_path, [GOOD_LINE] * 3, header={"MaxProcs": "128"})
    assert list(stream_swf(path)) == read_swf(path)


def test_parse_header_directive():
    assert parse_header_directive("; MaxProcs: 128") == ("MaxProcs", "128")
    assert parse_header_directive(";Computer: SP2 ") == ("Computer", "SP2")
    assert parse_header_directive("; just a comment") is None
    assert parse_header_directive("1 2 3") is None


# ----------------------------------------------------------------------
# validation scan
# ----------------------------------------------------------------------
def test_scan_clean_log(tmp_path):
    path = _swf_file(tmp_path, [GOOD_LINE], header={"MaxProcs": "128"})
    header, report = scan_swf(path)
    assert header.max_procs == 128
    assert report.records == 1
    assert report.clean


def test_scan_counts_anomalies_with_examples(tmp_path):
    wide = _rec(job=7, req_procs=999).to_line()
    backwards = _rec(job=8, submit=-50.0).to_line()
    path = _swf_file(
        tmp_path,
        [GOOD_LINE, wide, backwards, "garbage"],
        header={"MaxProcs": "128"},
    )
    _, report = scan_swf(path)
    assert not report.clean
    assert report.too_wide == 1
    assert report.out_of_order_submits == 1
    assert report.malformed_lines == 1
    assert report.examples["too_wide"] == [7]
    assert report.examples["out_of_order_submits"] == [8]
    assert "out-of-order" in format_scan_report(report)


def test_scan_without_machine_size_skips_width_check(tmp_path):
    path = _swf_file(tmp_path, [_rec(req_procs=999).to_line()])
    _, report = scan_swf(path)
    assert report.too_wide == 0
    assert report.machine_procs is None


# ----------------------------------------------------------------------
# streaming job conversion
# ----------------------------------------------------------------------
def test_stream_jobs_matches_eager():
    records = [
        _rec(job=1, submit=0.0),
        _rec(job=2, submit=10.0, run=-1.0),       # dropped: bad run time
        _rec(job=3, submit=20.0, req_procs=400),  # dropped: too wide
        _rec(job=4, submit=30.0, req_time=-1.0),  # estimate falls back
    ]
    eager = jobs_from_swf_records(records, max_procs=128)
    streamed = list(stream_jobs(iter(records), max_procs=128))
    assert [(j.job_id, j.submit_time, j.run_time, j.estimate, j.procs) for j in eager] \
        == [(j.job_id, j.submit_time, j.run_time, j.estimate, j.procs) for j in streamed]
    # the eager path sorts by (submit clamped at 0, job number) first
    messy = [
        _rec(job=7, submit=500.0),
        _rec(job=5, submit=-20.0, run=0.4),                # submit -> 0, run -> 1 s
        _rec(job=5, submit=100.0, req_procs=-1, alloc=8),  # duplicate id; allocated width
        _rec(job=6, submit=50.0, req_procs=-1, alloc=-1),  # dropped: no positive width
        _rec(job=2, submit=100.0, run=0.0),                # dropped: bad run time
        _rec(job=3, submit=100.0),
    ]
    assert [
        (j.job_id, j.submit_time, j.run_time, j.estimate, j.procs)
        for j in jobs_from_swf_records(messy, max_procs=128)
    ] == [
        (5, 0.0, 1.0, 200.0, 4),
        (3, 100.0, 100.0, 200.0, 4),
        (5, 100.0, 100.0, 200.0, 8),
        (7, 500.0, 100.0, 200.0, 4),
    ]


def test_stream_jobs_requires_sorted():
    records = [_rec(job=1, submit=100.0), _rec(job=2, submit=50.0)]
    with pytest.raises(ValueError, match="submit-sorted"):
        list(stream_jobs(iter(records)))
    unsorted = list(
        stream_jobs(iter(records), require_sorted=False, rebase_time=False)
    )
    assert [j.job_id for j in unsorted] == [1, 2]


def test_stream_jobs_drop_interactive():
    records = [_rec(job=1), _rec(job=2)]
    interactive = SWFRecord(**{**records[1].__dict__, "queue": 0})
    kept = list(stream_jobs(iter([records[0], interactive]), drop_interactive=True))
    assert [j.job_id for j in kept] == [1]


def test_stream_jobs_status_filter():
    completed = _rec(job=1)
    cancelled = SWFRecord(**{**_rec(job=2, submit=1.0).__dict__, "status": 5})
    unrecorded = SWFRecord(**{**_rec(job=3, submit=2.0).__dict__, "status": -1})
    kept = list(
        stream_jobs(
            iter([completed, cancelled, unrecorded]),
            keep_statuses=frozenset({1}),
        )
    )
    assert [j.job_id for j in kept] == [1, 3]  # -1 (unrecorded) always kept


def test_write_synthetic_swf_streams_cleanly(tmp_path):
    path = tmp_path / "synth.swf"
    write_synthetic_swf(path, n_jobs=200, n_procs=128)
    header, report = scan_swf(path)
    assert header.max_procs == 128
    assert report.records == 200
    assert report.clean
    jobs = list(stream_jobs(stream_swf(path), max_procs=128))
    assert len(jobs) == 200


# ----------------------------------------------------------------------
# property: write -> stream-read round trip
# ----------------------------------------------------------------------
@st.composite
def swf_records(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    submits = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=10**6), min_size=n, max_size=n
            )
        )
    )
    records = []
    for i, submit in enumerate(submits, start=1):
        records.append(
            SWFRecord(
                job_number=i,
                submit_time=float(submit),
                wait_time=float(draw(st.integers(min_value=-1, max_value=10**5))),
                run_time=float(draw(st.integers(min_value=-1, max_value=10**5))),
                allocated_procs=draw(st.integers(min_value=-1, max_value=512)),
                avg_cpu_time=-1.0,
                used_memory_kb=-1.0,
                requested_procs=draw(st.integers(min_value=-1, max_value=512)),
                requested_time=float(draw(st.integers(min_value=-1, max_value=10**5))),
                requested_memory_kb=-1.0,
                status=draw(st.sampled_from([-1, 0, 1, 5])),
                user_id=draw(st.integers(min_value=-1, max_value=100)),
                group_id=-1,
                executable=-1,
                queue=draw(st.sampled_from([-1, 0, 1, 7])),
                partition=-1,
                preceding_job=-1,
                think_time=-1.0,
            )
        )
    return records


@given(records=swf_records())
@settings(max_examples=40, deadline=None)
def test_write_then_stream_read_round_trip(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("swf-rt") / "rt.swf"
    write_swf(path, records, header={"MaxProcs": "512"})
    back = list(stream_swf(path))
    assert back == records
    # and the streaming job conversion agrees with the eager one
    eager = jobs_from_swf_records(records, max_procs=512)
    streamed = list(stream_jobs(iter(records), max_procs=512))
    assert [(j.job_id, j.submit_time, j.run_time, j.estimate, j.procs, j.user)
            for j in eager] == \
           [(j.job_id, j.submit_time, j.run_time, j.estimate, j.procs, j.user)
            for j in streamed]
