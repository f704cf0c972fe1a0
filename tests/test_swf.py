"""SWF parsing, writing and job conversion."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.swf import (
    SWFHeader,
    SWFRecord,
    format_scan_report,
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


def test_iter_swf_skips_comments_and_blanks(tmp_path):
    """Blank and ``;`` lines are skipped before and after the first record."""
    path = tmp_path / "log.swf"
    path.write_text(f"; UnixStartTime: 0\n\n{GOOD_LINE}\n;\n  \n{GOOD_LINE}\n")
    assert list(stream_swf(path)) == [SWFRecord.from_line(GOOD_LINE)] * 2


def test_iter_swf_reports_line_numbers(tmp_path):
    path = tmp_path / "log.swf"
    path.write_text(f"; MaxProcs: 8\n\n{GOOD_LINE}\nbroken line here\n")
    with pytest.raises(ValueError, match="line 4"):
        list(stream_swf(path))


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


def test_non_finite_run_time_is_rejected_not_streamed():
    """``nan`` parses as a float and passes the ``run_time <= 0`` filter;
    the job it would become is refused, on both conversion paths."""
    rec = SWFRecord.from_line("1 0 0 nan 4 -1 -1 4 3600 -1 1 1 1 1 1 -1 -1 -1")
    with pytest.raises(ValueError, match="job 1: run_time must be finite"):
        list(stream_jobs([rec]))
    with pytest.raises(ValueError, match="job 1: run_time must be finite"):
        jobs_from_swf_records([rec])


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
    """Run time and estimate both get the 1 s floor."""
    jobs = jobs_from_swf_records([_rec(run=0.4, req_time=0.5)])
    assert jobs[0].run_time == 1.0
    assert jobs[0].estimate == 1.0


def test_jobs_preserve_underestimates():
    """Real logs contain estimate < run time; the loader must not hide it."""
    jobs = jobs_from_swf_records([_rec(run=500.0, req_time=100.0)])
    assert jobs[0].estimate == 100.0
    assert jobs[0].run_time == 500.0


def test_jobs_rebase_to_zero():
    jobs = jobs_from_swf_records([_rec(submit=1000.0), _rec(job=2, submit=1500.0)])
    assert jobs[0].submit_time == 0.0
    assert jobs[1].submit_time == 500.0


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
    directives = read_swf_header(path)
    assert directives == {
        "Computer": "IBM SP2", "MaxProcs": "128", "UnixStartTime": "840000000"
    }
    header = SWFHeader(directives)
    assert header.computer == "IBM SP2"
    assert header.max_procs == 128
    assert header.machine_procs() == 128
    assert list(stream_swf(path)) == [SWFRecord.from_line(GOOD_LINE)]


def test_header_keeps_first_directive_and_stops_at_data(tmp_path):
    """A repeated key keeps its first value; a directive after the first
    data line is a plain comment."""
    path = tmp_path / "log.swf"
    path.write_text(
        "; MaxProcs: 64\n; just a comment\n\n; MaxProcs: 32\n"
        f"{GOOD_LINE}\n; MaxNodes: 16\n{GOOD_LINE}\n"
    )
    assert read_swf_header(path) == {"MaxProcs": "64"}
    assert len(list(stream_swf(path))) == 2


def test_reader_machine_procs_falls_back_to_max_nodes(tmp_path):
    path = _swf_file(tmp_path, [GOOD_LINE], header={"MaxNodes": "64"})
    header = SWFHeader(read_swf_header(path))
    assert header.max_procs is None
    assert header.machine_procs() == 64


def test_reader_header_tolerates_garbage_values(tmp_path):
    path = _swf_file(tmp_path, [GOOD_LINE], header={"MaxProcs": "lots"})
    header = SWFHeader(read_swf_header(path))
    assert header.max_procs is None
    assert header.machine_procs() is None
    assert header.directives["MaxProcs"] == "lots"


def test_reader_malformed_raise_names_line(tmp_path):
    path = _swf_file(tmp_path, [GOOD_LINE, "this is not swf"])
    with pytest.raises(ValueError, match="line 2"):
        list(stream_swf(path))


def test_reader_malformed_skip_counts(tmp_path):
    """Skip mode drops a bad line; the scan counts it."""
    path = _swf_file(tmp_path, [GOOD_LINE, "broken", GOOD_LINE])
    assert len(list(stream_swf(path, on_malformed="skip"))) == 2
    _, report = scan_swf(path)
    assert (report.records, report.malformed_lines) == (2, 1)


def test_reader_rejects_bad_policy(tmp_path):
    path = _swf_file(tmp_path, [GOOD_LINE])
    with pytest.raises(ValueError, match="on_malformed"):
        list(stream_swf(path, on_malformed="explode"))


def test_stream_swf_matches_read_swf(tmp_path):
    path = _swf_file(tmp_path, [GOOD_LINE] * 3, header={"MaxProcs": "128"})
    assert list(stream_swf(path)) == read_swf(path)
    bad = _swf_file(tmp_path, [GOOD_LINE, "broken line here"], header={"MaxProcs": "128"})
    with pytest.raises(ValueError) as streamed:
        list(stream_swf(bad))
    with pytest.raises(ValueError) as read:
        read_swf(bad)
    assert str(streamed.value) == str(read.value)
    assert str(read.value).startswith("line ")


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
    records = [_rec(job=1), _rec(job=2, submit=100.0), _rec(job=3, submit=50.0)]
    with pytest.raises(ValueError, match="submit-sorted"):
        list(stream_jobs(iter(records)))
    unsorted = list(stream_jobs(iter(records), require_sorted=False))
    assert [(j.job_id, j.submit_time) for j in unsorted] == [(1, 0.0), (2, 100.0), (3, 50.0)]


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
