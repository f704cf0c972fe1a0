"""Standard Workload Format (SWF) I/O: eager and streaming.

The Parallel Workloads Archive distributes logs in SWF: one line per job,
18 whitespace-separated fields, ``;`` comment lines carrying header
metadata.  This module parses the full record (so real CTC/SDSC/KTH logs
can replace the synthetic generators) and converts records into
:class:`~repro.workload.job.Job` objects with the usual hygiene filters.

Two reading modes:

* the original **eager** helpers (:func:`read_swf`,
  :func:`jobs_from_swf_records`) materialise the whole log -- fine for
  synthetic seeds and tests;
* the **streaming** layer (:class:`SWFReader`, :func:`stream_swf`,
  :func:`stream_jobs`, :func:`scan_swf`) holds O(1) records in memory,
  parses header directives into a typed :class:`SWFHeader`, validates
  each record as it passes, and powers the archive-scale pipeline in
  :mod:`repro.workload.pipeline` (see ``docs/WORKLOADS.md``).

SWF fields (1-based, as documented by the archive)::

     1 job number            10 requested memory (KB per node)
     2 submit time (s)       11 status
     3 wait time (s)         12 user id
     4 run time (s)          13 group id
     5 allocated processors  14 executable id
     6 avg cpu time used     15 queue number
     7 used memory (KB)      16 partition number
     8 requested processors  17 preceding job number
     9 requested time (s)    18 think time from preceding job

Missing values are ``-1`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from types import TracebackType
from typing import IO, Iterable, Iterator, Literal, Mapping, TextIO

from repro.workload.job import Job

#: Number of data fields in an SWF record.
SWF_FIELD_COUNT = 18

#: SWF ``status`` field values (archive definition).  Partial-execution
#: checkpoints (2-4) appear only in a handful of logs.
STATUS_FAILED = 0
STATUS_COMPLETED = 1
STATUS_PARTIAL_TO_BE_CONTINUED = 2
STATUS_PARTIAL_LAST = 3
STATUS_PARTIAL_FAILED = 4
STATUS_CANCELLED = 5

#: Queue number the archive suggests for interactive jobs ("it is
#: suggested to use queue 0 for interactive jobs").
INTERACTIVE_QUEUE = 0


@dataclass(frozen=True)
class SWFRecord:
    """One parsed SWF line, faithful to the file (no filtering)."""

    job_number: int
    submit_time: float
    wait_time: float
    run_time: float
    allocated_procs: int
    avg_cpu_time: float
    used_memory_kb: float
    requested_procs: int
    requested_time: float
    requested_memory_kb: float
    status: int
    user_id: int
    group_id: int
    executable: int
    queue: int
    partition: int
    preceding_job: int
    think_time: float

    @classmethod
    def from_line(cls, line: str) -> "SWFRecord":
        """Parse one SWF data line.

        Raises
        ------
        ValueError
            If the line does not have exactly 18 numeric fields.
        """
        parts = line.split()
        if len(parts) != SWF_FIELD_COUNT:
            raise ValueError(
                f"SWF line has {len(parts)} fields, expected {SWF_FIELD_COUNT}: "
                f"{line[:80]!r}"
            )
        f = [float(p) for p in parts]
        return cls(
            job_number=int(f[0]),
            submit_time=f[1],
            wait_time=f[2],
            run_time=f[3],
            allocated_procs=int(f[4]),
            avg_cpu_time=f[5],
            used_memory_kb=f[6],
            requested_procs=int(f[7]),
            requested_time=f[8],
            requested_memory_kb=f[9],
            status=int(f[10]),
            user_id=int(f[11]),
            group_id=int(f[12]),
            executable=int(f[13]),
            queue=int(f[14]),
            partition=int(f[15]),
            preceding_job=int(f[16]),
            think_time=f[17],
        )

    @property
    def is_interactive(self) -> bool:
        """Archive convention: queue 0 is the interactive queue.

        ``False`` for batch jobs *and* for logs that do not record a
        queue (queue = -1); callers that care about the distinction
        should check ``queue >= 0`` first.
        """
        return self.queue == INTERACTIVE_QUEUE

    def status_label(self) -> str:
        """Human-readable status (``"completed"``, ``"failed"``, ...)."""
        return _STATUS_LABELS.get(self.status, f"unknown({self.status})")

    def to_line(self) -> str:
        """Serialise back to a canonical SWF data line."""

        def num(x: float) -> str:
            return str(int(x)) if float(x).is_integer() else f"{x:.2f}"

        fields = [
            self.job_number,
            self.submit_time,
            self.wait_time,
            self.run_time,
            self.allocated_procs,
            self.avg_cpu_time,
            self.used_memory_kb,
            self.requested_procs,
            self.requested_time,
            self.requested_memory_kb,
            self.status,
            self.user_id,
            self.group_id,
            self.executable,
            self.queue,
            self.partition,
            self.preceding_job,
            self.think_time,
        ]
        return " ".join(num(v) for v in fields)


_STATUS_LABELS = {
    STATUS_FAILED: "failed",
    STATUS_COMPLETED: "completed",
    STATUS_PARTIAL_TO_BE_CONTINUED: "partial (continued)",
    STATUS_PARTIAL_LAST: "partial (last)",
    STATUS_PARTIAL_FAILED: "partial (failed)",
    STATUS_CANCELLED: "cancelled",
    -1: "unknown",
}


def parse_header_directive(line: str) -> tuple[str, str] | None:
    """Parse one ``; Key: value`` header-directive line, if it is one.

    Plain comments (no colon, or an empty key) return ``None``; they are
    legal SWF but carry no metadata.
    """
    stripped = line.strip()
    if not stripped.startswith(";"):
        return None
    body = stripped.lstrip("; \t").strip()
    key, sep, value = body.partition(":")
    if not sep or not key.strip():
        return None
    return key.strip(), value.strip()


@dataclass(frozen=True)
class SWFHeader:
    """Typed view of an SWF preamble's ``; Key: value`` directives.

    ``directives`` preserves every directive verbatim (first occurrence
    wins, matching :func:`read_swf_header`); the properties decode the
    handful the pipeline acts on.  A directive that fails to parse as
    its expected type reads as ``None`` rather than raising -- archive
    headers are hand-edited text.
    """

    directives: Mapping[str, str] = field(default_factory=dict)

    def _int(self, key: str) -> int | None:
        raw = self.directives.get(key)
        if raw is None:
            return None
        try:
            return int(raw.split()[0])
        except (ValueError, IndexError):
            return None

    @property
    def computer(self) -> str | None:
        """The ``Computer`` directive (machine description), if present."""
        return self.directives.get("Computer")

    @property
    def max_nodes(self) -> int | None:
        """``MaxNodes``: number of nodes in the machine."""
        return self._int("MaxNodes")

    @property
    def max_procs(self) -> int | None:
        """``MaxProcs``: number of processors in the machine."""
        return self._int("MaxProcs")

    @property
    def max_jobs(self) -> int | None:
        """``MaxJobs``: number of data lines the header promises."""
        return self._int("MaxJobs")

    @property
    def unix_start_time(self) -> int | None:
        """``UnixStartTime``: epoch seconds of the log's t=0."""
        return self._int("UnixStartTime")

    def machine_procs(self) -> int | None:
        """Best-effort machine size: ``MaxProcs``, else ``MaxNodes``.

        The width-validation default for :func:`scan_swf` and the
        ``repro-sched workload`` commands when the caller gives none.
        """
        return self.max_procs if self.max_procs is not None else self.max_nodes


#: What a malformed data line does to a streaming read: ``"raise"``
#: stops with :class:`ValueError` (the default -- a corrupt archive log
#: should be looked at), ``"skip"`` drops the line and counts it.
MalformedPolicy = Literal["raise", "skip"]


class SWFReader:
    """Constant-memory streaming reader for one SWF log.

    Opens the file lazily, parses the ``;`` preamble into a typed
    :class:`SWFHeader`, then yields :class:`SWFRecord` objects one line
    at a time -- peak memory is one record regardless of log length
    (the bench gate asserts this on a 100k-job log).  Usable as a
    context manager and as an iterator::

        with SWFReader("CTC-SP2.swf") as reader:
            print(reader.header.machine_procs())
            for record in reader:
                ...

    Parameters
    ----------
    source:
        Path to an SWF file, or an already-open text stream (the caller
        keeps ownership of a passed-in stream; paths are closed by
        :meth:`close` / the context manager).
    on_malformed:
        ``"raise"`` (default) propagates a :class:`ValueError` naming
        the line number; ``"skip"`` drops bad lines and counts them in
        :attr:`malformed_lines`.
    """

    def __init__(
        self,
        source: str | Path | IO[str],
        on_malformed: MalformedPolicy = "raise",
    ) -> None:
        if on_malformed not in ("raise", "skip"):
            raise ValueError(f"on_malformed must be 'raise' or 'skip', got {on_malformed!r}")
        self._path: Path | None
        self._stream: IO[str] | None
        if isinstance(source, (str, Path)):
            self._path = Path(source)
            self._stream = None
            self._owns_stream = True
        else:
            self._path = None
            self._stream = source
            self._owns_stream = False
        self.on_malformed: MalformedPolicy = on_malformed
        self._header: SWFHeader | None = None
        #: first data line seen while scanning the preamble (replayed
        #: by the record iterator), with its line number
        self._pending: tuple[int, str] | None = None
        self._lineno = 0
        self._iterating = False
        #: data lines parsed so far
        self.records_read = 0
        #: malformed data lines dropped so far (``on_malformed="skip"``)
        self.malformed_lines = 0

    # -- lifecycle -----------------------------------------------------
    def _ensure_open(self) -> IO[str]:
        if self._stream is None:
            assert self._path is not None
            self._stream = open(self._path, "r", encoding="utf-8", errors="replace")
        return self._stream

    def close(self) -> None:
        """Close the underlying file if this reader opened it."""
        if self._stream is not None and self._owns_stream:
            self._stream.close()
        self._stream = None if self._owns_stream else self._stream

    def __enter__(self) -> "SWFReader":
        self._ensure_open()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # -- header --------------------------------------------------------
    @property
    def header(self) -> SWFHeader:
        """The preamble's directives, parsed on first access.

        Reads forward only as far as the first data line (which is
        buffered, not lost).  Directives appearing *after* data lines
        are plain comments per the SWF spec and are ignored.
        """
        if self._header is None:
            self._scan_preamble()
            assert self._header is not None
        return self._header

    def _scan_preamble(self) -> None:
        stream = self._ensure_open()
        directives: dict[str, str] = {}
        for raw in stream:
            self._lineno += 1
            line = raw.strip()
            if not line:
                continue
            if line.startswith(";"):
                parsed = parse_header_directive(line)
                if parsed is not None and parsed[0] not in directives:
                    directives[parsed[0]] = parsed[1]
                continue
            self._pending = (self._lineno, line)
            break
        self._header = SWFHeader(directives)

    # -- records -------------------------------------------------------
    def __iter__(self) -> Iterator[SWFRecord]:
        if self._iterating:
            raise RuntimeError("SWFReader is single-pass; create a new reader to re-read")
        self._iterating = True
        return self._records()

    def _parse(self, lineno: int, line: str) -> SWFRecord | None:
        try:
            record = SWFRecord.from_line(line)
        except ValueError as exc:
            if self.on_malformed == "raise":
                raise ValueError(f"line {lineno}: {exc}") from exc
            self.malformed_lines += 1
            return None
        self.records_read += 1
        return record

    def _records(self) -> Iterator[SWFRecord]:
        if self._header is None:
            self._scan_preamble()
        if self._pending is not None:
            lineno, line = self._pending
            self._pending = None
            record = self._parse(lineno, line)
            if record is not None:
                yield record
        stream = self._ensure_open()
        for raw in stream:
            self._lineno += 1
            line = raw.strip()
            if not line or line.startswith(";"):
                continue
            record = self._parse(self._lineno, line)
            if record is not None:
                yield record

    def iter_chunks(self, chunk_size: int) -> Iterator[list[SWFRecord]]:
        """Yield records in lists of at most *chunk_size* (the last may be short)."""
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        chunk: list[SWFRecord] = []
        for record in self:
            chunk.append(record)
            if len(chunk) >= chunk_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk


def stream_swf(
    path: str | Path, on_malformed: MalformedPolicy = "raise"
) -> Iterator[SWFRecord]:
    """Stream records from *path* with constant memory; closes the file when done."""
    with SWFReader(path, on_malformed=on_malformed) as reader:
        yield from reader


def iter_swf(stream: TextIO) -> Iterator[SWFRecord]:
    """Yield records from an open SWF stream, skipping comments/blanks."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        try:
            yield SWFRecord.from_line(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc


def read_swf(path: str | Path) -> list[SWFRecord]:
    """Parse an SWF file into a list of records."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return list(iter_swf(fh))


def read_swf_header(path: str | Path) -> dict[str, str]:
    """Extract ``; Key: value`` header metadata from an SWF file.

    Thin eager wrapper over :attr:`SWFReader.header`; prefer the reader
    when you also need the records (one pass instead of two).
    """
    with SWFReader(path) as reader:
        return dict(reader.header.directives)


# ----------------------------------------------------------------------
# streaming validation / anomaly scan
# ----------------------------------------------------------------------
@dataclass
class SWFScanReport:
    """What one streaming validation pass found (``repro-sched workload validate``).

    Every counter is over *data* records; ``examples`` keeps the first
    few offending job numbers per anomaly kind so the report is
    actionable without a second pass.
    """

    records: int = 0
    #: data lines that did not parse as 18 numeric fields
    malformed_lines: int = 0
    #: run time <= 0 (cancelled before start, or corrupt)
    nonpositive_run_time: int = 0
    #: neither requested nor allocated processors positive
    nonpositive_width: int = 0
    #: submit time earlier than the record before it
    out_of_order_submits: int = 0
    #: width exceeds the machine size (from the header or the caller)
    too_wide: int = 0
    #: requested time missing (-1); the loader falls back to run time
    missing_estimate: int = 0
    #: estimate below actual run time (killed at the limit, logged longer)
    underestimates: int = 0
    #: jobs in the archive's interactive queue (queue 0)
    interactive: int = 0
    #: status value -> count (``-1`` = unrecorded)
    status_counts: dict[int, int] = field(default_factory=dict)
    #: anomaly kind -> first few job numbers exhibiting it
    examples: dict[str, list[int]] = field(default_factory=dict)
    #: machine size the width check used (None = check skipped)
    machine_procs: int | None = None

    _EXAMPLE_CAP = 5

    def _note(self, kind: str, job_number: int) -> None:
        bucket = self.examples.setdefault(kind, [])
        if len(bucket) < self._EXAMPLE_CAP:
            bucket.append(job_number)

    @property
    def anomalies(self) -> int:
        """Total anomalous observations (a record may contribute several)."""
        return (
            self.malformed_lines
            + self.nonpositive_run_time
            + self.nonpositive_width
            + self.out_of_order_submits
            + self.too_wide
            + self.underestimates
        )

    @property
    def clean(self) -> bool:
        """True when the log would stream through the pipeline unfiltered."""
        return self.anomalies == 0

    def observe(self, record: SWFRecord, prev_submit: float | None) -> None:
        """Fold one record into the report (records must arrive in file order)."""
        self.records += 1
        self.status_counts[record.status] = self.status_counts.get(record.status, 0) + 1
        if record.run_time <= 0:
            self.nonpositive_run_time += 1
            self._note("nonpositive_run_time", record.job_number)
        width = max(record.requested_procs, record.allocated_procs)
        if width <= 0:
            self.nonpositive_width += 1
            self._note("nonpositive_width", record.job_number)
        elif self.machine_procs is not None and width > self.machine_procs:
            self.too_wide += 1
            self._note("too_wide", record.job_number)
        if prev_submit is not None and record.submit_time < prev_submit:
            self.out_of_order_submits += 1
            self._note("out_of_order_submits", record.job_number)
        if record.requested_time <= 0:
            self.missing_estimate += 1
        elif record.run_time > 0 and record.requested_time < record.run_time:
            self.underestimates += 1
            self._note("underestimates", record.job_number)
        if record.queue >= 0 and record.is_interactive:
            self.interactive += 1


def scan_swf(
    path: str | Path, machine_procs: int | None = None
) -> tuple[SWFHeader, SWFScanReport]:
    """One streaming validation pass over *path*.

    Parameters
    ----------
    path:
        The SWF log.
    machine_procs:
        Machine size for the width check; ``None`` takes the header's
        ``MaxProcs``/``MaxNodes`` (and skips the check if the header has
        neither).

    Returns the parsed header and the filled :class:`SWFScanReport`.
    Malformed lines are counted, never fatal -- validation exists to
    describe a log, not to fall over on it.
    """
    with SWFReader(path, on_malformed="skip") as reader:
        header = reader.header
        report = SWFScanReport(
            machine_procs=(
                machine_procs if machine_procs is not None else header.machine_procs()
            )
        )
        prev_submit: float | None = None
        for record in reader:
            report.observe(record, prev_submit)
            prev_submit = record.submit_time
        report.malformed_lines = reader.malformed_lines
    return header, report


def format_scan_report(report: SWFScanReport) -> str:
    """Human-readable anomaly report for ``repro-sched workload validate``."""
    lines = [
        f"records: {report.records}   anomalies: {report.anomalies}"
        + ("   (clean)" if report.clean else ""),
    ]
    rows = [
        (None, "malformed lines", report.malformed_lines),
        ("nonpositive_run_time", "nonpositive run time", report.nonpositive_run_time),
        ("nonpositive_width", "nonpositive width", report.nonpositive_width),
        ("out_of_order_submits", "out-of-order submits", report.out_of_order_submits),
        (
            "too_wide",
            "width > machine"
            + (f" ({report.machine_procs} procs)" if report.machine_procs else ""),
            report.too_wide,
        ),
        ("underestimates", "estimate < run time", report.underestimates),
        (None, "missing estimates (fallback: run time)", report.missing_estimate),
        (None, "interactive-queue jobs", report.interactive),
    ]
    for key, label, count in rows:
        if count:
            examples = report.examples.get(key, []) if key else []
            suffix = f"   e.g. jobs {examples}" if examples else ""
            lines.append(f"  {label}: {count}{suffix}")
    if report.status_counts:
        by_status = ", ".join(
            f"{_STATUS_LABELS.get(s, s)}: {n}"
            for s, n in sorted(report.status_counts.items())
        )
        lines.append(f"  statuses: {by_status}")
    return "\n".join(lines)


def stream_jobs(
    records: Iterable[SWFRecord],
    max_procs: int | None = None,
    min_run_time: float = 1.0,
    use_requested_procs: bool = True,
    rebase_time: bool = True,
    keep_statuses: frozenset[int] | None = None,
    drop_interactive: bool = False,
    require_sorted: bool = True,
) -> Iterator[Job]:
    """Convert SWF records to jobs one at a time, with O(1) memory.

    Applies the hygiene filters listed at :func:`jobs_from_swf_records`,
    which is this conversion over the sorted records.  The one
    semantic difference from the eager path: a stream cannot be sorted,
    so the input must already be in nondecreasing submit order (true of
    archive logs; verify with :func:`scan_swf`).  With
    ``require_sorted=True`` (default) an out-of-order submit raises;
    ``False`` passes records through in file order, which changes
    arrival tie-breaking versus the eager path -- only disable it for
    logs you have deliberately left unsorted.

    Additional stream-only filters:

    keep_statuses:
        Keep only records whose ``status`` is in the set (``None`` =
        keep all, matching the eager path).  Records with status ``-1``
        (unrecorded) are always kept.
    drop_interactive:
        Drop records in the archive's interactive queue (queue 0).
    """
    prev_submit: float | None = None
    t0: float | None = None
    for rec in records:
        if require_sorted and prev_submit is not None and rec.submit_time < prev_submit:
            raise ValueError(
                f"record {rec.job_number}: submit time {rec.submit_time} is before "
                f"the previous record's {prev_submit}; streaming conversion needs a "
                "submit-sorted log (see docs/WORKLOADS.md)"
            )
        prev_submit = rec.submit_time
        if keep_statuses is not None and rec.status >= 0 and rec.status not in keep_statuses:
            continue
        if drop_interactive and rec.queue >= 0 and rec.is_interactive:
            continue
        procs = rec.requested_procs if use_requested_procs else rec.allocated_procs
        if procs <= 0:
            procs = max(rec.allocated_procs, rec.requested_procs)
        if procs <= 0:
            continue
        if rec.run_time <= 0:
            continue
        if max_procs is not None and procs > max_procs:
            continue
        run_time = max(rec.run_time, min_run_time)
        estimate = rec.requested_time if rec.requested_time > 0 else run_time
        estimate = max(estimate, 1.0)
        memory_mb = rec.requested_memory_kb / 1024.0 if rec.requested_memory_kb > 0 else 0.0
        submit = max(rec.submit_time, 0.0)
        if rebase_time:
            if t0 is None:
                t0 = submit
            submit -= t0
        yield Job(
            job_id=rec.job_number,
            submit_time=submit,
            run_time=run_time,
            estimate=estimate,
            procs=procs,
            memory_mb=memory_mb,
            user=rec.user_id,
        )


def write_swf(
    path: str | Path,
    records: Iterable[SWFRecord],
    header: dict[str, str] | None = None,
) -> int:
    """Write records as an SWF file; returns the number of lines written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in (header or {}).items():
            fh.write(f"; {key}: {value}\n")
        for rec in records:
            fh.write(rec.to_line() + "\n")
            n += 1
    return n


def jobs_from_swf_records(
    records: Iterable[SWFRecord],
    max_procs: int | None = None,
    min_run_time: float = 1.0,
    use_requested_procs: bool = True,
    rebase_time: bool = True,
) -> list[Job]:
    """Convert SWF records to simulate-ready :class:`Job` objects.

    Sorts the records by ``(submit time, job number)`` -- negative
    submit times count as 0 -- and converts them with
    :func:`stream_jobs`, which applies the standard hygiene filters used
    in scheduling studies:

    * drop jobs with nonpositive run time or processor count (cancelled
      before start, or corrupt records);
    * clamp run times below *min_run_time* up to it;
    * estimates: use the requested time where present, else fall back to
      the run time (accurate); always at least the run time's floor of 1 s
      (schedulers need a positive planning horizon) -- note real logs can
      have estimate < run time (killed at the limit, logged longer); we
      preserve that, schedulers must tolerate it;
    * optionally drop jobs wider than *max_procs* (they could never run);
    * rebase submit times so the trace starts at t=0.

    Memory: SWF requested memory is KB per node; converted to MB per
    processor for the overhead model when present.
    """
    ordered = sorted(records, key=lambda r: (max(r.submit_time, 0.0), r.job_number))
    return list(
        stream_jobs(
            ordered,
            max_procs=max_procs,
            min_run_time=min_run_time,
            use_requested_procs=use_requested_procs,
            rebase_time=rebase_time,
            require_sorted=False,
        )
    )


def jobs_to_swf_records(jobs: Iterable[Job]) -> list[SWFRecord]:
    """Convert jobs back to SWF records (round-trip support)."""
    out = []
    for j in jobs:
        out.append(
            SWFRecord(
                job_number=j.job_id,
                submit_time=j.submit_time,
                wait_time=-1.0,
                run_time=j.run_time,
                allocated_procs=j.procs,
                avg_cpu_time=-1.0,
                used_memory_kb=-1.0,
                requested_procs=j.procs,
                requested_time=j.estimate,
                requested_memory_kb=j.memory_mb * 1024.0 if j.memory_mb else -1.0,
                status=1,
                user_id=j.user,
                group_id=-1,
                executable=-1,
                queue=-1,
                partition=-1,
                preceding_job=-1,
                think_time=-1.0,
            )
        )
    return out


def write_synthetic_swf(
    path: str | Path, n_jobs: int, n_procs: int = 128, mean_gap: float = 30.0
) -> None:
    """Write a deterministic *n_jobs*-line SWF log with O(1) memory.

    An arithmetic job mix (cycling run times, widths and over-estimation
    factors; no RNG, no numpy) intended for ingestion benchmarks, the
    peak-RSS gate and big-log tests -- places that need a *large*,
    *reproducible* log cheaply.  It is **not** calibrated to any archive
    trace; experiments should use :mod:`repro.workload.synthetic` or a
    real log.  Submit times are nondecreasing, so the log streams
    through :func:`stream_jobs` and shards cleanly.
    """
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be nonnegative, got {n_jobs}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("; Computer: Synthetic ingest rig\n")
        fh.write(f"; MaxProcs: {n_procs}\n")
        fh.write(f"; MaxJobs: {n_jobs}\n")
        fh.write("; Note: deterministic arithmetic mix (write_synthetic_swf)\n")
        submit = 0
        width_cap = min(64, n_procs)
        for i in range(1, n_jobs + 1):
            submit += (i * 7) % (2 * int(mean_gap)) + 1
            run = 60 + (i * 37) % 7200
            procs = 1 + (i * 13) % width_cap
            estimate = run * (1 + i % 4)
            user = 1 + i % 50
            fh.write(
                f"{i} {submit} -1 {run} {procs} -1 -1 {procs} {estimate} -1 "
                f"1 {user} 1 -1 1 -1 -1 -1\n"
            )
