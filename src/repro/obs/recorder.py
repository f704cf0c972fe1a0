"""Trace recorders: where emitted events go.

:class:`TraceRecorder` is a structural protocol -- anything with an
``enabled`` flag, ``record(event)`` and ``close()`` qualifies.  Three
implementations cover the practical spectrum:

* :class:`NullRecorder` / :data:`NULL_RECORDER` -- ``enabled`` is
  false, so the driver never even constructs a
  :class:`~repro.obs.events.Tracer`; passing it is *exactly* as cheap
  as passing no recorder at all (the zero-overhead-when-off contract:
  ``tools/bench_gate.py`` requires a null-recorder run to make exactly
  the untraced run's calls).
* :class:`InMemoryRecorder` -- appends events to a list; the test and
  notebook workhorse.
* :class:`JsonlRecorder` -- streams one JSON object per line to a
  file as events happen (nothing buffered across jobs, so a crashed
  run still leaves a usable prefix).  :func:`read_trace` is its
  reading counterpart.

The JSONL layout is the flat :meth:`TraceEvent.as_dict` mapping; see
``docs/TRACING.md`` for the field reference.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Iterator, Protocol, runtime_checkable

from repro.obs.events import TraceEvent


@runtime_checkable
class TraceRecorder(Protocol):
    """Anything that can receive the trace event stream."""

    #: When false, the driver skips tracing entirely (no tracer built).
    enabled: bool

    def record(self, event: TraceEvent) -> None:
        """Receive one event; called in simulation order."""
        ...

    def close(self) -> None:
        """Flush and release resources; idempotent."""
        ...


class NullRecorder:
    """The disabled recorder: accepts nothing, costs nothing."""

    enabled = False

    def record(self, event: TraceEvent) -> None:  # pragma: no cover - never called
        pass

    def close(self) -> None:
        pass


#: Shared disabled-recorder instance (it is stateless).
NULL_RECORDER = NullRecorder()


class InMemoryRecorder:
    """Keeps every event in a list (tests, notebooks, small runs)."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass

    def dicts(self) -> list[dict[str, Any]]:
        """The events as flat mappings (what a JSONL reader would see)."""
        return [e.as_dict() for e in self.events]

    def __len__(self) -> int:
        return len(self.events)


class JsonlRecorder:
    """Streams events to *path*, one compact JSON object per line.

    The file is opened eagerly (so a bad path fails at construction,
    not mid-run) and each event is written immediately; ``close()``
    flushes and closes.  Usable as a context manager::

        with JsonlRecorder("run.jsonl") as rec:
            simulate(jobs, scheduler, n_procs, recorder=rec)
    """

    enabled = True

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] | None = self.path.open("w", encoding="utf-8")
        self.n_written = 0

    def record(self, event: TraceEvent) -> None:
        if self._fh is None:
            raise ValueError(f"JsonlRecorder({self.path}) is closed")
        self._fh.write(json.dumps(event.as_dict(), separators=(",", ":")))
        self._fh.write("\n")
        self.n_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlRecorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_trace(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield the events of a JSONL trace file as flat mappings.

    Blank lines are skipped; malformed lines raise ``ValueError`` with
    the offending line number (a truncated *final* line -- the one
    artefact of a crashed run -- is reported the same way, so callers
    can decide whether a prefix is acceptable).
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed trace line: {exc}") from exc
