"""Content-addressed on-disk cache of simulation results.

The paper's evaluation grid is hundreds of deterministic simulations.
Within one invocation :func:`~repro.experiments.paper.run_figures`
simulates each distinct cell once; across invocations, most bench and
CLI runs re-run cells an earlier one already computed (every figure
shares its NS cell, every load sweep shares the load-1.0 points, ...).
Because the simulator is deterministic, a cell's outcome is a pure
function of

* the **workload** (static job fields only -- dynamic state is reset by
  ``fresh_copies`` before every run),
* the **machine size**,
* the **scheduler configuration** (:meth:`Scheduler.config`, which by
  contract fully determines policy behaviour),
* the **overhead model** (its dataclass fields), and
* the **migratable** flag.

:func:`cell_fingerprint` hashes exactly those inputs into a SHA-256 key;
:class:`ResultCache` maps keys to pickled
:class:`~repro.sim.driver.SimulationResult` files under a directory.
Anything that changes behaviour changes the key, so a cache directory
never needs manual invalidation for *input* changes -- only for
*simulator code* changes, which is why the cache is opt-in
(``--cache-dir`` / ``cache=`` arguments) and trivially busted by
pointing at a fresh directory.  See README.md "Running the full grid in
parallel" for the caveats.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Mapping

from repro.sim.driver import SimulationResult, SuspensionOverheadModel
from repro.workload.job import Job

#: bump when the simulator's observable behaviour changes in a way the
#: fingerprint inputs cannot see (e.g. an event-ordering fix); stale
#: cache directories then miss instead of serving pre-fix results
CACHE_SCHEMA_VERSION = 1


def fingerprint_jobs(jobs: list[Job]) -> str:
    """SHA-256 over the static fields of *jobs*, order-sensitive.

    Only static (trace) fields participate: runs always start from
    fresh copies, so dynamic state cannot influence the outcome.  Order
    matters because arrival ties break by insertion order.
    """
    h = hashlib.sha256()
    h.update(b"jobs-v1")
    for j in jobs:
        h.update(
            (
                f"{j.job_id}|{j.submit_time!r}|{j.run_time!r}|{j.estimate!r}"
                f"|{j.procs}|{j.memory_mb!r}|{j.user}\n"
            ).encode()
        )
    return h.hexdigest()


def overhead_config(model: SuspensionOverheadModel | None) -> object:
    """A JSON-stable description of an overhead model, for fingerprints.

    ``None`` stays ``None``; dataclass models (all in-repo models)
    serialise as class name + field dict; anything else falls back to
    ``repr`` -- adequate as long as the repr reflects the parameters.
    """
    if model is None:
        return None
    if dataclasses.is_dataclass(model) and not isinstance(model, type):
        return {"model": type(model).__name__, **dataclasses.asdict(model)}
    return {"model": type(model).__name__, "repr": repr(model)}


def cell_fingerprint(
    jobs_fp: str,
    n_procs: int,
    scheduler_config: Mapping[str, object],
    overhead_model: SuspensionOverheadModel | None = None,
    migratable: bool = False,
    provenance: Mapping[str, object] | None = None,
) -> str:
    """The content address of one (workload, machine, policy) cell.

    *provenance* is optional extra keying context -- the sharded-replay
    path records ``{pipeline fingerprint, shard window}`` so a shard
    simulated under one pipeline config can never be served for another
    (the job hash alone already separates them; provenance makes the
    separation structural and self-describing).  ``None`` keeps the
    payload exactly as before, so every pre-existing cache entry remains
    addressable.
    """
    body: dict[str, object] = {
        "schema": CACHE_SCHEMA_VERSION,
        "jobs": jobs_fp,
        "n_procs": int(n_procs),
        "scheduler": dict(scheduler_config),
        "overhead": overhead_config(overhead_model),
        "migratable": bool(migratable),
    }
    if provenance is not None:
        body["provenance"] = dict(provenance)
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Directory-backed map from cell fingerprints to simulation results.

    Layout: ``<dir>/<fp[:2]>/<fp>.pkl`` (two-level fan-out keeps
    directories small for production-sized grids).  Writes are atomic
    (tempfile + rename), so concurrent runs sharing a cache directory
    at worst duplicate work, never corrupt entries.

    Unreadable entries are **quarantined**, not deleted: a garbage
    pickle is renamed to ``<fp>.pkl.corrupt`` (``.corrupt.1``, ... once
    that name is taken) so the next :meth:`put` repairs the slot while
    the evidence survives for diagnosis (a corrupt entry usually means a
    torn disk write or an unsanctioned mutation of the cache directory
    -- worth keeping).

    Counters (``hits`` / ``misses`` / ``stores`` / ``corrupt``) are
    per-instance diagnostics; tests use them to assert that a warm
    re-run executes zero simulations.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def _path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.pkl"

    def __contains__(self, fingerprint: str) -> bool:
        return self._path(fingerprint).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def get(self, fingerprint: str) -> SimulationResult | None:
        """The cached result for *fingerprint*, or ``None`` (counted).

        An entry that exists but cannot be loaded is quarantined (see
        :meth:`_quarantine`) and counted as a miss.  The guard is
        ``Exception``-wide on purpose: unpickling attacker-free but
        *garbage* bytes can raise nearly anything -- ``AttributeError``
        and ``ImportError`` for stale class paths, ``MemoryError`` for a
        corrupted length prefix -- and none of those may escape a cache
        *lookup*.
        """
        path = self._path(fingerprint)
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable entry to the first free name among
        ``<name>.corrupt``, ``<name>.corrupt.1``, ...

        The rename frees the slot (``put`` then writes a fresh entry at
        the canonical path) while preserving the poisoned bytes next to
        it, and never replaces an earlier quarantine's;
        ``__len__``/``clear`` ignore these files.  This is the one
        mutation on the cache *read* path:
        ``tests/test_parallel.py::test_cache_reads_only_quarantine``
        snapshots the store around every ``get``, ``in`` and ``len``.
        """
        target = path.with_name(path.name + ".corrupt")
        n = 0
        while target.exists():
            n += 1
            target = path.with_name(f"{path.name}.corrupt.{n}")
        try:
            path.rename(target)
        except OSError:  # raced away, or the path is not renameable
            return
        self.corrupt += 1

    def put(self, fingerprint: str, result: SimulationResult) -> None:
        """Store *result* under *fingerprint* atomically."""
        path = self._path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for p in self.root.glob("*/*.pkl"):
            p.unlink(missing_ok=True)
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache {self.root} entries={len(self)} "
            f"hits={self.hits} misses={self.misses} stores={self.stores} "
            f"corrupt={self.corrupt}>"
        )
