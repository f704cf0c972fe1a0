"""Workloads: the job model, trace I/O, categorisation and generators.

* :mod:`repro.workload.job` -- the :class:`~repro.workload.job.Job`
  lifecycle object (submit -> queued -> running <-> suspended -> finished)
  with the wait/run clock separation the xfactor priority depends on.
* :mod:`repro.workload.swf` -- Standard Workload Format parser/writer so
  real Parallel Workloads Archive logs (CTC, SDSC, KTH, ...) drop in;
  eager helpers plus a constant-memory streaming reader and validator.
* :mod:`repro.workload.pipeline` -- lazy transformation stages over job
  streams (load scaling, estimate models) with a cache-keying config
  fingerprint (see docs/WORKLOADS.md).
* :mod:`repro.workload.categories` -- the paper's 16-way (Table I) and
  4-way (Table VI) job classification grids.
* :mod:`repro.workload.synthetic` -- calibrated synthetic trace
  generators standing in for the archive logs (see DESIGN.md section 3).
* :mod:`repro.workload.estimates` -- user run-time estimate models
  (accurate / inaccurate with a badly-estimated fraction).
* :mod:`repro.workload.load` -- load scaling by compressing arrivals.
* :mod:`repro.workload.archive` -- presets describing each modelled
  machine/trace.
"""

from repro.workload.job import Job, JobState
from repro.workload.categories import (
    FourWayCategory,
    LengthClass,
    SixteenWayCategory,
    WidthClass,
    classify_four_way,
    classify_sixteen_way,
    length_class,
    width_class,
    FOUR_WAY_CATEGORIES,
    SIXTEEN_WAY_CATEGORIES,
)
from repro.workload.archive import TracePreset, CTC, SDSC, KTH, PRESETS
from repro.workload.synthetic import generate_trace
from repro.workload.estimates import (
    AccurateEstimates,
    EstimateModel,
    InaccurateEstimates,
    PerfectWithNoise,
)
from repro.workload.load import scale_load
from repro.workload.pipeline import (
    EstimateStage,
    LoadScaleStage,
    PipelineStage,
    WorkloadPipeline,
    open_workload,
)
from repro.workload.swf import (
    SWFHeader,
    SWFRecord,
    jobs_from_swf_records,
    read_swf,
    read_swf_header,
    scan_swf,
    stream_jobs,
    stream_swf,
    write_swf,
)

__all__ = [
    "AccurateEstimates",
    "CTC",
    "EstimateModel",
    "EstimateStage",
    "FOUR_WAY_CATEGORIES",
    "FourWayCategory",
    "InaccurateEstimates",
    "Job",
    "JobState",
    "KTH",
    "LengthClass",
    "LoadScaleStage",
    "PerfectWithNoise",
    "PRESETS",
    "PipelineStage",
    "SDSC",
    "SIXTEEN_WAY_CATEGORIES",
    "SWFHeader",
    "SWFRecord",
    "SixteenWayCategory",
    "TracePreset",
    "WidthClass",
    "WorkloadPipeline",
    "classify_four_way",
    "classify_sixteen_way",
    "generate_trace",
    "jobs_from_swf_records",
    "length_class",
    "open_workload",
    "read_swf",
    "read_swf_header",
    "scale_load",
    "scan_swf",
    "stream_jobs",
    "stream_swf",
    "width_class",
    "write_swf",
]
