"""Parallel, cached execution of simulation jobs.

The grid-shaped experiments (Figures 6-9, Table 1, Figure 11) are
embarrassingly parallel: every (scheme, point, seed) cell is an
independent deterministic simulation.  This subsystem turns that into
wall-clock speed and incremental re-runs:

* :class:`JobSpec` — pure-data job description hashed into a stable key;
* :class:`ResultCache` — on-disk JSON cache (``~/.cache/repro`` or
  ``$REPRO_CACHE_DIR``) so re-running a figure only simulates changed
  points;
* :func:`run_jobs` — process fan-out with per-job timeout, bounded
  retry, and crash isolation; ``workers=0`` is the serial debug path;
* :class:`RunnerStats` — jobs done/failed/cached plus events-per-second
  throughput, delivered through a ``progress`` hook.

Determinism guarantee: for the same specs, ``run_jobs`` returns the same
results in the same (spec) order whether executed serially, in parallel,
or from cache — enforced by ``tests/runner/``.
"""

from .cache import ResultCache, default_cache_dir, resolve_cache
from .executor import JobResult, resolve_workers, run_jobs
from .registry import register, registered_kinds, resolve_job
from .spec import (
    CACHE_SCHEMA,
    JobSpec,
    canonical_json,
    content_key,
    dumbbell_spec,
    parking_lot_spec,
)
from .telemetry import (
    RunnerStats,
    format_eta,
    progress_line,
    progress_printer,
    resolve_progress,
)

__all__ = [
    "CACHE_SCHEMA",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "RunnerStats",
    "canonical_json",
    "content_key",
    "default_cache_dir",
    "dumbbell_spec",
    "format_eta",
    "parking_lot_spec",
    "progress_line",
    "progress_printer",
    "register",
    "registered_kinds",
    "resolve_cache",
    "resolve_job",
    "resolve_progress",
    "resolve_workers",
    "run_jobs",
]
