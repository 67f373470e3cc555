"""Run job specs: the single-host case of :mod:`repro.fleet`.

Jobs are deterministic functions of their :class:`JobSpec`, so execution
strategy is purely an operational choice.  :func:`run_jobs` journals the
specs in an ephemeral fleet directory and drains it with
:class:`~repro.fleet.worker.FleetWorker`, the one code path that runs a
job attempt:

* ``workers=0`` — one in-process worker.  The debugging fallback: plain
  stack traces, no forking, ``pdb`` works; timeouts are not enforced.
* ``workers=N`` — N worker processes.  A segfaulting or diverging
  simulation kills only its own worker; the drain releases its lease at
  once, retries the job up to ``retries`` times, finally marks it
  failed, and starts a replacement — the rest of the sweep is unaffected.

The cache is the fleet's result store, so a cached point is a
submit-time store hit that never reaches a worker.  Results are returned
in spec order regardless of completion order, which is what makes
``workers=N`` output row-for-row identical to ``workers=0``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..obs.bus import EventBus, resolve_bus_path
from ..snapshot.runtime import resolve_checkpoint_interval
from .cache import resolve_cache
from .spec import JobSpec
from .telemetry import RunnerStats, resolve_progress

__all__ = ["JobResult", "run_jobs", "resolve_workers"]


@dataclass
class JobResult:
    """Outcome of one job: payload on success, error text on failure."""

    spec: JobSpec
    status: str  # "ok" | "failed"
    value: Any = None
    error: Optional[str] = None
    cached: bool = False
    attempts: int = 0
    wall_time: float = 0.0
    meta: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the job produced a payload (fresh run or cache hit)."""
        return self.status == "ok"


def resolve_workers(workers: Optional[int]) -> int:
    """``None`` honours ``$REPRO_WORKERS``; absent both, run serially."""
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        workers = int(env) if env else 0
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def run_jobs(
    specs: Sequence[JobSpec],
    *,
    workers: Optional[int] = None,
    cache=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress=None,
    checkpoint: Optional[float] = None,
    bus=None,
    fleet=None,
) -> List[JobResult]:
    """Execute *specs*, returning one :class:`JobResult` per spec, in order.

    Parameters
    ----------
    workers:
        Concurrent worker processes; ``0`` runs serially in-process and
        ``None`` defers to ``$REPRO_WORKERS`` (default serial).
    cache:
        See :func:`repro.runner.cache.resolve_cache`; ``None`` enables the
        default on-disk cache, ``False`` disables caching.
    timeout:
        Per-attempt wall-clock limit in seconds; an overdue worker is
        killed and the attempt counts as a failure.  Requires
        ``workers > 0`` (process isolation) to be enforceable.
    retries:
        Extra attempts after a raised exception, crash, or timeout.
    progress:
        Callable invoked with the live :class:`RunnerStats` as jobs
        settle; ``None`` defers to ``$REPRO_PROGRESS``.
    checkpoint:
        Simulated seconds between periodic checkpoints of checkpoint-aware
        jobs (see :mod:`repro.snapshot`); ``None`` defers to
        ``$REPRO_CHECKPOINT`` (default off).  A killed, crashed or
        timed-out attempt resumes from the last checkpoint instead of
        starting over — bit-identically, so specs and cache keys are
        unaffected.  Requires an enabled cache (the checkpoint lives next
        to the job's cache entry); silently off otherwise.
    bus:
        Live telemetry bus (see :mod:`repro.obs.bus`): ``None`` defers to
        ``$REPRO_BUS`` (default off), ``False`` disables, a str/Path
        names the JSONL file explicitly.  Enabled, the run and every
        worker publish job lifecycle/heartbeat events there — purely
        observational, results are bit-identical either way.
    fleet:
        A persistent :class:`~repro.fleet.scheduler.Fleet` to run on
        instead of an ephemeral one: jobs are journaled there, so a
        killed sweep resumes with ``python -m repro.fleet resume``, and
        points any earlier sweep finished are served from its store.
        *cache* and *bus* are then the fleet's; the caller's
        :class:`Fleet` object is left unchanged.
    """
    from ..fleet import Fleet  # local: the fleet is built on the runner

    specs = list(specs)
    n_workers = resolve_workers(workers)
    interval = resolve_checkpoint_interval(checkpoint)
    scratch = None
    if fleet is not None:
        run = Fleet(fleet.root, store=fleet.store, bus=fleet.bus_path or False,
                    ttl=fleet.ttl, max_attempts=retries + 1,
                    checkpoint=fleet.checkpoint if interval is None else interval)
    else:
        store = resolve_cache(cache)
        bus_path = resolve_bus_path(store, bus)
        if store is None:
            scratch = tempfile.mkdtemp(prefix="repro-run-")
            store_root = os.path.join(scratch, "store")
            interval = None  # checkpoints live next to real cache entries
        else:
            store.root.mkdir(parents=True, exist_ok=True)
            scratch = tempfile.mkdtemp(prefix=".run-", dir=store.root)
            store_root = store.root
        run = Fleet(scratch, store=store_root, bus=bus_path or False,
                    checkpoint=interval, max_attempts=retries + 1)
    try:
        return _run_on(run, specs, n_workers, timeout,
                       resolve_progress(progress))
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def _run_on(fleet, specs: List[JobSpec], workers: int,
            timeout: Optional[float], hook) -> List[JobResult]:
    """Submit *specs* to *fleet*, drain it, and collect results in order."""
    stats = RunnerStats(total=len(specs))
    results: List[Optional[JobResult]] = [None] * len(specs)
    live = EventBus(fleet.bus_path) if fleet.bus_path is not None else None

    def settle(index: int, result: JobResult) -> None:
        results[index] = result
        if result.cached:
            stats.cached += 1
        elif result.ok:
            stats.done += 1
            stats.events += result.meta.get("events", 0)
            stats.wall_time += result.wall_time
            rss = result.meta.get("peak_rss_kb")
            if isinstance(rss, int):
                stats.peak_rss_kb = max(stats.peak_rss_kb, rss)
        else:
            stats.failed += 1
        if hook is not None:
            hook(stats)

    try:
        if live is not None:
            live.emit("run_started", total=len(specs))
        fleet.submit(specs)
        waiting: Dict[str, List[int]] = {}
        for i, spec in enumerate(specs):
            waiting.setdefault(spec.cache_key, []).append(i)
        jobs = fleet.queue.jobs
        served = {key for key in waiting if jobs[key].state == "done"}
        base = {key: jobs[key].attempts for key in waiting}

        def update(final: bool = False) -> None:
            for key in list(waiting):
                job = jobs[key]
                if final or job.state in ("done", "failed"):
                    stats.retries += max(0, job.attempts - base[key] - 1)
                    cached = key in served or job.store == "hit"
                    for i in waiting.pop(key):
                        settle(i, _result_of(fleet, specs[i], job, cached))

        update()
        if waiting:
            fleet.drain(workers=workers, timeout=timeout, on_update=update)
            update(final=True)  # anything the pool gave up on fails
        if live is not None:
            live.emit("run_finished", stats=stats.snapshot())
    finally:
        if live is not None:
            live.close()
    return results


def _result_of(fleet, spec: JobSpec, job, cached: bool) -> JobResult:
    """The :class:`JobResult` of a terminal fleet job."""
    entry = fleet.store.get(spec) if job.state == "done" else None
    if entry is None:
        return JobResult(spec, "failed", attempts=job.attempts,
                         error=job.error or f"no result (job {job.state})")
    meta = entry.get("meta") or {}
    if cached:
        return JobResult(spec, "ok", value=entry["payload"], cached=True,
                         attempts=0, meta=meta)
    return JobResult(spec, "ok", value=entry["payload"], attempts=job.attempts,
                     wall_time=meta.get("wall_time", 0.0), meta=meta)
