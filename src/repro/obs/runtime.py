"""Job-scoped observation context shared between the runner and jobs.

The fleet worker wraps every job attempt in :func:`observe_job`; simulation
code (e.g. :func:`repro.experiments.common.run_dumbbell`) then reaches
the active observation through module-level accessors without any
plumbing through job parameters — crucially, job *specs* (and therefore
cache keys) never mention observability at all, so instrumented and
plain runs share cache entries.

When no observation is active every accessor returns ``None`` and
:func:`phase` degenerates to an empty context manager, keeping the
library usable (and cheap) outside the runner.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional

from .collect import Collector
from .profiler import SamplingProfiler

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None

__all__ = [
    "ObsFlags",
    "JobObservation",
    "observe_job",
    "active",
    "active_collector",
    "active_profiler",
    "adopt_collector",
    "note_simulator",
    "phase",
    "resolve_obs_flags",
]

_TRUTHY = {"1", "on", "true", "yes"}


@dataclass(frozen=True)
class ObsFlags:
    """What a job observation should capture (phases/RSS are always on)."""

    collect: bool = False  # in-sim metrics registry
    trace: bool = False  # per-event JSONL trace records (implies collect)
    profile: bool = False  # sampling profiler around the event loop
    sample_interval: float = 0.1
    profile_period: int = 16


def resolve_obs_flags(env=None) -> ObsFlags:
    """Read ``REPRO_OBS`` / ``REPRO_TRACE`` / ``REPRO_PROFILE`` (+ the
    ``REPRO_OBS_INTERVAL`` sampling knob) from the environment."""
    env = env if env is not None else os.environ

    def on(name: str) -> bool:
        return env.get(name, "").strip().lower() in _TRUTHY

    trace = on("REPRO_TRACE")
    interval = env.get("REPRO_OBS_INTERVAL", "").strip()
    return ObsFlags(
        collect=on("REPRO_OBS") or trace,
        trace=trace,
        profile=on("REPRO_PROFILE"),
        sample_interval=float(interval) if interval else 0.1,
    )


def _peak_rss_kb() -> Optional[int]:
    if resource is None:  # pragma: no cover
        return None
    # Linux reports kilobytes; macOS reports bytes.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss / 1024) if os.uname().sysname == "Darwin" else int(rss)


class JobObservation:
    """Everything observed about one job attempt.

    Phase wall times and peak RSS are recorded unconditionally (they
    cost nothing per event); the collector, trace buffer and profiler
    exist only when the corresponding flag is set.
    """

    def __init__(self, flags: ObsFlags):
        self.flags = flags
        self.collector: Optional[Collector] = (
            Collector(trace=flags.trace, sample_interval=flags.sample_interval)
            if (flags.collect or flags.trace)
            else None
        )
        self.profiler: Optional[SamplingProfiler] = (
            SamplingProfiler(period=flags.profile_period) if flags.profile else None
        )
        self.phases: Dict[str, float] = {}
        #: the job's live simulator, registered by harness code via
        #: :func:`note_simulator` so bus heartbeats can sample progress
        self.simulator = None
        self._t0 = time.monotonic()

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate *seconds* of wall time under phase *name*."""
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    def finish(self) -> dict:
        """Close out and return the JSON-clean observation summary."""
        out: dict = {
            "wall_time": time.monotonic() - self._t0,
            "phases": dict(self.phases),
            "peak_rss_kb": _peak_rss_kb(),
        }
        if self.collector is not None:
            out["metrics"] = self.collector.snapshot()
            if self.collector.records is not None:
                out["trace_records"] = self.collector.records
        if self.profiler is not None:
            out["profile"] = self.profiler.snapshot()
        return out


_ACTIVE: Optional[JobObservation] = None


@contextmanager
def observe_job(flags: Optional[ObsFlags] = None):
    """Make a fresh :class:`JobObservation` the active one for the block."""
    global _ACTIVE
    obs = JobObservation(flags if flags is not None else resolve_obs_flags())
    prev, _ACTIVE = _ACTIVE, obs
    try:
        yield obs
    finally:
        _ACTIVE = prev


def active() -> Optional[JobObservation]:
    """The observation installed by :func:`observe_job`, if any."""
    return _ACTIVE


def active_collector() -> Optional[Collector]:
    """The active observation's collector (``None`` when not collecting)."""
    return _ACTIVE.collector if _ACTIVE is not None else None


def active_profiler() -> Optional[SamplingProfiler]:
    """The active observation's profiler (``None`` when not profiling)."""
    return _ACTIVE.profiler if _ACTIVE is not None else None


def adopt_collector(collector: Optional[Collector]) -> bool:
    """Swap a restored collector into the active observation.

    When a job resumes from a checkpoint, the collector rides along
    inside the snapshot (it is attached to queues/senders/links in the
    simulator graph).  The fresh :class:`JobObservation` made for the
    retry attempt must report *that* collector's metrics, not the empty
    one it constructed — the job harness calls this after a successful
    resume.  Returns ``True`` if an adoption happened.
    """
    if _ACTIVE is None or collector is None:
        return False
    _ACTIVE.collector = collector
    return True


@contextmanager
def phase(name: str):
    """Time a named phase of the active observation (no-op when idle).

    When a telemetry bus is active in this process (see
    :mod:`repro.obs.bus`), phase entry/exit also publish
    ``phase_started``/``phase_finished`` events — two appends per phase,
    nothing per event.
    """
    obs = _ACTIVE
    if obs is None:
        yield
        return
    from . import bus as _bus

    live = _bus.active_bus()
    if live is not None:
        live.emit("phase_started", phase=name)
    t0 = time.monotonic()
    try:
        yield
    finally:
        seconds = time.monotonic() - t0
        obs.add_phase(name, seconds)
        if live is not None:
            live.emit("phase_finished", phase=name, seconds=seconds)


def note_simulator(sim) -> bool:
    """Register *sim* as the active observation's live simulator.

    Harness code (e.g. the dumbbell builder) calls this right after
    constructing or restoring its :class:`~repro.sim.engine.Simulator`
    so the bus heartbeat thread can read progress counters off it.
    Costs one global load when no observation is active; returns ``True``
    if a registration happened.
    """
    if _ACTIVE is None:
        return False
    _ACTIVE.simulator = sim
    return True
