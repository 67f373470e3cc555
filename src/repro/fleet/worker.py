"""Work-stealing fleet worker: lease → run → store → acknowledge.

A worker is a loop over the shared :class:`~repro.fleet.queue.JobQueue`;
"work stealing" needs no extra machinery because every worker leases
from the same priority-ordered queue — an idle worker automatically
picks up whatever sweep has runnable points, whichever process submitted
it.

:meth:`FleetWorker.run_one` is the only code that runs a job attempt —
:func:`repro.runner.run_jobs` drains its jobs through it too.  One
attempt is assembled from:

* :func:`repro.obs.runtime.observe_job` + the bus heartbeat thread, so
  jobs publish phase/heartbeat telemetry and the ``job_*`` lifecycle
  events the dashboard renders;
* :func:`repro.snapshot.runtime.checkpoint_scope` over a checkpoint
  file *next to the result's store entry* — the next worker to lease a
  killed point **resumes from the checkpoint instead of restarting it**
  (bit-identically, per the snapshot guarantee);
* a lease-renewal daemon thread (its own :class:`JobQueue` instance, so
  it never races the main loop's state) that extends the lease every
  ``ttl/3`` seconds while the simulation runs.

Results land in the content-addressed store *before* the ``done``
acknowledgement is journaled; if the worker dies between the two, the
re-leased job finds the store entry and acknowledges a hit — the
at-least-once queue never recomputes a finished point.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

from ..obs.bus import BUS_FILENAME, EventBus, bus_scope, heartbeat_loop
from ..obs.manifest import build_manifest, write_manifest
from ..obs.runtime import observe_job
from ..obs.trace import write_trace
from ..runner.registry import resolve_job
from ..runner.spec import JobSpec
from ..snapshot.runtime import checkpoint_scope
from .queue import DEFAULT_MAX_ATTEMPTS, DEFAULT_TTL, JobQueue, JobState
from .store import ResultStore

__all__ = ["FleetWorker", "work_loop", "resolve_fleet_bus"]

#: idle sleep between lease attempts when the queue is busy elsewhere
_IDLE_POLL = 0.05


def resolve_fleet_bus(root: Union[str, Path], bus=None) -> Optional[Path]:
    """Where a fleet's bus file lives: ``<root>/events.jsonl`` by default.

    Unlike the runner (bus default-off via ``$REPRO_BUS``), a fleet is a
    long-running service whose whole point includes live visibility, so
    its bus is **on by default**; pass ``bus=False`` to silence it or an
    explicit path to relocate it.
    """
    if bus is False:
        return None
    if bus is not None:
        return Path(bus).expanduser()
    return Path(root) / BUS_FILENAME


class FleetWorker:
    """One worker process's (or thread's) lease-run-store loop."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        store: Optional[Union[str, Path, ResultStore]] = None,
        worker_id: Optional[str] = None,
        ttl: float = DEFAULT_TTL,
        checkpoint: Optional[float] = None,
        bus=None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ):
        self.root = Path(root)
        if isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(store if store is not None
                                     else self.root / "store")
        self.worker_id = worker_id or f"{socket.gethostname()}:{os.getpid()}"
        self.ttl = float(ttl)
        self.checkpoint = checkpoint
        self.bus_path = resolve_fleet_bus(self.root, bus)
        self.queue = JobQueue(self.root, max_attempts=max_attempts)
        self._renew_queue = JobQueue(self.root, max_attempts=max_attempts)

    # ------------------------------------------------------------------
    def run(self, *, on_job: Optional[Callable[[], None]] = None) -> int:
        """Lease and execute jobs until the queue drains; returns jobs run.

        ``on_job`` is called after every job (the in-process drain
        reports progress there).
        """
        live = EventBus(self.bus_path, job=None) if self.bus_path else None
        jobs_run = 0
        try:
            while True:
                self.queue.requeue_expired()
                job = self.queue.lease(self.worker_id, ttl=self.ttl)
                if job is None:
                    self.queue.sync()
                    if self.queue.drained():
                        return jobs_run
                    time.sleep(_IDLE_POLL)
                    continue
                self.run_one(job, live)
                jobs_run += 1
                if on_job is not None:
                    on_job()
        finally:
            if live is not None:
                live.close()

    # ------------------------------------------------------------------
    def run_one(self, job: JobState, live: Optional[EventBus] = None) -> None:
        """Execute one leased job and journal its outcome.

        Store-first ordering: the payload is durably stored (and its
        manifest written) before ``done`` is journaled, so a crash in
        the gap costs one redundant lease that immediately acknowledges
        a store hit — never a recompute.
        """
        spec = JobSpec(job.kind, job.params)
        entry = self.store.get(spec)
        if entry is not None:
            self.queue.done(job.key, self.worker_id, store="hit")
            if live is not None:
                live.emit("job_cached", key=job.key)
            return
        if live is not None:
            live.emit("job_started", key=job.key, kind=job.kind,
                      scheme=job.params.get("scheme"),
                      seed=job.params.get("seed"), attempt=job.attempts)
        ckpt_path = (self.store.checkpoint_path_for(spec)
                     if self.checkpoint else None)
        t0 = time.monotonic()
        try:
            with bus_scope(self.bus_path, job=job.key) as bus, \
                    observe_job() as obs, \
                    heartbeat_loop(bus), \
                    checkpoint_scope(ckpt_path, self.checkpoint) as slot, \
                    self._renewing(job.key):
                payload = resolve_job(job.kind)(dict(job.params))
        except Exception as exc:  # noqa: BLE001 - isolate any job failure
            error = f"{type(exc).__name__}: {exc}"
            self.queue.fail(job.key, self.worker_id, error)
            if live is not None:
                emit_attempt_failed(live, job, error)
            return
        obs_meta = obs.finish()
        if slot is not None:
            lineage = slot.summary()
            if lineage is not None:
                obs_meta["checkpoint"] = lineage
            slot.discard()
        meta = {
            "events": _events_of(payload),
            "wall_time": time.monotonic() - t0,
            "attempts": job.attempts,
        }
        if isinstance(obs_meta.get("peak_rss_kb"), int):
            meta["peak_rss_kb"] = obs_meta["peak_rss_kb"]
        self.store.put(spec, payload, meta=meta)
        record_observation(self.store, spec, meta, payload, obs_meta)
        self.queue.done(job.key, self.worker_id, store="fresh")
        if live is not None:
            live.emit("job_finished", key=job.key, wall_time=meta["wall_time"],
                      events=meta["events"], attempts=job.attempts)

    # ------------------------------------------------------------------
    @contextmanager
    def _renewing(self, key: str) -> Iterator[None]:
        """Context: renew the lease on *key* every ``ttl/3`` wall seconds.

        Runs on a daemon thread with its own queue instance (its journal
        sync must not race the main loop's).  If a renewal is refused —
        the lease expired and someone re-leased the key — renewals stop
        and the worker finishes as a zombie whose eventual ``done`` is
        still a valid, idempotent acknowledgement.
        """
        stop = threading.Event()
        interval = max(0.05, self.ttl / 3.0)

        def loop() -> None:
            while not stop.wait(interval):
                try:
                    if not self._renew_queue.renew(key, self.worker_id,
                                                   ttl=self.ttl):
                        return
                except OSError:  # pragma: no cover - disk trouble
                    return

        thread = threading.Thread(target=loop, name="repro-fleet-renew",
                                  daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join(timeout=2.0)


def _events_of(payload: Any) -> int:
    """Simulator events reported by a job payload, if it carries any."""
    if isinstance(payload, dict):
        v = payload.get("events_processed")
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return int(v)
    return 0


def emit_attempt_failed(live: EventBus, job: JobState, error: str) -> None:
    """Publish a failed attempt: ``job_failed`` if it was the job's last
    (the job is now ``failed``), else ``job_retried``."""
    if job.state == "failed":
        live.emit("job_failed", key=job.key, error=error[:500],
                  attempts=job.attempts)
    else:
        live.emit("job_retried", key=job.key, attempt=job.attempts)


def record_observation(store, spec, meta, payload, obs_meta) -> None:
    """Persist the job's run manifest (and trace) next to its store entry.

    Manifest writes are best-effort: a full disk or permission hiccup on
    the forensic record must not fail a job whose payload already landed.
    """
    obs_meta = dict(obs_meta) if obs_meta else {}
    trace_records = obs_meta.pop("trace_records", None)
    trace_file = None
    try:
        if trace_records is not None:
            trace_path = store.trace_path_for(spec)
            write_trace(trace_path, trace_records)
            trace_file = trace_path.name
        manifest = build_manifest(
            key=spec.cache_key,
            kind=spec.kind,
            params=spec.params,
            wall_time=meta["wall_time"],
            events=meta["events"],
            attempts=meta["attempts"],
            payload=payload,
            obs_meta=obs_meta,
            trace_file=trace_file,
        )
        write_manifest(store.manifest_path_for(spec), manifest)
    except OSError:  # pragma: no cover - disk trouble
        pass


def work_loop(root: Union[str, Path], worker_id: str, **worker_kwargs) -> int:
    """Module-level worker entry point (picklable for spawn-start processes).

    Builds a :class:`FleetWorker` over *root* with *worker_kwargs* and
    runs it until the queue drains; this is what
    :class:`~repro.fleet.transport.LocalTransport` launches in each
    worker process.
    """
    return FleetWorker(root, worker_id=worker_id, **worker_kwargs).run()
