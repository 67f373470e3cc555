"""Fleet facade: submit sweeps, drain them with workers, read results.

:class:`Fleet` ties the fabric's pieces together behind four verbs:

* :meth:`Fleet.submit` — dedupe each point against the content-addressed
  store (a point finished by *any* earlier sweep is acknowledged as a
  store hit without ever reaching a worker), journal the rest;
* :meth:`Fleet.drain` — run workers (in-process, or a
  :class:`~repro.fleet.transport.LocalTransport` process pool that
  releases a dead or overdue worker's lease at once and respawns it)
  until every job is terminal;
* :meth:`Fleet.resume` — requeue expired leases and drain; this is the
  whole crash-recovery story, because the journal replay plus the store
  already encode everything else;
* :meth:`Fleet.results` — payloads for a sweep, in submission order,
  read back from the store.

A fleet directory is self-describing::

    <root>/journal.jsonl   operation log (the queue)
    <root>/journal.lock    writer mutex (flock)
    <root>/store/          content-addressed results (ResultCache layout)
    <root>/events.jsonl    telemetry bus (fleet_* + job_* events)
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..obs.bus import EventBus
from ..runner.spec import JobSpec
from .queue import DEFAULT_MAX_ATTEMPTS, DEFAULT_TTL, JobQueue
from .store import ResultStore
from .transport import LocalTransport
from .worker import FleetWorker, emit_attempt_failed, resolve_fleet_bus

__all__ = ["SubmitReceipt", "Fleet", "resolve_fleet"]

#: environment variable naming a default fleet directory (CLI / sweeps)
FLEET_ENV = "REPRO_FLEET"

#: wall seconds between ``fleet_queue`` snapshots (and progress calls)
#: while a worker pool drains
_STATUS_EVERY = 1.0


@dataclass
class SubmitReceipt:
    """What :meth:`Fleet.submit` accepted, per sweep."""

    sweep: str
    keys: List[str] = field(default_factory=list)  # submit order, all points
    submitted: int = 0  # newly journaled as pending
    deduped: int = 0  # acknowledged from the store without running
    known: int = 0  # already in this fleet's queue (resubmission)

    def summary(self) -> Dict[str, Any]:
        """JSON-clean receipt (for ``submit --json`` and bus payloads)."""
        return {
            "sweep": self.sweep,
            "jobs": len(self.keys),
            "submitted": self.submitted,
            "deduped": self.deduped,
            "known": self.known,
        }


class Fleet:
    """One fleet directory's scheduler-side handle."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        store: Optional[Union[str, Path, ResultStore]] = None,
        bus=None,
        ttl: float = DEFAULT_TTL,
        checkpoint: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ):
        """Open (creating if needed) the fleet at *root*.

        *store* defaults to ``<root>/store`` but may point anywhere — in
        particular at an existing runner cache directory, which makes
        every previously cached point a submit-time dedupe.  *ttl*,
        *checkpoint* and *max_attempts* become the defaults for workers
        this fleet launches.
        """
        self.root = Path(root)
        if isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(store if store is not None
                                     else self.root / "store")
        self.ttl = float(ttl)
        self.checkpoint = checkpoint
        self.max_attempts = int(max_attempts)
        self.bus_path = resolve_fleet_bus(self.root, bus)
        # fleet_* events describe this directory, so only a bus kept in
        # it gets them; run_jobs's throwaway fleet writes its job_*
        # events to the bus next to the cache and no queue events
        self._queue_events = (self.bus_path is not None
                              and self.bus_path.parent == self.root)
        self.queue = JobQueue(self.root, max_attempts=max_attempts)
        self._sweep_counter = 0

    # ------------------------------------------------------------------
    def submit(self, jobs: Iterable[Union[JobSpec, Tuple[str, Dict]]], *,
               sweep: Optional[str] = None, priority: int = 0) -> SubmitReceipt:
        """Enqueue *jobs* (specs or ``(kind, params)`` pairs) as one sweep.

        Dedupe happens here, not in workers: a job whose content key
        already has a valid store entry is journaled and immediately
        acknowledged ``done(store="hit")``, so drains converge without
        touching it (a corrupt entry is a miss and gets recomputed).
        Re-submitting an in-flight sweep is idempotent by key (counted
        in ``known``), which is how a crashed *submitter* recovers: just
        run the same submit again.  Every point served without running
        is published as ``job_cached``.
        """
        if sweep is None:
            sweep = self._fresh_sweep_name()
        receipt = SubmitReceipt(sweep=sweep)
        with self._bus() as live:
            for item in jobs:
                spec = item if isinstance(item, JobSpec) else JobSpec(*item)
                key = spec.cache_key
                receipt.keys.append(key)
                fresh = self.queue.submit(key, spec.kind, dict(spec.params),
                                          sweep=sweep, priority=priority)
                if not fresh:
                    receipt.known += 1
                    hit = self.queue.jobs[key].state == "done"
                elif self.store.get(spec) is not None:
                    self.queue.done(key, "scheduler", store="hit")
                    receipt.deduped += 1
                    hit = True
                else:
                    receipt.submitted += 1
                    hit = False
                if hit and live is not None:
                    live.emit("job_cached", key=key)
            self._publish(live, "fleet_submitted", sweep=sweep,
                          jobs=len(receipt.keys), deduped=receipt.deduped)
            self._publish(live, "fleet_queue", **self.queue.counts())
        return receipt

    def _fresh_sweep_name(self) -> str:
        """Generate a sweep name unique across processes and restarts."""
        self._sweep_counter += 1
        return (f"sweep-{os.getpid()}-{int(time.time() * 1000):x}"
                f"-{self._sweep_counter}")

    # ------------------------------------------------------------------
    def drain(self, *, workers: int = 0, timeout: Optional[float] = None,
              on_update: Optional[Callable[[], None]] = None) -> Dict[str, int]:
        """Run workers until every job is terminal; returns final counts.

        ``workers=0`` drains in-process (serial, debuggable — the exact
        worker loop, same telemetry; *timeout* needs a process to kill
        and is ignored).  ``workers=N`` launches a :class:`LocalTransport`
        pool and sleeps on the workers' exit sentinels.  A worker that
        dies (crash, OOM, ``kill -9``) is reaped and its lease released
        at once — requeued, or failed with ``worker crashed without
        result (exit code N)`` — and a replacement is started; a lease
        held longer than *timeout* seconds gets its worker killed and
        fails or requeues with ``timed out after {timeout}s``.  Leases
        of workers outside this pool still recover by TTL expiry.

        *on_update* is called whenever ``self.queue`` has been synced
        with the journal: after every in-process job, else on each wake
        (a worker exit, an overdue lease, or every ``_STATUS_EVERY``).
        """
        with self._bus() as live:
            if workers <= 0:
                worker = FleetWorker(self.root, **self._worker_kwargs())
                self._publish(live, "fleet_worker", worker=worker.worker_id,
                              state="started")
                try:
                    worker.run(on_job=lambda: self._update(on_update))
                finally:
                    self._publish(live, "fleet_worker",
                                  worker=worker.worker_id, state="exited")
            else:
                self._drain_pool(workers, timeout, on_update, live)
            self._update(on_update)
            self._publish(live, "fleet_queue", **self.queue.counts())
        return self.queue.counts()

    def _drain_pool(self, workers: int, timeout: Optional[float],
                    on_update, live: Optional[EventBus]) -> None:
        """The ``workers=N`` drain loop (see :meth:`drain`)."""
        transport = self.transport()
        # respawns for workers that died holding no lease; a death that
        # held one burns that job's attempt, so those are bounded already
        spare = 4 * workers
        next_status = 0.0
        try:
            while True:
                self._update(on_update)
                counts = self.queue.counts()
                todo = counts["pending"] + counts["leased"]
                if not todo:
                    return
                if time.monotonic() >= next_status:
                    self._publish(live, "fleet_queue", **counts)
                    next_status = time.monotonic() + _STATUS_EVERY
                wake = _STATUS_EVERY
                if timeout is not None:
                    wake = min(wake, self._kill_overdue(transport, timeout, live))
                for wid in transport.reap():
                    code = transport.exitcodes[wid]
                    self._publish(live, "fleet_worker", worker=wid,
                                  state="exited")
                    if not self._release(
                            wid, f"worker crashed without result (exit code {code})",
                            live):
                        spare -= 1
                want = min(workers, todo) - len(transport.procs)
                if want > 0 and spare >= 0:
                    for wid in transport.start(want):
                        self._publish(live, "fleet_worker", worker=wid,
                                      state="started")
                elif not transport.procs:
                    return  # no workers and no respawns left: give up
                transport.wait(wake)
        finally:
            for wid in list(transport.procs):
                self._publish(live, "fleet_worker", worker=wid, state="exited")
            transport.stop()

    def _kill_overdue(self, transport: LocalTransport, timeout: float,
                      live: Optional[EventBus]) -> float:
        """Kill pool workers whose lease outlived *timeout*; returns the
        wall seconds until the next lease of the pool falls due."""
        now = time.time()
        wake = timeout
        for job in list(self.queue.jobs.values()):
            if job.state != "leased" or job.worker not in transport.procs:
                continue
            left = job.leased_at + timeout - now
            if left <= 0:
                transport.kill(job.worker)
                self._publish(live, "fleet_worker", worker=job.worker,
                              state="killed")
                self._release(job.worker, f"timed out after {timeout}s", live)
            else:
                wake = min(wake, left)
        return max(wake, 0.01)

    def _release(self, worker: str, error: str,
                 live: Optional[EventBus]) -> list:
        """Release a gone worker's leases and publish each failed attempt."""
        released = self.queue.release(worker, error)
        if live is not None:
            for job in released:
                emit_attempt_failed(live, job, error)
        return released

    def _update(self, on_update) -> None:
        self.queue.sync()
        if on_update is not None:
            on_update()

    def resume(self, *, workers: int = 0, **drain_kwargs) -> Dict[str, int]:
        """Recover after a crash: requeue expired leases, then drain — the
        journal replays the queue, finished points are store hits, and
        half-finished points resume from their checkpoints."""
        self.queue.requeue_expired()
        return self.drain(workers=workers, **drain_kwargs)

    def transport(self) -> LocalTransport:
        """A :class:`LocalTransport` preloaded with this fleet's defaults."""
        return LocalTransport(str(self.root), **self._worker_kwargs())

    def _worker_kwargs(self) -> Dict[str, Any]:
        """What every worker of this fleet is built with."""
        return dict(store=self.store, ttl=self.ttl, checkpoint=self.checkpoint,
                    bus=self.bus_path or False, max_attempts=self.max_attempts)

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """Queue depths, per-sweep progress, and store traffic, fresh."""
        self.queue.sync()
        counts = self.queue.counts()
        sweeps: Dict[str, Dict[str, int]] = {}
        fresh = hit = 0
        for sweep, keys in self.queue.sweeps.items():
            per = {state: 0 for state in ("pending", "leased", "done", "failed")}
            for key in keys:
                per[self.queue.jobs[key].state] += 1
            sweeps[sweep] = per
        for job in self.queue.jobs.values():
            if job.state == "done":
                if job.store == "hit":
                    hit += 1
                else:
                    fresh += 1
        return {
            "root": str(self.root),
            "counts": counts,
            "drained": self.queue.drained(),
            "sweeps": sweeps,
            "computed": {"fresh": fresh, "hit": hit},
            "store": self.store.stats.snapshot(),
        }

    def results(self, sweep: Union[str, SubmitReceipt]) -> List[Dict[str, Any]]:
        """Per-job outcomes for *sweep*, in submission order.

        *sweep* is a sweep name or a :class:`SubmitReceipt` — pass the
        receipt when some of your points may have deduped against an
        *earlier* sweep (they stay attached to the sweep that first
        submitted them, so the name alone would miss them).  Each entry
        carries the job's terminal ``state`` plus either the store
        ``payload`` (done) or the recorded ``error`` (failed / still in
        flight).
        """
        self.queue.sync()
        keys = (sweep.keys if isinstance(sweep, SubmitReceipt)
                else self.queue.sweep_keys(sweep))
        out: List[Dict[str, Any]] = []
        for key in keys:
            job = self.queue.jobs[key]
            entry = (self.store.get(JobSpec(job.kind, job.params))
                     if job.state == "done" else None)
            out.append({
                "key": key,
                "kind": job.kind,
                "params": job.params,
                "state": job.state,
                "payload": entry["payload"] if entry is not None else None,
                "error": job.error,
            })
        return out

    # ------------------------------------------------------------------
    def _publish(self, live: Optional[EventBus], etype: str, **fields) -> None:
        """Emit one ``fleet_*`` event on this directory's own bus."""
        if live is not None and self._queue_events:
            live.emit(etype, **fields)

    @contextmanager
    def _bus(self) -> Iterator[Optional[EventBus]]:
        """This fleet's bus for one scheduler call (``None`` when off)."""
        if self.bus_path is None:
            yield None
            return
        with EventBus(self.bus_path, job=None) as live:
            yield live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Fleet root={self.root} {self.queue.counts()}>"


def resolve_fleet(fleet=None) -> Optional[Fleet]:
    """Resolve a ``fleet=`` argument the way ``cache=`` resolves.

    ``None`` consults ``$REPRO_FLEET`` (unset/empty → no fleet),
    ``False`` forces fleet-less execution, a :class:`Fleet` passes
    through, and a string/path opens a fleet rooted there.
    """
    if fleet is False:
        return None
    if isinstance(fleet, Fleet):
        return fleet
    if fleet is None:
        env = os.environ.get(FLEET_ENV, "").strip()
        if not env:
            return None
        fleet = env
    return Fleet(fleet)
