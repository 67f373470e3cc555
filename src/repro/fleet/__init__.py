"""Resumable job execution: the one stack every sweep runs on.

A crash-safe on-disk job queue that any number of workers — started,
killed and restarted at will — converge against with zero recomputation
of finished points.  :func:`repro.runner.run_jobs` is its single-host
case: it drains a throwaway fleet directory and returns results in spec
order; a persistent fleet directory adds ``kill -9`` tolerance across
processes and ``python -m repro.fleet resume``.  The pieces:

* :class:`~repro.fleet.journal.Journal` — append-only JSONL op log with
  ``flock``-serialized writers and torn-tail-tolerant replay; the single
  source of truth for queue state.
* :class:`~repro.fleet.queue.JobQueue` — the pending/leased/done/failed
  state machine replayed from the journal: priority-ordered leases with
  expiry, double-lease prevention, immediate release of a dead or
  overdue worker's leases.
* :class:`~repro.fleet.store.ResultStore` — content-addressed results
  (canonical job-param hash, shared with :mod:`repro.runner.cache`), so
  identical points dedupe *across* sweeps and across fleet directories
  pointed at the same store.
* :class:`~repro.fleet.worker.FleetWorker` — lease → run → store → ack
  loop and the only code that runs a job attempt; resumes killed points
  from their periodic :mod:`repro.snapshot` checkpoints, renews its
  leases from a daemon thread, and publishes ``job_*`` lifecycle events
  on :mod:`repro.obs.bus`.
* :class:`~repro.fleet.transport.LocalTransport` — starts, reaps and
  kills workers as local processes.
* :class:`~repro.fleet.scheduler.Fleet` — the user-facing facade:
  ``submit`` (with store-hit dedupe), ``drain`` (crash and timeout
  recovery) / ``resume``, ``status``, ``results``; ``python -m
  repro.fleet`` wraps it in a CLI.

Determinism contract: jobs are deterministic functions of their spec, so
at-least-once execution (a lease that expires mid-run may be re-leased)
still yields exactly-once *results* — the store is keyed by content, a
re-leased job first checks the store, and a resumed run is bit-identical
to a straight-through one (the :mod:`repro.snapshot` guarantee).
"""

from .journal import Journal
from .queue import JOB_STATES, JobQueue, JobState
from .scheduler import Fleet, SubmitReceipt, resolve_fleet
from .store import ResultStore
from .transport import LocalTransport
from .worker import FleetWorker, work_loop

__all__ = [
    "Fleet",
    "FleetWorker",
    "JOB_STATES",
    "JobQueue",
    "JobState",
    "Journal",
    "LocalTransport",
    "ResultStore",
    "SubmitReceipt",
    "resolve_fleet",
    "work_loop",
]
