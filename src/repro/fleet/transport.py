"""Worker processes: how the scheduler turns "N workers" into processes.

The scheduler only starts, reaps, kills and stops workers; everything
else (leases, results, telemetry) flows through the shared on-disk
fabric (journal + store + bus), never through the scheduler process.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing.connection import wait
from typing import Dict, List, Optional

from .worker import work_loop

__all__ = ["LocalTransport"]


def _mp_context():
    """Fork where available (fast, inherits runtime registrations).

    ``$REPRO_MP_START`` forces a start method (``spawn``, ``forkserver``).
    """
    method = os.environ.get("REPRO_MP_START", "").strip() or None
    if method is None and "fork" in multiprocessing.get_all_start_methods():
        method = "fork"
    return multiprocessing.get_context(method)


class LocalTransport:
    """Workers as local processes (fork where available).

    Each worker process runs :func:`repro.fleet.worker.work_loop` against
    the fleet directory and exits when the queue drains.  Worker death —
    crash, ``kill -9``, OOM — is detected by :meth:`reap`, which keeps
    the exit code in :attr:`exitcodes`; what happens to the dead
    worker's leases is the scheduler's call.

    The live process handles are exposed as :attr:`procs` so the
    kill-tolerance tests (and the CI ``jobs-smoke`` job) can SIGKILL
    real workers mid-flight.
    """

    def __init__(self, root, **worker_defaults):
        """Transport over fleet directory *root*; *worker_defaults* are
        baked into every :func:`work_loop` launch (ttl, checkpoint, ...)."""
        self.root = root
        self.worker_defaults = dict(worker_defaults)
        self.procs: Dict[str, multiprocessing.process.BaseProcess] = {}
        self.exitcodes: Dict[str, Optional[int]] = {}
        self._ctx = _mp_context()
        self._counter = 0

    def start(self, n: int) -> List[str]:
        """Spawn *n* worker processes; returns their worker ids.

        Ids carry this process's pid, so two schedulers draining one
        fleet never share a worker id (leases are released by id).
        """
        started: List[str] = []
        for _ in range(n):
            worker_id = f"local-{os.getpid()}-{self._counter}"
            self._counter += 1
            proc = self._ctx.Process(
                target=work_loop,
                args=(self.root, worker_id),
                kwargs=self.worker_defaults,
                daemon=True,
                name=f"repro-fleet-{worker_id}",
            )
            proc.start()
            self.procs[worker_id] = proc
            started.append(worker_id)
        return started

    def alive(self) -> List[str]:
        """Worker ids whose processes are still running."""
        return [wid for wid, p in self.procs.items() if p.is_alive()]

    def wait(self, timeout: Optional[float]) -> None:
        """Block until some worker exits or *timeout* seconds pass."""
        wait([p.sentinel for p in self.procs.values()], timeout)

    def reap(self) -> List[str]:
        """Join and drop exited workers; returns the newly-dead ids."""
        dead: List[str] = []
        for wid, proc in list(self.procs.items()):
            if not proc.is_alive():
                proc.join()
                self.exitcodes[wid] = proc.exitcode
                del self.procs[wid]
                dead.append(wid)
        return dead

    def kill(self, worker_id: str) -> None:
        """SIGKILL and drop one worker (the scheduler's timeout
        enforcement); unlike a death, it is not reported by :meth:`reap`."""
        proc = self.procs.pop(worker_id, None)
        if proc is not None:
            proc.kill()
            proc.join()

    def stop(self) -> None:
        """Terminate (then kill) every remaining worker process."""
        for proc in self.procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stubborn child
                proc.kill()
                proc.join(timeout=5.0)
        self.procs.clear()

    def pid_of(self, worker_id: str) -> Optional[int]:
        """OS pid of a live worker (tests aim their SIGKILLs with this)."""
        proc = self.procs.get(worker_id)
        return proc.pid if proc is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LocalTransport alive={self.alive()}>"
