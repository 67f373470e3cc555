"""Run-state aggregation for the live dashboard.

:class:`RunView` merges the two on-disk sources a run directory offers
into one queryable picture:

* ``events.jsonl`` — the live bus (:mod:`repro.obs.bus`): job lifecycle,
  phases and heartbeats, appended while the sweep is still executing.
  The view tails it incrementally (byte offset, torn-tail tolerant), so
  refreshing is cheap even against a multi-megabyte bus file.
* ``*.manifest.json`` — the durable post-hoc record, rolled up with
  :func:`repro.obs.report.scheme_summary` for per-scheme metrics.

Everything is read-only: the view never writes into the run directory,
so pointing it (or the server built on it) at a live sweep cannot
perturb results.  All public accessors return JSON-clean dicts/lists —
they are served verbatim by ``python -m repro.serve``'s ``/api/*``
endpoints and reused by tests.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..obs.bus import BUS_FILENAME
from ..obs.manifest import load_manifests_with_warnings
from ..obs.report import scheme_summary

__all__ = ["RunView"]

#: job states a key can be in, in dashboard display order
JOB_STATES = ("running", "retrying", "done", "failed", "cached")


class RunView:
    """Aggregated, refreshable state of one run directory.

    Thread-safe: the HTTP server refreshes from several request threads;
    a single lock serializes event application.  Construct once per
    served directory and call :meth:`refresh` before reading.
    """

    def __init__(self, run_dir: Union[str, Path],
                 history: Optional[Union[str, Path]] = None) -> None:
        """Watch *run_dir* (a runner cache dir); *history* optionally
        points at a ``BENCH_history.jsonl`` trajectory to expose."""
        self.run_dir = Path(run_dir)
        self.bus_path = self.run_dir / BUS_FILENAME
        self.history_path = Path(history) if history else None
        self._lock = threading.Lock()
        self._offset = 0
        self._tail = b""
        self._jobs: Dict[str, dict] = {}
        self._runs: List[dict] = []
        self._event_count = 0
        self._fleet: Dict[str, object] = {
            "queue": None,  # latest fleet_queue depth snapshot
            "workers": {},  # worker id -> "started" | "exited"
            "sweeps": [],  # fleet_submitted receipts, submit order
        }

    # ------------------------------------------------------------------
    # bus tailing

    def refresh(self) -> int:
        """Apply bus events appended since the last call; return how many."""
        with self._lock:
            return self._refresh_locked()

    def _refresh_locked(self) -> int:
        try:
            with open(self.bus_path, "rb") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
        except OSError:
            return 0
        if not chunk:
            return 0
        self._offset += len(chunk)
        data = self._tail + chunk
        lines = data.split(b"\n")
        self._tail = lines.pop()  # b"" when data ended in a newline
        applied = 0
        for line in lines:
            if not line.strip():
                continue
            try:
                ev = json.loads(line)
            except ValueError:
                continue
            if isinstance(ev, dict) and ev.get("type"):
                self._apply(ev)
                applied += 1
        return applied

    def _apply(self, ev: dict) -> None:
        self._event_count += 1
        etype = ev.get("type")
        if etype == "run_started":
            self._runs.append({
                "started_ts": ev.get("ts"),
                "finished_ts": None,
                "total": ev.get("total"),
                "stats": None,
            })
            return
        if etype == "run_finished":
            for run in reversed(self._runs):
                if run["finished_ts"] is None:
                    run["finished_ts"] = ev.get("ts")
                    run["stats"] = ev.get("stats")
                    break
            return
        if etype.startswith("fleet_"):
            self._apply_fleet(etype, ev)
            return
        key = ev.get("key")
        if key is None:
            return
        job = self._jobs.setdefault(str(key), {"key": str(key), "state": None})
        if etype == "job_started":
            job.update(
                state="running",
                kind=ev.get("kind"),
                scheme=ev.get("scheme"),
                seed=ev.get("seed"),
                attempt=ev.get("attempt"),
                started_ts=ev.get("ts"),
            )
        elif etype == "job_finished":
            job.update(
                state="done",
                wall_time=ev.get("wall_time"),
                events=ev.get("events"),
                attempts=ev.get("attempts"),
                finished_ts=ev.get("ts"),
            )
        elif etype == "job_failed":
            job.update(
                state="failed",
                error=ev.get("error"),
                attempts=ev.get("attempts"),
                finished_ts=ev.get("ts"),
            )
        elif etype == "job_retried":
            job.update(state="retrying", attempt=ev.get("attempt"))
        elif etype == "job_cached":
            job.update(state="cached", finished_ts=ev.get("ts"))
        elif etype == "job_resumed":
            job["resumed_at"] = ev.get("resumed_at")
        elif etype == "phase_started":
            job["phase"] = ev.get("phase")
        elif etype == "phase_finished":
            if job.get("phase") == ev.get("phase"):
                job["phase"] = None
        elif etype == "heartbeat":
            prev_sched, prev_ts = job.get("sched"), job.get("beat_ts")
            job.update(
                sim_now=ev.get("sim_now"),
                events=ev.get("events"),
                sched=ev.get("sched"),
                peak_rss_kb=ev.get("peak_rss_kb"),
                beat_ts=ev.get("ts"),
            )
            # live events/s from consecutive heartbeats' sched/ts deltas
            ts, sched = ev.get("ts"), ev.get("sched")
            if (None not in (prev_sched, prev_ts, ts, sched)
                    and ts > prev_ts and sched >= prev_sched):
                job["rate"] = (sched - prev_sched) / (ts - prev_ts)

    def _apply_fleet(self, etype: str, ev: dict) -> None:
        """Fold one ``fleet_*`` bus event into the fleet rollup.

        Fleet events describe the queue and its workers, not any one
        job, so they are aggregated here instead of entering the per-job
        table (which the ``job_*`` events fill, fleet runs included).
        """
        fl = self._fleet
        if etype == "fleet_queue":
            fl["queue"] = {
                state: ev.get(state)
                for state in ("pending", "leased", "done", "failed")
            }
        elif etype == "fleet_worker":
            fl["workers"][str(ev.get("worker"))] = ev.get("state")
        elif etype == "fleet_submitted":
            fl["sweeps"].append({
                "sweep": ev.get("sweep"),
                "jobs": ev.get("jobs"),
                "deduped": ev.get("deduped"),
                "ts": ev.get("ts"),
            })

    # ------------------------------------------------------------------
    # API payloads

    def fleet(self) -> Optional[dict]:
        """Fleet rollup for ``/api/runs``; ``None`` until fleet events show.

        ``queue`` is the latest ``fleet_queue`` depth snapshot,
        ``workers_alive`` counts workers a drain started and has not yet
        reaped or killed.
        """
        with self._lock:
            return self._fleet_locked()

    def _fleet_locked(self) -> Optional[dict]:
        fl = self._fleet
        if not (fl["queue"] or fl["workers"] or fl["sweeps"]):
            return None
        workers = fl["workers"]
        return {
            "queue": dict(fl["queue"]) if fl["queue"] else None,
            "workers_alive": sum(1 for s in workers.values() if s == "started"),
            "workers_seen": len(workers),
            "sweeps": [dict(s) for s in fl["sweeps"]],
        }

    def runs(self) -> dict:
        """``/api/runs`` payload: run-level summary plus job-state counts."""
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                state = job.get("state")
                if state in counts:
                    counts[state] += 1
            return {
                "run_dir": str(self.run_dir),
                "bus_file": str(self.bus_path),
                "bus_exists": self.bus_path.exists(),
                "event_count": self._event_count,
                "runs": [dict(r) for r in self._runs],
                "job_counts": counts,
                "jobs_seen": len(self._jobs),
                "fleet": self._fleet_locked(),
            }

    def jobs(self) -> List[dict]:
        """``/api/jobs`` payload: one record per job key, newest first."""
        with self._lock:
            jobs = [dict(j) for j in self._jobs.values()]
        jobs.sort(key=lambda j: j.get("started_ts") or 0.0, reverse=True)
        return jobs

    def metrics(self) -> dict:
        """``/api/metrics`` payload: per-scheme rollup from the manifests.

        Read fresh from disk each call (manifests land as jobs finish);
        validation manifests are excluded, unreadable ones surfaced as
        warnings instead of failing the endpoint.
        """
        manifests, warnings = load_manifests_with_warnings(self.run_dir)
        manifests = [m for m in manifests if m.get("kind") != "validation"]
        return {
            "jobs": len(manifests),
            "schemes": scheme_summary(manifests),
            "warnings": warnings,
        }

    def history(self, last: int = 50) -> dict:
        """``/api/history`` payload: tail of the bench-history trajectory."""
        rows: List[dict] = []
        if self.history_path is not None:
            try:
                with open(self.history_path, "r", encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            rec = json.loads(line)
                        except ValueError:
                            continue
                        if isinstance(rec, dict):
                            rows.append(rec)
            except OSError:
                pass
        return {
            "file": str(self.history_path) if self.history_path else None,
            "entries": rows[-last:],
        }

    # ------------------------------------------------------------------
    # SSE support

    def tail_events(self, from_start: bool = False, poll: float = 0.5,
                    stop=None, keepalive_every: float = 15.0):
        """Yield ``(kind, text)`` pairs for an SSE stream, forever.

        *kind* is ``"event"`` (text = one raw JSON line from the bus) or
        ``"keepalive"``.  Starts at end-of-file unless *from_start*;
        polls every *poll* seconds; *stop* is an optional
        ``threading.Event`` that ends the generator (tests use it — HTTP
        clients just disconnect).  A keepalive is yielded after every
        *keepalive_every* seconds without bus traffic so proxies and
        slow consumers keep idle connections open (tests shrink it to
        exercise the path without waiting 15 real seconds).
        """
        offset = 0 if from_start else self._size()
        tail = b""
        idle = 0.0
        while stop is None or not stop.is_set():
            chunk = b""
            try:
                with open(self.bus_path, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
            except OSError:
                pass
            if chunk:
                offset += len(chunk)
                data = tail + chunk
                lines = data.split(b"\n")
                tail = lines.pop()
                sent = False
                for line in lines:
                    if line.strip():
                        yield "event", line.decode("utf-8", "replace")
                        sent = True
                if sent:
                    idle = 0.0
                    continue
            time.sleep(poll)
            idle += poll
            if idle >= keepalive_every:
                yield "keepalive", ""
                idle = 0.0

    def _size(self) -> int:
        try:
            return self.bus_path.stat().st_size
        except OSError:
            return 0
