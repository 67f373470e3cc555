"""Fleet facade: submit dedupe, drain, results, env resolution."""

from __future__ import annotations

import json
import time

import pytest

from repro.fleet import Fleet, resolve_fleet
from repro.fleet.worker import FleetWorker
from repro.runner.spec import JobSpec

ECHO = "tests.runner.jobs:echo"
BOOM = "tests.runner.jobs:boom"
CRASH = "tests.runner.jobs:crash"
SLEEPY = "tests.runner.jobs:sleepy"


def test_submit_drain_results_roundtrip(tmp_path):
    fleet = Fleet(tmp_path / "fleet")
    receipt = fleet.submit([(ECHO, {"value": i}) for i in range(4)],
                           sweep="s")
    assert receipt.summary() == {"sweep": "s", "jobs": 4, "submitted": 4,
                                 "deduped": 0, "known": 0}
    counts = fleet.drain(workers=0)
    assert counts == {"pending": 0, "leased": 0, "done": 4, "failed": 0}
    payloads = [e["payload"] for e in fleet.results("s")]
    assert payloads == [{"value": i} for i in range(4)]


def test_submit_dedupes_across_sweeps_via_store(tmp_path):
    fleet = Fleet(tmp_path / "fleet")
    fleet.submit([(ECHO, {"value": 1})], sweep="first")
    fleet.drain(workers=0)
    # an overlapping second sweep: the shared point never reaches a worker
    receipt = fleet.submit([(ECHO, {"value": 1}), (ECHO, {"value": 2})],
                           sweep="second")
    assert receipt.deduped == 0 and receipt.known == 1 and receipt.submitted == 1
    fleet.drain(workers=0)
    rows = fleet.results(receipt)  # receipt keys span both sweeps
    assert [r["payload"] for r in rows] == [{"value": 1}, {"value": 2}]
    status = fleet.status()
    assert status["computed"] == {"fresh": 2, "hit": 0}


def test_submit_dedupes_against_prewarmed_store(tmp_path):
    """Points already in the store are acknowledged without any worker."""
    fleet = Fleet(tmp_path / "fleet")
    fleet.store.put(JobSpec(ECHO, {"value": 7}), {"value": 7})
    receipt = fleet.submit([(ECHO, {"value": 7}), (ECHO, {"value": 8})])
    assert receipt.deduped == 1 and receipt.submitted == 1
    fleet.drain(workers=0)
    assert fleet.status()["computed"] == {"fresh": 1, "hit": 1}


def test_failed_jobs_surface_in_results(tmp_path):
    fleet = Fleet(tmp_path / "fleet", max_attempts=2)
    receipt = fleet.submit([(BOOM, {}), (ECHO, {"value": 1})], sweep="s")
    counts = fleet.drain(workers=0)
    assert counts["done"] == 1 and counts["failed"] == 1
    by_state = {e["state"]: e for e in fleet.results(receipt)}
    assert "injected failure" in by_state["failed"]["error"]
    assert by_state["done"]["payload"] == {"value": 1}


def test_worker_acks_store_hit_without_running(tmp_path):
    """A pending job whose result landed meanwhile becomes a store hit."""
    fleet = Fleet(tmp_path / "fleet")
    receipt = fleet.submit([(ECHO, {"value": 5})])
    fleet.store.put(JobSpec(ECHO, {"value": 5}), {"value": 5})
    worker = FleetWorker(fleet.root, store=fleet.store, bus=False)
    worker.run()
    fleet.queue.sync()
    assert fleet.queue.jobs[receipt.keys[0]].store == "hit"
    assert fleet.store.stats.puts == 1  # only our seeding put


def test_drain_with_local_transport(tmp_path):
    fleet = Fleet(tmp_path / "fleet", ttl=10.0)
    fleet.submit([(ECHO, {"value": i}) for i in range(8)], sweep="mp")
    counts = fleet.drain(workers=2)
    assert counts["done"] == 8 and counts["failed"] == 0
    assert fleet.status()["computed"]["fresh"] == 8


def test_crash_is_released_without_waiting_for_lease_expiry(tmp_path):
    fleet = Fleet(tmp_path / "fleet", ttl=30.0, max_attempts=2)
    receipt = fleet.submit([(CRASH, {})])
    t0 = time.monotonic()
    counts = fleet.drain(workers=1)
    assert time.monotonic() - t0 < 10.0  # well inside the 30 s TTL
    assert counts["failed"] == 1
    (entry,) = fleet.results(receipt)
    assert "crashed" in entry["error"] and "exit code 3" in entry["error"]
    assert fleet.queue.jobs[receipt.keys[0]].attempts == 2


def test_overdue_lease_is_killed_without_waiting_for_lease_expiry(tmp_path):
    fleet = Fleet(tmp_path / "fleet", ttl=30.0, max_attempts=1)
    receipt = fleet.submit([(SLEEPY, {"seconds": 60.0}), (ECHO, {"value": 1})])
    t0 = time.monotonic()
    counts = fleet.drain(workers=2, timeout=0.5)
    assert time.monotonic() - t0 < 10.0
    assert counts == {"pending": 0, "leased": 0, "done": 1, "failed": 1}
    hung, echo = fleet.results(receipt)
    assert hung["error"] == "timed out after 0.5s"
    assert echo["payload"] == {"value": 1}


def test_bus_events_flow(tmp_path):
    fleet = Fleet(tmp_path / "fleet")
    fleet.submit([(ECHO, {"value": 1})], sweep="s")
    fleet.drain(workers=0)
    lines = (fleet.root / "events.jsonl").read_text().splitlines()
    types = [json.loads(line)["type"] for line in lines]
    for expected in ("fleet_submitted", "fleet_queue", "fleet_worker",
                     "job_started", "job_finished"):
        assert expected in types, f"missing {expected} in {types}"


def test_bus_can_be_disabled(tmp_path):
    fleet = Fleet(tmp_path / "fleet", bus=False)
    fleet.submit([(ECHO, {"value": 1})])
    fleet.drain(workers=0)
    assert not (fleet.root / "events.jsonl").exists()


def test_resolve_fleet(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_FLEET", raising=False)
    assert resolve_fleet(None) is None
    assert resolve_fleet(False) is None
    fleet = Fleet(tmp_path / "a")
    assert resolve_fleet(fleet) is fleet
    opened = resolve_fleet(str(tmp_path / "b"))
    assert isinstance(opened, Fleet)
    monkeypatch.setenv("REPRO_FLEET", str(tmp_path / "c"))
    from_env = resolve_fleet(None)
    assert isinstance(from_env, Fleet)
    assert from_env.root == tmp_path / "c"
    assert resolve_fleet(False) is None  # explicit off beats the env


def test_sweep_dumbbell_fleet_path_matches_runner(tmp_path):
    """Fleeted sweeps yield the same rows as the plain runner path."""
    from repro.experiments.sweep import sweep_dumbbell
    kwargs = dict(
        schemes=("pert",), bandwidth=4e6, duration=3.0, warmup=1.0, n_fwd=2,
    )
    points = [{"duration": 3.0}, {"duration": 4.0}]
    plain = sweep_dumbbell(points, workers=0, cache=False, fleet=False,
                           **kwargs)
    fleeted = sweep_dumbbell(points, workers=0,
                             fleet=str(tmp_path / "fleet"), **kwargs)
    assert fleeted == plain
    # a second fleeted run recomputes nothing
    fleet = Fleet(tmp_path / "fleet")
    before = fleet.status()["computed"]
    again = sweep_dumbbell(points, workers=0, fleet=fleet, **kwargs)
    assert again == plain
    assert fleet.status()["computed"] == before


def test_sweep_dumbbell_fleet_path_honours_progress_and_timeout(tmp_path):
    """The fleet path takes every runner option and leaves the fleet be."""
    from repro.experiments.sweep import sweep_dumbbell
    fleet = Fleet(tmp_path / "fleet", checkpoint=None)
    snaps = []
    rows = sweep_dumbbell(
        [{"duration": 1.0}, {"duration": 1e6}], schemes=("pert",),
        bandwidth=1e6, n_fwd=1, warmup=0.2, workers=2, timeout=1.5,
        retries=0, checkpoint=5.0, fleet=fleet,
        progress=lambda s: snaps.append(s.snapshot()),
    )
    assert not rows[0].get("failed")
    assert rows[1]["failed"] and "timed out" in rows[1]["error"]
    assert snaps and snaps[-1]["done"] == 1 and snaps[-1]["failed"] == 1
    assert fleet.checkpoint is None  # the caller's handle is unchanged


def test_warm_start_and_fleet_are_exclusive(tmp_path):
    from repro.experiments.sweep import sweep_dumbbell
    with pytest.raises(ValueError, match="warm_start"):
        sweep_dumbbell([{"duration": 3.0}], schemes=("pert",),
                       warm_start=True, fleet=str(tmp_path / "fleet"),
                       bandwidth=4e6)
