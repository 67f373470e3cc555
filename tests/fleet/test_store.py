"""Result store: content-addressed dedupe shared with the runner cache."""

from __future__ import annotations

from repro.fleet import Fleet
from repro.fleet.store import ResultStore
from repro.runner.cache import ResultCache
from repro.runner.spec import JobSpec, content_key


def test_counters_track_traffic(tmp_path):
    store = ResultStore(tmp_path)
    spec = JobSpec("kind", {"x": 1})
    assert store.get(spec) is None
    store.put(spec, {"y": 2})
    assert store.get(spec)["payload"] == {"y": 2}
    assert store.stats.snapshot() == {"hits": 1, "misses": 1, "puts": 1}


def test_store_interoperates_with_runner_cache(tmp_path):
    """A point cached by the runner is a store hit, and vice versa."""
    cache = ResultCache(tmp_path)
    spec = JobSpec("dumbbell", {"scheme": "pert", "duration": 5.0})
    cache.put(spec, {"utilization": 0.9})
    store = ResultStore(tmp_path)  # same directory, same keys
    assert store.get(spec)["payload"] == {"utilization": 0.9}
    spec2 = JobSpec("dumbbell", {"scheme": "vegas", "duration": 5.0})
    store.put(spec2, {"utilization": 1.0})
    assert cache.get(spec2)["payload"] == {"utilization": 1.0}


def test_keys_are_canonical_content_hashes(tmp_path):
    """Param-dict ordering must not change where a result lands."""
    a = JobSpec("kind", {"x": 1, "y": 2})
    b = JobSpec("kind", {"y": 2, "x": 1})
    assert a.cache_key == b.cache_key == content_key("kind", {"x": 1, "y": 2})
    store = ResultStore(tmp_path)
    store.put(a, {"v": 1})
    assert store.get(b)["payload"] == {"v": 1}


def test_corrupt_store_entry_is_recomputed_not_deduped(tmp_path):
    """Submit-time dedupe validates entries: garbage is a miss, not done."""
    echo = ("tests.runner.jobs:echo", {"value": 3})
    store = tmp_path / "store"
    first = Fleet(tmp_path / "a", store=store)
    first.submit([echo])
    first.drain(workers=0)
    path = first.store.path_for(JobSpec(*echo))
    path.write_text("\x00garbage not json")

    fresh = Fleet(tmp_path / "b", store=store)
    receipt = fresh.submit([echo])
    assert receipt.deduped == 0 and receipt.submitted == 1
    fresh.drain(workers=0)
    (entry,) = fresh.results(receipt)
    assert entry["state"] == "done" and entry["payload"] == {"value": 3}
    assert fresh.status()["computed"] == {"fresh": 1, "hit": 0}
