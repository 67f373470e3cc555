"""Unit tests: job specs, cache keys, and the on-disk result cache."""

import hashlib
import json

import pytest

from repro.runner import (
    CACHE_SCHEMA,
    JobSpec,
    ResultCache,
    canonical_json,
    content_key,
    dumbbell_spec,
    resolve_cache,
    resolve_workers,
)


# ----------------------------------------------------------------------
# spec / cache-key determinism
# ----------------------------------------------------------------------
def test_cache_key_independent_of_param_order():
    a = JobSpec("dumbbell", {"bandwidth": 4e6, "seed": 1, "scheme": "pert"})
    b = JobSpec("dumbbell", {"scheme": "pert", "bandwidth": 4e6, "seed": 1})
    assert a.cache_key == b.cache_key


def test_cache_key_covers_every_param_and_kind():
    base = dumbbell_spec("pert", bandwidth=4e6)
    assert dumbbell_spec("pert", bandwidth=8e6).cache_key != base.cache_key
    assert dumbbell_spec("vegas", bandwidth=4e6).cache_key != base.cache_key
    assert dumbbell_spec("pert", bandwidth=4e6, seed=2).cache_key != base.cache_key
    other_kind = JobSpec("parking_lot", dict(base.params))
    assert other_kind.cache_key != base.cache_key


def test_dumbbell_spec_makes_default_seed_explicit():
    spec = dumbbell_spec("pert", bandwidth=4e6)
    assert spec.params["seed"] == 1
    # explicit seed=1 and implicit default must hash identically
    assert spec.cache_key == dumbbell_spec("pert", bandwidth=4e6, seed=1).cache_key


def test_spec_rejects_non_json_params():
    with pytest.raises(TypeError):
        JobSpec("dumbbell", {"callback": lambda: None})


def test_canonical_json_is_stable():
    assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'


def test_content_key_is_version_free():
    """Schema 2's whole point: the same content, the same key, forever."""
    key = content_key("dumbbell", {"scheme": "pert", "x": 1})
    assert key == JobSpec("dumbbell", {"x": 1, "scheme": "pert"}).cache_key
    material = f"{CACHE_SCHEMA}|dumbbell|" + canonical_json(
        {"scheme": "pert", "x": 1})
    assert key == hashlib.sha256(material.encode()).hexdigest()


# ----------------------------------------------------------------------
# on-disk cache behaviour
# ----------------------------------------------------------------------
def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    spec = dumbbell_spec("pert", bandwidth=4e6)
    assert cache.get(spec) is None
    cache.put(spec, {"norm_queue": 0.25}, meta={"events": 10})
    entry = cache.get(spec)
    assert entry["payload"] == {"norm_queue": 0.25}
    assert entry["meta"]["events"] == 10
    assert entry["kind"] == "dumbbell"


def test_cache_corrupt_file_is_a_miss_and_removed(tmp_path):
    cache = ResultCache(tmp_path)
    spec = dumbbell_spec("pert", bandwidth=4e6)
    cache.put(spec, {"v": 1})
    path = cache.path_for(spec)
    path.write_text("{ not json !!!")
    assert cache.get(spec) is None
    assert not path.exists()  # corrupt entry discarded for rebuild


def test_cache_key_mismatch_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = dumbbell_spec("pert", bandwidth=4e6)
    cache.put(spec, {"v": 1})
    path = cache.path_for(spec)
    entry = json.loads(path.read_text())
    entry["key"] = "0" * 64
    path.write_text(json.dumps(entry))
    assert cache.get(spec) is None


def test_schema1_entry_is_a_miss(tmp_path):
    """A version-salted schema-1 entry sits under another key: it misses."""
    spec = dumbbell_spec("pert", bandwidth=4e6)
    material = f"1|0.9.0|{spec.kind}|{canonical_json(spec.params)}"
    old_key = hashlib.sha256(material.encode()).hexdigest()
    old_path = tmp_path / old_key[:2] / f"{old_key}.json"
    old_path.parent.mkdir(parents=True)
    old_path.write_text(json.dumps({
        "key": old_key, "kind": spec.kind, "params": spec.params,
        "payload": {"v": "stale"}, "meta": {},
    }))
    cache = ResultCache(tmp_path)
    assert cache.get(spec) is None
    cache.put(spec, {"v": "fresh"})
    assert cache.get(spec)["payload"] == {"v": "fresh"}
    assert old_path.exists()  # inert: never served, never rewritten


def test_resolve_cache_modes(tmp_path, monkeypatch):
    assert resolve_cache(False) is None
    assert resolve_cache(tmp_path).root == tmp_path
    cache = ResultCache(tmp_path)
    assert resolve_cache(cache) is cache
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert resolve_cache(None) is None
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_cache(None).root == tmp_path / "env"


def test_resolve_workers(monkeypatch):
    assert resolve_workers(3) == 3
    assert resolve_workers(0) == 0
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(None) == 0
    monkeypatch.setenv("REPRO_WORKERS", "5")
    assert resolve_workers(None) == 5
    with pytest.raises(ValueError):
        resolve_workers(-1)
