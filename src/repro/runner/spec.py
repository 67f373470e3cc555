"""Deterministic job specifications and stable cache keys.

A :class:`JobSpec` is a pure-data description of one simulation job: a
registered job *kind* (see :mod:`repro.runner.registry`) plus a
JSON-serializable parameter mapping.  Because the simulator is a
deterministic function of its parameters and seed, the spec fully
determines the result — which is what makes process fan-out, on-disk
caching and the fleet's cross-sweep dedupe safe: the cache key is a
**content address**, a SHA-256 over the canonical JSON encoding of
``kind`` + ``params`` plus a cache schema number.  Identical points hash
identically everywhere — across sweeps, across fleet directories, and
across package versions — so a result computed once is served forever;
``CACHE_SCHEMA`` is the one deliberate invalidation knob, bumped when
the payload layout (or the keying itself) changes incompatibly.

Historical note: schema 1 additionally salted keys with
``repro.__version__``, which quarantined every version bump into a fresh
cache namespace and defeated cross-sweep dedupe.  Schema 2 dropped the
salt; schema-1 entries sit under other keys, so they simply miss.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = [
    "CACHE_SCHEMA",
    "JobSpec",
    "canonical_json",
    "content_key",
    "dumbbell_spec",
    "parking_lot_spec",
]

#: bump when the payload layout of cached results (or the keying scheme)
#: changes incompatibly; 2 = content-addressed keys (no version salt)
CACHE_SCHEMA = 2


def content_key(kind: str, params: Dict[str, Any]) -> str:
    """Content address of one job: hex SHA-256 of kind + canonical params.

    This is the single keying function shared by the runner's
    :class:`~repro.runner.cache.ResultCache` and the fleet's
    :class:`~repro.fleet.store.ResultStore` — the reason a point finished
    under either is a cache hit for both.
    """
    material = f"{CACHE_SCHEMA}|{kind}|{canonical_json(params)}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def canonical_json(obj: Any) -> str:
    """Stable JSON encoding: sorted keys, no whitespace, shortest floats.

    Raises ``TypeError`` for values that cannot round-trip through JSON,
    which is deliberate — a spec that cannot be serialized cannot be
    hashed, cached, or shipped to a worker process.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class JobSpec:
    """One unit of work for the runner: ``kind`` + JSON params."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        # Fail fast (at spec-construction time, in the parent process)
        # rather than deep inside a worker: params must be JSON-clean.
        canonical_json(self.params)

    @property
    def cache_key(self) -> str:
        """Content address uniquely identifying this job's result.

        Purely a function of ``kind`` + ``params`` (via
        :func:`content_key`), so identical points dedupe across sweeps
        and package versions, not just within one run.
        """
        return content_key(self.kind, self.params)

    def describe(self) -> str:
        """Short human label for logs: kind plus the identifying params."""
        scheme = self.params.get("scheme")
        seed = self.params.get("seed")
        bits = [self.kind]
        if scheme is not None:
            bits.append(str(scheme))
        if seed is not None:
            bits.append(f"seed={seed}")
        return "/".join(bits)


def dumbbell_spec(scheme: str, **kwargs) -> JobSpec:
    """Spec for one :func:`repro.experiments.common.run_dumbbell` point.

    The seed is made explicit (defaulting to ``run_dumbbell``'s own
    default of 1) so that the cache key always covers scheme + kwargs +
    seed, even when the caller relies on the default.
    """
    params = dict(kwargs)
    params["scheme"] = scheme
    params.setdefault("seed", 1)
    return JobSpec(kind="dumbbell", params=params)


def parking_lot_spec(scheme: str, **kwargs) -> JobSpec:
    """Spec for one parking-lot run (Figure 11), one scheme per job."""
    params = dict(kwargs)
    params["scheme"] = scheme
    params.setdefault("seed", 1)
    return JobSpec(kind="parking_lot", params=params)
