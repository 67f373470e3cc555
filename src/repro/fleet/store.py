"""Content-addressed result store: one computation per distinct point, ever.

The store *is* a :class:`repro.runner.cache.ResultCache` — same on-disk
layout (``<root>/<key[:2]>/<key>.json``), same atomic writes, same
content-addressed keys (:func:`repro.runner.spec.content_key`) — plus
the accounting the fleet's zero-recomputation guarantee is asserted
against: explicit hit/miss/put counters.

Because the layout and keying are shared, a fleet store can literally be
pointed at an existing runner cache directory (or several fleet
directories at one shared store): any point finished by *any* sweep —
runner or fleet, yesterday or today — is a store hit, not a recompute.
The kill-tolerance tests and the CI ``jobs-smoke`` job compare these
counters (and store file hashes) across a killed-and-resumed run to
prove that finished points are never simulated twice.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..runner.cache import ResultCache
from ..runner.spec import JobSpec

__all__ = ["StoreStats", "ResultStore"]


@dataclass
class StoreStats:
    """Monotone counters for one process's view of a store."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    def snapshot(self) -> Dict[str, int]:
        """JSON-clean counter dict (for status payloads and bus events)."""
        return asdict(self)


class ResultStore(ResultCache):
    """A :class:`ResultCache` that counts its traffic.

    ``get``/``put`` keep the parent's semantics bit-for-bit (defensive
    reads, atomic writes, corrupt entries discarded as misses); the
    subclass only observes.  Counters are per-process and advisory —
    the durable truth about what was computed lives in the fleet
    journal's ``done(store="fresh"|"hit")`` records.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        super().__init__(root)
        self.stats = StoreStats()

    def get(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        """Counted :meth:`ResultCache.get`: a hit or a miss, never both."""
        entry = super().get(spec)
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    def put(self, spec: JobSpec, payload: Any, meta: Optional[Dict] = None) -> Path:
        """Counted :meth:`ResultCache.put`."""
        self.stats.puts += 1
        return super().put(spec, payload, meta=meta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultStore root={self.root} {self.stats!r}>"
