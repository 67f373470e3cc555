"""repro.snapshot — deterministic checkpoint / restore / fork.

The subsystem that turns long-horizon simulation into resumable,
fork-able work:

* :func:`save` / :func:`load` — checkpoint a live simulator (plus the
  experiment harness's state object) to a versioned, checksummed file;
  a restored run continues bit-identically to an uninterrupted one.
* :func:`fork` / :func:`fork_bytes` — N divergent continuations of one
  warm checkpoint, with deterministic per-fork RNG reseeding.
* :mod:`repro.snapshot.runtime` — the checkpoint slot the fleet worker
  installs around each job attempt (periodic checkpoint, resume after
  crash/timeout).
* ``python -m repro.snapshot inspect|verify|diff`` — checkpoint tooling.

See ``docs/ARCHITECTURE.md`` (Snapshot subsystem) for format details,
what is and is not captured, and fork semantics.
"""

from .core import (
    Restored,
    SnapshotInfo,
    capture_bytes,
    inspect,
    load,
    restore_bytes,
    save,
    sim_summary,
    verify,
)
from .errors import SnapshotError
from .fork import fork, fork_bytes, reseed_streams
from .format import FORMAT_VERSION
from .runtime import (
    CheckpointSlot,
    active_checkpoint,
    checkpoint_scope,
    resolve_checkpoint_interval,
)

__all__ = [
    "FORMAT_VERSION",
    "SnapshotError",
    "SnapshotInfo",
    "Restored",
    "capture_bytes",
    "restore_bytes",
    "save",
    "load",
    "inspect",
    "verify",
    "sim_summary",
    "fork",
    "fork_bytes",
    "reseed_streams",
    "CheckpointSlot",
    "checkpoint_scope",
    "active_checkpoint",
    "resolve_checkpoint_interval",
]
