"""Selection, fallback and cross-process guarantees of ``repro.compiled``.

The differential suite proves the compiled engine is bit-identical when
it runs; this suite proves the machinery *around* it behaves:

* a broken extension (present but unimportable) degrades to pure Python
  with exactly one ``RuntimeWarning``;
* a merely missing extension is silent unless ``REPRO_COMPILED``
  explicitly requested one (then: one warning, still a clean fallback);
* ``REPRO_COMPILED=0`` pins the pure engine even when an extension is
  built;
* snapshots cross process boundaries in both directions — captured
  under the compiled engine and restored in a process where the
  extension is pinned off, and vice versa — landing on bit-identical
  results.

The cross-process tests skip when no extension is built, so a fresh
pure-Python checkout stays green with zero build steps.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro.compiled as compiled
from repro.compiled import engine_class, reset, status
from repro.sim.engine import ArraySimulator, Simulator, get_engine_class

COMPILED_AVAILABLE = status().available

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")

#: quick differential workload (matches tests/differential quick tier)
KW = dict(bandwidth=3e6, rtt=0.04, n_fwd=3, duration=2.5, warmup=1.0, seed=3)


@pytest.fixture(autouse=True)
def _fresh_probe(monkeypatch):
    """Isolate each test's probe cache and warning latches."""
    monkeypatch.delenv("REPRO_COMPILED", raising=False)
    reset()
    yield
    reset()


def _force_import_failure(monkeypatch, exc):
    """Make the extension's import raise *exc* (the broken/missing seam)."""

    def _fail(modname):
        raise exc

    monkeypatch.setattr(compiled, "_import_tier", _fail)


def test_broken_extension_single_warning_then_pure(monkeypatch):
    """A present-but-unimportable artifact warns once and falls back."""
    _force_import_failure(monkeypatch, ImportError("simulated ABI mismatch"))
    with pytest.warns(RuntimeWarning, match="falling back to the pure"):
        assert engine_class() is None
    st = status()
    assert not st.available
    assert "simulated ABI mismatch" in (st.error or "")
    # the warning is latched: repeated probes stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert engine_class() is None
        assert get_engine_class() is ArraySimulator
        assert type(Simulator(seed=0)) is ArraySimulator


def test_missing_extension_is_silent(monkeypatch):
    """No artifact built + no explicit request = no noise, pure engine."""
    _force_import_failure(monkeypatch, ModuleNotFoundError("not built"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert engine_class() is None
        assert status().error is None
        assert get_engine_class() is ArraySimulator


def test_missing_extension_warns_when_requested(monkeypatch):
    """REPRO_COMPILED=1 with nothing built warns once, still falls back."""
    _force_import_failure(monkeypatch, ModuleNotFoundError("not built"))
    monkeypatch.setenv("REPRO_COMPILED", "1")
    with pytest.warns(RuntimeWarning, match="none is built"):
        assert engine_class() is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert engine_class() is None
        assert type(Simulator(seed=0)) is ArraySimulator


@pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled engine not built")
def test_disabled_knob_pins_pure(monkeypatch):
    """REPRO_COMPILED=0 serves exactly ArraySimulator despite the build."""
    monkeypatch.setenv("REPRO_COMPILED", "0")
    assert engine_class() is None
    assert compiled.active_tier() is None
    cls = get_engine_class()
    assert cls is ArraySimulator
    sim = Simulator(seed=0)
    assert type(sim) is ArraySimulator
    # flipping the knob back re-enables the extension in-process
    monkeypatch.delenv("REPRO_COMPILED", raising=False)
    assert engine_class() is not None
    assert issubclass(get_engine_class(), ArraySimulator)
    assert get_engine_class() is not ArraySimulator


def _metric_list(result):
    """JSON-portable projection of the figure metrics (exact values)."""
    return [
        result.events_processed,
        result.mean_queue_pkts,
        result.drop_rate,
        result.mark_rate,
        result.utilization,
        result.jain,
        list(result.flow_goodputs_bps),
        result.early_responses,
        result.timeouts,
    ]


#: runs in a subprocess with REPRO_COMPILED pinned by the parent; mode
#: "restore" finishes a snapshot, "capture" warms one, "native" runs the
#: whole workload cold — all print/accept JSON on stdout/argv
_CHILD = """\
import json, sys
mode, path = sys.argv[1], sys.argv[2]
kw = json.loads(sys.argv[3])
from repro.compiled import active_tier
from repro.experiments.common import (
    _dumbbell_result, _measure_dumbbell, run_dumbbell, warm_dumbbell_bytes,
)
from repro.sim.engine import ArraySimulator
from repro.snapshot import restore_bytes
if mode == "capture":
    body = warm_dumbbell_bytes("pert", **{k: v for k, v in kw.items()
                                          if k != "duration"})
    open(path, "wb").write(body)
    print(json.dumps({"tier": active_tier()}))
elif mode == "restore":
    sim, state = restore_bytes(open(path, "rb").read(), engine="array")
    assert type(sim) is ArraySimulator, type(sim).__name__
    state.params = dict(state.params, duration=kw["duration"])
    _measure_dumbbell(state)
    result = _dumbbell_result(state)
    print(json.dumps([
        result.events_processed, result.mean_queue_pkts, result.drop_rate,
        result.mark_rate, result.utilization, result.jain,
        list(result.flow_goodputs_bps), result.early_responses,
        result.timeouts,
    ]))
else:
    raise SystemExit(f"unknown mode {mode}")
"""


def _child(mode, path, env_overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_COMPILED", None)
    env.update(env_overrides)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(path), json.dumps(KW)],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled engine not built")
def test_compiled_snapshot_restores_in_pure_process(monkeypatch, tmp_path):
    """A compiled-engine snapshot finishes identically where it's pinned off."""
    from repro.experiments.common import run_dumbbell, warm_dumbbell_bytes

    assert engine_class() is not None  # capture really is compiled
    body = warm_dumbbell_bytes(
        "pert", **{k: v for k, v in KW.items() if k != "duration"})
    path = tmp_path / "compiled.snap"
    path.write_bytes(body)

    crossed = _child("restore", path, {"REPRO_COMPILED": "0"})

    # reference: the same workload cold, natively under pure Python
    monkeypatch.setenv("REPRO_COMPILED", "0")
    native = run_dumbbell("pert", **KW)
    assert crossed == _metric_list(native)


@pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled engine not built")
def test_pure_snapshot_restores_under_compiled(tmp_path):
    """A pure-process snapshot finishes identically under the extension."""
    from repro.experiments.common import (
        _dumbbell_result, _measure_dumbbell, run_dumbbell)
    from repro.snapshot import restore_bytes

    path = tmp_path / "pure.snap"
    meta = _child("capture", path, {"REPRO_COMPILED": "0"})
    assert meta["tier"] is None  # the child really ran pure

    sim, state = restore_bytes(path.read_bytes(), engine="compiled")
    assert type(sim).__name__ == "CompiledSimulator"
    state.params = dict(state.params, duration=KW["duration"])
    _measure_dumbbell(state)
    crossed = _dumbbell_result(state)

    native = run_dumbbell("pert", **KW)
    assert _metric_list(crossed) == _metric_list(native)
