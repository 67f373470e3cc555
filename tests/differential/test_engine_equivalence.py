"""Differential testing: the array and compiled engines agree bit for bit.

Every sender scheme in the registry — together spanning all four queue
disciplines (droptail, RED, PI, REM) — runs through the pure-Python
array engine and the compiled engine (see :mod:`repro.compiled`).  The
comparison covers three layers:

* the packet-event stream (every enqueue/drop/mark/sample trace record,
  with timestamps, flow ids, sequence numbers and queue lengths),
* the steady-state figure metrics (goodputs, drop/mark rates,
  utilization, Jain index, mean queue),
* snapshot round-trips across engines (capture under one backend,
  restore under the other, continue, same result).

The comparisons need both engines, so they skip — with the reason
stated — in a checkout where the extension is not built; the array
engine's standing oracles there are the determinism goldens and the
hypothesis engine properties.

Tier selection mirrors the validate suite: the quick tier (default, CI)
runs one scheme per queue discipline on a small workload; set
``REPRO_DIFF_FULL=1`` for the nightly full tier covering every scheme
at the benchmark workload size.
"""

import os

import pytest

from repro.compiled import status as compiled_status
from repro.experiments.common import (
    _dumbbell_result,
    _DumbbellState,
    _measure_dumbbell,
    run_dumbbell,
    warm_dumbbell_bytes,
)
from repro.obs import Collector
from repro.sim.engine import ArraySimulator, get_engine_class
from repro.snapshot import restore_bytes

FULL = os.environ.get("REPRO_DIFF_FULL", "") not in ("", "0")

#: is the compiled extension importable in this checkout?
COMPILED_AVAILABLE = compiled_status().available

needs_compiled = pytest.mark.skipif(
    not COMPILED_AVAILABLE,
    reason="compiled extension not built (python -m repro.compiled.build): "
           "no second engine to compare the array engine against",
)

#: scheme -> bottleneck queue discipline it exercises
SCHEME_DISCIPLINE = {
    "sack-droptail": "droptail",
    "newreno-droptail": "droptail",
    "vegas": "droptail",
    "pert": "droptail",
    "pert-pi": "droptail",
    "pert-owd": "droptail",
    "sack-red-ecn": "red",
    "sack-pi-ecn": "pi",
    "pert-rem": "rem",
}

#: quick tier: one representative scheme per discipline, plus the
#: paper's headline scheme (PERT) — the full tier runs everything
QUICK_SCHEMES = ("pert", "sack-droptail", "sack-red-ecn", "sack-pi-ecn",
                 "pert-rem")
SCHEMES = tuple(SCHEME_DISCIPLINE) if FULL else QUICK_SCHEMES

QUICK_KW = dict(bandwidth=3e6, rtt=0.04, n_fwd=3, duration=2.5, warmup=1.0,
                seed=3)
FULL_KW = dict(bandwidth=8e6, rtt=0.05, n_fwd=8, duration=6.0, warmup=2.0,
               seed=2)
KW = FULL_KW if FULL else QUICK_KW


def _set_engine_env(monkeypatch, engine):
    """Pin ``REPRO_COMPILED`` so ``Simulator()`` is exactly *engine*."""
    if engine == "array":
        monkeypatch.setenv("REPRO_COMPILED", "0")
    else:
        monkeypatch.delenv("REPRO_COMPILED", raising=False)


def _run_with_engine(engine, scheme, monkeypatch, trace=True, **overrides):
    """One dumbbell run under *engine* with a full packet-event trace."""
    _set_engine_env(monkeypatch, engine)
    collector = Collector(trace=trace) if trace else False
    kw = dict(KW)
    kw.update(overrides)
    result = run_dumbbell(scheme, collector=collector, keep_refs=True, **kw)
    sim = result.extras["sim"]
    assert type(sim) is get_engine_class(engine)
    return result, (collector.records if trace else None)


def _metric_tuple(result):
    return (
        result.events_processed,
        result.mean_queue_pkts,
        result.drop_rate,
        result.mark_rate,
        result.utilization,
        result.jain,
        tuple(result.flow_goodputs_bps),
        result.early_responses,
        result.timeouts,
    )


def _queue_stat_tuple(result):
    stats = result.extras["dumbbell"].bottleneck_queue.stats
    return (stats.arrivals, stats.enqueues, stats.drops, stats.forced_drops,
            stats.early_drops, stats.marks, stats.departures, stats.bytes_in,
            stats.bytes_out)


@needs_compiled
@pytest.mark.parametrize("scheme", SCHEMES)
def test_engines_agree(scheme, monkeypatch):
    """Event stream, queue stats and figure metrics match across engines."""
    array, array_records = _run_with_engine("array", scheme, monkeypatch)
    compiled, compiled_records = _run_with_engine("compiled", scheme,
                                                  monkeypatch)

    assert _metric_tuple(array) == _metric_tuple(compiled)
    assert _queue_stat_tuple(array) == _queue_stat_tuple(compiled)

    # full packet-event stream: enqueues, drops, marks and periodic
    # samples, in order, with identical timestamps and queue lengths
    assert len(array_records) == len(compiled_records)
    for i, (a, b) in enumerate(zip(array_records, compiled_records)):
        assert a == b, f"{scheme}: trace record {i} diverged: {a} vs {b}"

    # drop/mark subsequences called out explicitly (the signals AQM
    # correctness hangs off) — redundant with the full diff above, but
    # a much sharper failure message when something drifts
    for kind in ("drop", "mark"):
        seq_a = [r for r in array_records if r["type"] == kind]
        seq_b = [r for r in compiled_records if r["type"] == kind]
        assert seq_a == seq_b


@pytest.mark.parametrize("scheme", ("pert", "sack-red-ecn"))
def test_tracing_does_not_perturb(scheme, monkeypatch):
    """A trace collector is passive: metrics match a collector-less run."""
    traced, _ = _run_with_engine("array", scheme, monkeypatch, trace=True)
    bare, _ = _run_with_engine("array", scheme, monkeypatch, trace=False)
    assert _metric_tuple(traced) == _metric_tuple(bare)


@needs_compiled
@pytest.mark.parametrize("capture_engine,restore_engine",
                         [("compiled", "array"), ("array", "compiled")])
def test_cross_engine_snapshot_roundtrip(capture_engine, restore_engine,
                                         monkeypatch):
    """Warm under one engine, restore under the other, finish identically."""
    kw = dict(KW)
    duration = kw.pop("duration")

    _set_engine_env(monkeypatch, capture_engine)
    body = warm_dumbbell_bytes("pert", **kw)

    # continue the run under the *other* engine
    _set_engine_env(monkeypatch, restore_engine)
    sim, state = restore_bytes(body, engine=restore_engine)
    assert type(sim) is get_engine_class(restore_engine)
    assert isinstance(state, _DumbbellState)
    state.params = dict(state.params, duration=duration)
    crossed = _dumbbell_result_after_measure(state)

    # reference: the same workload cold, natively under restore_engine
    native, _ = _run_with_engine(restore_engine, "pert", monkeypatch,
                                 trace=False)
    assert _metric_tuple(crossed) == _metric_tuple(native)


def _dumbbell_result_after_measure(state):
    _measure_dumbbell(state)
    return _dumbbell_result(state)


def test_engine_selection_knob(monkeypatch):
    """Engine names resolve exactly; unknown names fail loudly."""
    from repro.sim.engine import SimulationError, Simulator

    # REPRO_COMPILED=0 pins pure Python, so the resolution is exact
    # regardless of whether an extension is built in this checkout
    monkeypatch.setenv("REPRO_COMPILED", "0")
    assert get_engine_class() is ArraySimulator
    assert get_engine_class("array") is ArraySimulator
    assert type(Simulator(seed=0)) is ArraySimulator
    # requiring the compiled engine while REPRO_COMPILED=0 disables it
    # must fail loudly, not silently hand back pure Python
    with pytest.raises(SimulationError):
        get_engine_class("compiled")
    for unknown in ("legacy", "simd"):
        with pytest.raises(SimulationError, match="unknown engine"):
            get_engine_class(unknown)


@needs_compiled
def test_engine_selection_knob_compiled(monkeypatch):
    """With the extension built, the default engine is the compiled one."""
    from repro.compiled import engine_class
    from repro.sim.engine import Simulator

    monkeypatch.delenv("REPRO_COMPILED", raising=False)
    compiled_cls = engine_class()
    assert compiled_cls is not None
    assert issubclass(compiled_cls, ArraySimulator)
    assert get_engine_class() is compiled_cls
    assert get_engine_class("compiled") is compiled_cls
    assert type(Simulator(seed=0)) is compiled_cls
    # an explicit "array" stays pure no matter what is built
    assert get_engine_class("array") is ArraySimulator
