"""Zero-background hybrid runs must be bit-identical to pure packet runs.

The hybrid coupling's contract: ``background=None``, a zero-share
background and the historical no-background call are the *same run* —
same resolved params, same event sequence, same result object — under
each engine backend.  This is what keeps every committed golden and
snapshot valid with the hybrid machinery in the tree.  The ``array``
cases pin the pure engine (the default in a checkout without the
compiled extension); the ``compiled`` cases skip when it is not built.
"""

import pytest

from repro.compiled import status as compiled_status
from repro.experiments.common import _resolve_params, run_dumbbell

KW = dict(rtt=0.04, n_fwd=3, duration=2.5, warmup=1.0, seed=3)
BW = 4e6
BACKGROUND = {"model": "pert_red", "share": 0.4, "n_flows": 8}

needs_compiled = pytest.mark.skipif(
    not compiled_status().available,
    reason="compiled extension not built (python -m repro.compiled.build)",
)

ENGINES = ("array", pytest.param("compiled", marks=needs_compiled))


def _use_engine(monkeypatch, engine):
    """Pin ``REPRO_COMPILED`` so ``Simulator()`` is exactly *engine*."""
    if engine == "array":
        monkeypatch.setenv("REPRO_COMPILED", "0")
    else:
        monkeypatch.delenv("REPRO_COMPILED", raising=False)


RESOLVE_DEFAULTS = dict(
    n_rev=0, web_sessions=0, pkt_size=1000, buffer_pkts=None, rtts=None,
    start_window=None, record_rtt_flow=None, queue_sample_interval=None,
)


def test_zero_share_resolves_to_no_background():
    plain = _resolve_params(scheme="pert", bandwidth=BW,
                            **KW, **RESOLVE_DEFAULTS)
    zero = _resolve_params(scheme="pert", bandwidth=BW,
                           background={"model": "pert_red", "share": 0.0},
                           **KW, **RESOLVE_DEFAULTS)
    assert plain == zero
    assert plain["background"] is None


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_share_run_bit_identical(engine, monkeypatch):
    _use_engine(monkeypatch, engine)
    plain = run_dumbbell("pert", BW, **KW)
    zero = run_dumbbell(
        "pert", BW, background={"model": "pert_red", "share": 0.0}, **KW
    )
    assert plain == zero
    assert plain.events_processed == zero.events_processed
    assert zero.background_model is None
    assert zero.background_share == 0.0
    assert zero.background_pkts == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_hybrid_run_agrees_across_engines(engine, monkeypatch):
    """A *non-zero* background is deterministic per engine backend."""
    _use_engine(monkeypatch, engine)
    a = run_dumbbell("pert", BW, background=BACKGROUND, **KW)
    b = run_dumbbell("pert", BW, background=BACKGROUND, **KW)
    assert a == b
    assert a.background_pkts > 0


@needs_compiled
def test_hybrid_metrics_identical_array_vs_compiled(monkeypatch):
    results = {}
    for engine in ("array", "compiled"):
        _use_engine(monkeypatch, engine)
        results[engine] = run_dumbbell("pert", BW, background=BACKGROUND,
                                       **KW)
    array, compiled = results["array"], results["compiled"]
    assert array == compiled
    assert array.events_processed == compiled.events_processed
    assert array.background_pkts == compiled.background_pkts
