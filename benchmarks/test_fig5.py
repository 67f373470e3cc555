"""Benchmark E-F5 — Figure 5: PERT's probabilistic response curve."""

import pytest

from repro.aqm import GentleRedCurve
from repro.experiments.fig5_response_curve import PAPER_EXPECTATION, run
from repro.experiments.report import format_table

from .conftest import run_once, save_rows


def test_fig5_response_curve(benchmark):
    rows = run_once(benchmark, run, n_points=26)
    save_rows("fig5", rows)
    print()
    print(format_table(rows, ["queuing_delay_ms", "probability"],
                       title="Figure 5 (exact reproduction)"))
    print(f"paper: {PAPER_EXPECTATION}")
    curve = GentleRedCurve()
    # the paper's anchor points
    assert curve(0.005) == 0.0
    assert curve(0.010 - 1e-12) == pytest.approx(0.05, abs=1e-6)
    assert curve(0.020) == 1.0
    probs = [r["probability"] for r in rows]
    assert all(b >= a for a, b in zip(probs, probs[1:]))
