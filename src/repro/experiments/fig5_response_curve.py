"""Figure 5: PERT's probabilistic response curve.

Purely analytic: tabulates the gentle-RED response probability over the
queuing-delay signal with the paper's parameters (T_min = 5 ms above
propagation, T_max = 10 ms, p_max = 0.05, ramp to 1 at 2*T_max).
"""

from __future__ import annotations

from typing import Dict, List

from ..aqm import GentleRedCurve
from .report import format_table

__all__ = ["run", "validation_metrics", "main"]

PAPER_EXPECTATION = (
    "0 below T_min; linear to p_max=0.05 at T_max; linear to 1 at "
    "2*T_max; 1 beyond (Figure 5)."
)


def run(n_points: int = 25, t_min: float = 0.005, t_max: float = 0.010,
        p_max: float = 0.05) -> List[dict]:
    curve = GentleRedCurve(t_min=t_min, t_max=t_max, p_max=p_max)
    hi = 2.5 * t_max
    rows = []
    for i in range(n_points):
        q = hi * i / (n_points - 1)
        rows.append({"queuing_delay_ms": q * 1e3, "probability": curve(q)})
    return rows


def validation_metrics(rows: List[dict]) -> Dict[str, float]:
    """Flatten :func:`run` output for ``repro.validate`` (p at each delay)."""
    from ..validate.extract import metric_id

    # The delay grid is computed in float; round the id tag so e.g.
    # 7.500000000000002 ms keys as "7.5" in the expected files.
    return {
        metric_id("", "p", {"delay_ms": round(row["queuing_delay_ms"], 6)}):
            row["probability"]
        for row in rows
    }


def main() -> None:
    rows = run()
    print(format_table(rows, ["queuing_delay_ms", "probability"],
                       title="Figure 5 — PERT response curve"))
    print(f"\nPaper expectation: {PAPER_EXPECTATION}")


if __name__ == "__main__":
    main()
