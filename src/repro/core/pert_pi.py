"""PERT/PI: emulating a PI-controller AQM at the end host (Section 6).

Identical to :class:`~repro.core.pert.PertSender` except that the
response *probability* comes from a discretised PI controller over the
smoothed queuing-delay signal (eq. 19 of the paper,
:class:`~repro.aqm.PiResponse`) instead of the gentle-RED curve.  The
controller state advances on every ACK, i.e. the sampling interval is
the inter-ACK time, mirroring the paper's analysis (δ ≈ N/C).
"""

from __future__ import annotations

from .config import PertPiConfig
from .pert import PertSender

__all__ = ["PertPiSender"]


class PertPiSender(PertSender):
    """PERT sender whose response probability is a PI controller output."""

    config_class = PertPiConfig
