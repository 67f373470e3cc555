"""PERT emulating REM at the end host.

A third instantiation of the paper's pluggable-response design (its
conclusion: "other AQM schemes can be potentially emulated at the
end-host"): the sender of PERT/RED and PERT/PI, with the response
probability produced by :class:`~repro.aqm.RemResponse` — the same law
the router's :class:`~repro.sim.queues.RemQueue` runs on queue length.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..aqm import RemResponse
from .config import SenderKnobs
from .pert import PertSender

__all__ = ["PertRemConfig", "PertRemSender"]


@dataclass
class PertRemConfig(SenderKnobs):
    """Parameters of PERT emulating REM."""

    gamma: float = 0.5
    alpha: float = 0.2
    phi: float = 1.1
    target_delay: float = 0.012
    srtt_weight: float = 0.99
    early_decrease: float = 0.35
    min_response_interval_rtts: float = 1.0

    def make_law(self) -> RemResponse:
        """A REM price law at zero price."""
        return RemResponse(self.gamma, self.alpha, self.phi, self.target_delay)


class PertRemSender(PertSender):
    """PERT sender whose response probability follows REM's price law."""

    config_class = PertRemConfig
