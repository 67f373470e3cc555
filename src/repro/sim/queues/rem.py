"""Random Exponential Marking (REM) queue.

Implements REM (Athuraliya, Low, Li & Yin, IEEE Network 2001) — cited by
the paper as one of the binary-feedback AQM schemes ([2]).  REM keeps a
*price* per link that integrates the mismatch between demand and
capacity, and marks with probability

    p = 1 - phi^(-price)

so that end-to-end marking probability composes multiplicatively over a
path.  The price update each period T is

    price <- max(0, price + gamma * (alpha * (q - q_ref) + q - q_prev))

(the ``q - q_prev`` term approximates rate mismatch by queue growth).

The law is :class:`repro.aqm.RemResponse`, the same object the end-host
REM emulation (:class:`repro.core.pert_rem.PertRemSender`) runs on
queuing delay — the paper's claim that PERT generalises to other AQMs.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from ...aqm import RemResponse
from ..engine import Simulator
from ..packet import Packet
from .base import QueueDiscipline

__all__ = ["RemQueue"]


class RemQueue(QueueDiscipline):
    """REM AQM queue.

    Parameters
    ----------
    q_ref:
        Target queue length in packets (REM's ``b*``).
    gamma:
        Price adaptation gain (REM default 0.001).
    alpha:
        Weight of the queue-offset term (REM default 0.1).
    phi:
        Exponential base (> 1; REM default 1.001).
    sample_hz:
        Price update frequency.
    """


    def __init__(
        self,
        capacity_pkts: int,
        q_ref: float = 20.0,
        gamma: float = 0.001,
        alpha: float = 0.1,
        phi: float = 1.001,
        sample_hz: float = 170.0,
        ecn: bool = True,
        sim: Optional[Simulator] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(capacity_pkts)
        if not sample_hz > 0:
            raise ValueError("sample_hz must be positive")
        #: the price law over the queue length (``target_delay`` = q_ref)
        self.law = RemResponse(gamma, alpha, phi, target_delay=q_ref)
        self.period = 1.0 / sample_hz
        self.ecn = ecn
        self.rng = rng or random.Random(0x4E4)
        if sim is not None:
            self._attach(sim)

    def _attach(self, sim: Simulator) -> None:
        sim.schedule_fire(self.period, self._tick, sim)

    def _tick(self, sim: Simulator) -> None:
        self.update()
        sim.schedule_fire(self.period, self._tick, sim)

    def update(self) -> float:
        """One price step on the queue length; returns the mark probability."""
        return self.law.update(float(len(self._buf)))

    def mark_probability(self) -> float:
        """REM's exponential law: 1 - phi^(-price)."""
        return self.law.p

    def admit(self, pkt: Packet, now: float) -> str:
        if self.is_full_for(pkt):
            return "drop"
        if self.rng.random() < self.law.p:
            if self.ecn and pkt.ect:
                return "mark"
            return "drop"
        return "enqueue"

    def aqm_state(self) -> Dict[str, Any]:
        return {"price": self.law.price, "p": self.law.p}
