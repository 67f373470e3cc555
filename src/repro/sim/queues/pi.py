"""Proportional-Integral (PI) AQM queue.

Implements the PI controller of Hollot, Misra, Towsley & Gong,
"On designing improved controllers for AQM routers supporting TCP flows"
(INFOCOM 2001) — the router-side baseline for the paper's Section 6
(PERT/PI).  The controller periodically recomputes the mark probability

    p(kT) = a * (q(kT) - q_ref) - b * (q((k-1)T) - q_ref) + p((k-1)T)

at sampling frequency ``1/T`` and applies it to every arrival, marking
ECN-capable packets and dropping the rest.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from ..engine import Simulator
from ..packet import Packet
from .base import QueueDiscipline

__all__ = ["PiQueue"]


class PiQueue(QueueDiscipline):
    """PI-controlled AQM queue.

    Parameters
    ----------
    capacity_pkts:
        Physical buffer size.
    q_ref:
        Target queue length in packets (the paper's PERT/PI experiment
        targets a 3 ms queuing delay; the router baseline uses the
        equivalent packet count).
    a, b:
        Controller gains of the discretised PI transfer function.  The
        ns-2 defaults (a=1.822e-5, b=1.816e-5 at 170 Hz, normalised per
        packet) are appropriate for ~1500-byte packets at ~15 Mbps; use
        :func:`repro.fluid.stability.pi_gains` to derive gains for a given
        capacity / RTT / flow-count operating point.
    sample_hz:
        Controller update frequency (ns-2 default 170 Hz).
    sim:
        If given, the queue self-schedules its own periodic updates;
        otherwise callers must invoke :meth:`update` manually.
    """


    def __init__(
        self,
        capacity_pkts: int,
        q_ref: float = 50.0,
        a: float = 1.822e-5,
        b: float = 1.816e-5,
        sample_hz: float = 170.0,
        ecn: bool = True,
        sim: Optional[Simulator] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(capacity_pkts)
        if q_ref < 0:
            raise ValueError("q_ref must be non-negative")
        if sample_hz <= 0:
            raise ValueError("sample_hz must be positive")
        self.q_ref = q_ref
        self.a = a
        self.b = b
        self.period = 1.0 / sample_hz
        self.ecn = ecn
        self.rng = rng or random.Random(0xA1)
        self.p = 0.0
        self._q_old = 0.0
        if sim is not None:
            self._attach(sim)

    def _attach(self, sim: Simulator) -> None:
        sim.schedule_fire(self.period, self._tick, sim)

    def _tick(self, sim: Simulator) -> None:
        self.update()
        sim.schedule_fire(self.period, self._tick, sim)

    def update(self) -> float:
        """One controller step; returns the new mark probability."""
        q = float(len(self._buf))
        # The same bilinear PI law as repro.aqm.PiResponse, but summed as
        # a·e − b·e' + p where PiResponse sums p + γ·e − β·e'.  Float
        # addition is not associative and both orders are pinned by
        # goldens (this one by the router sweeps, PiResponse's by the
        # PERT/PI ones), so the two updates stay separate.
        p = self.a * (q - self.q_ref) - self.b * (self._q_old - self.q_ref) + self.p
        self.p = min(1.0, max(0.0, p))
        self._q_old = q
        return self.p

    def admit(self, pkt: Packet, now: float) -> str:
        if self.is_full_for(pkt):
            return "drop"
        if self.p > 0.0 and self.rng.random() < self.p:
            if self.ecn and pkt.ect:
                return "mark"
            return "drop"
        return "enqueue"

    def aqm_state(self) -> Dict[str, Any]:
        return {"p": self.p, "q_ref": self.q_ref}
