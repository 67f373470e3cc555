"""Random Early Detection (RED) queue.

Implements the classic gateway algorithm of Floyd & Jacobson (1993) with
the two extensions the paper's evaluation relies on:

* the **gentle** variant, where the marking probability ramps linearly
  from ``max_p`` at ``max_th`` up to 1 at ``2*max_th`` (this curve is what
  PERT emulates at the end host — Figure 5 of the paper), and
* **Adaptive RED** (Floyd, Gummadi & Shenker, 2001), which slowly adapts
  ``max_p`` to hold the average queue inside a target band.  The paper's
  router baseline ("SACK/RED-ECN") uses ns-2's adaptive RED.

Marking semantics: if the arriving packet is ECN-capable (``ect``), an
early "drop" decision becomes a CE mark; forced (overflow) drops always
drop.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Optional

from ..packet import Packet
from .base import QueueDiscipline

__all__ = ["RedQueue"]


class RedQueue(QueueDiscipline):
    """RED/gentle-RED/adaptive-RED queue discipline.

    Parameters
    ----------
    capacity_pkts:
        Physical buffer size in packets.
    min_th, max_th:
        Average-queue thresholds in packets.
    max_p:
        Marking probability at ``max_th``.
    w_q:
        EWMA weight for the average queue size.  If ``None`` it is derived
        from ``mean_pkt_time`` as ``1 - exp(-1 / (10 * C))`` per Adaptive
        RED's auto-configuration (C in packets/second).
    gentle:
        Enable the gentle slope between ``max_th`` and ``2*max_th``.
    ecn:
        Mark ECN-capable packets instead of dropping them.
    adaptive:
        Enable Adaptive RED's ``max_p`` adaptation (AIMD every
        ``interval`` seconds toward the target band).
    mean_pkt_time:
        Typical packet transmission time (seconds); used both for the idle
        decay of the average and for auto-``w_q``.
    rng:
        Random stream for the marking coin flips.
    """


    def __init__(
        self,
        capacity_pkts: int,
        min_th: float = 5.0,
        max_th: float = 15.0,
        max_p: float = 0.1,
        w_q: Optional[float] = None,
        gentle: bool = True,
        ecn: bool = True,
        adaptive: bool = False,
        interval: float = 0.5,
        mean_pkt_time: float = 0.001,
        byte_mode: bool = False,
        mean_pkt_size: int = 1000,
        capacity_bytes: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(capacity_pkts, capacity_bytes=capacity_bytes)
        if not 0 < min_th < max_th:
            raise ValueError("need 0 < min_th < max_th")
        if not 0 < max_p <= 1:
            raise ValueError("max_p must be in (0, 1]")
        if w_q is not None and not 0 < w_q <= 1:
            raise ValueError("w_q must be in (0, 1]")
        if not 0 < mean_pkt_time < math.inf:
            raise ValueError("mean_pkt_time must be positive and finite")
        self.min_th = min_th
        self.max_th = max_th
        self.max_p = max_p
        self.gentle = gentle
        self.ecn = ecn
        self.adaptive = adaptive
        self.interval = interval
        self.mean_pkt_time = mean_pkt_time
        if w_q is None:
            # Adaptive RED auto-configuration: average over ~10 * 1/C.
            rate = 1.0 / mean_pkt_time
            w_q = max(1.0 - math.exp(-1.0 / (10.0 * rate)), 1e-6)
        self.w_q = w_q
        #: Floyd's "byte mode": marking probability scaled by packet size
        #: relative to *mean_pkt_size*, so big packets are marked
        #: preferentially and tiny ACKs mostly pass
        self.byte_mode = byte_mode
        self.mean_pkt_size = mean_pkt_size
        self.rng = rng or random.Random(0x5ED)

        self.avg = 0.0
        self._count = 0  # packets since last early mark/drop
        self._idle_since: Optional[float] = 0.0
        self._last_adapt = 0.0

    # ------------------------------------------------------------------
    # average-queue estimator
    # ------------------------------------------------------------------
    def _update_avg(self, now: float) -> None:
        q = len(self._buf)
        if q == 0 and self._idle_since is not None:
            # Decay the average as if m small packets had drained.
            m = (now - self._idle_since) / self.mean_pkt_time
            self.avg *= (1.0 - self.w_q) ** max(m, 0.0)
            self._idle_since = now
        else:
            self.avg += self.w_q * (q - self.avg)

    # ------------------------------------------------------------------
    # marking probability
    # ------------------------------------------------------------------
    def mark_probability(self) -> float:
        """Instantaneous p_b as a function of the current average queue."""
        avg = self.avg
        if avg < self.min_th:
            return 0.0
        if avg < self.max_th:
            return self.max_p * (avg - self.min_th) / (self.max_th - self.min_th)
        if self.gentle and avg < 2 * self.max_th:
            return self.max_p + (1.0 - self.max_p) * (avg - self.max_th) / self.max_th
        return 1.0

    def _adapt_max_p(self, now: float) -> None:
        """Adaptive RED: hold avg inside the middle of [min_th, max_th]."""
        if now - self._last_adapt < self.interval:
            return
        self._last_adapt = now
        span = self.max_th - self.min_th
        target_lo = self.min_th + 0.4 * span
        target_hi = self.min_th + 0.6 * span
        if self.avg > target_hi and self.max_p <= 0.5:
            self.max_p += min(0.01, self.max_p / 4.0)
        elif self.avg < target_lo and self.max_p >= 0.01:
            self.max_p *= 0.9

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self, pkt: Packet, now: float) -> str:
        self._update_avg(now)
        if self.adaptive:
            self._adapt_max_p(now)
        if self.is_full_for(pkt):
            self._count = 0
            return "drop"
        p_b = self.mark_probability()
        if self.byte_mode and p_b > 0.0:
            p_b = min(1.0, p_b * pkt.size / self.mean_pkt_size)
        if p_b <= 0.0:
            self._count = 0
            return "enqueue"
        if p_b >= 1.0:
            self._count = 0
            return self._mark_or_drop(pkt)
        # Uniformize inter-mark spacing (Floyd & Jacobson eq. for p_a).
        self._count += 1
        denom = 1.0 - self._count * p_b
        p_a = 1.0 if denom <= 0 else min(1.0, p_b / denom)
        if self.rng.random() < p_a:
            self._count = 0
            return self._mark_or_drop(pkt)
        return "enqueue"

    def _mark_or_drop(self, pkt: Packet) -> str:
        if self.ecn and pkt.ect:
            return "mark"
        return "drop"

    def aqm_state(self) -> Dict[str, Any]:
        return {
            "avg": self.avg,
            "max_p": self.max_p,
            "p": self.mark_probability(),
        }

    def dequeue(self, now: float) -> Optional[Packet]:
        pkt = super().dequeue(now)
        if pkt is not None and not self._buf:
            self._idle_since = now
        return pkt
