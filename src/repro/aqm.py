"""The AQM control laws, one definition each, shared by every host.

The paper's thesis is that one AQM law can run in the router or in the
end host.  The router queues (:mod:`repro.sim.queues`) feed a law their
queue length in packets, the PERT senders (:mod:`repro.core`) their
smoothed queuing delay in seconds, and the fluid models
(:mod:`repro.fluid`) use its slope and coefficients.

Every law speaks one protocol: ``update(signal) -> p``.  Stateless
curves alias it to ``probability`` (and ``__call__``); stateful
controllers advance on ``update``, expose the current probability as
``p`` and restart with ``reset()``.  A law object owns its state, so each
sender or queue builds its own.  This module imports nothing from
:mod:`repro`, so every layer can use it.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["red_slope", "pi_coefficients", "GentleRedCurve", "PiResponse",
           "RemResponse"]


def red_slope(p_max: float, t_min: float, t_max: float) -> float:
    """Slope of the RED ramp, p_max / (t_max − t_min) (L_PERT of eq. 10)."""
    return p_max / (t_max - t_min)


def pi_coefficients(k: float, m: float, delta: float) -> Tuple[float, float]:
    """Bilinear transform of ``C(s) = K (1 + s/m) / s`` at interval δ: (γ, β).

    γ = K/m + K·δ/2 and β = K/m − K·δ/2 (paper eq. 19).
    """
    return k / m + k * delta / 2.0, k / m - k * delta / 2.0


class GentleRedCurve:
    """The RED curve: 0 up to ``t_min``, a ramp to ``p_max`` at ``t_max``,
    then (``gentle``) a ramp to 1 at ``2*t_max`` or (not gentle) 1.

    The defaults are the paper's PERT curve on the queuing-delay axis,
    ``(T_min, T_max, p_max) = (P + 5 ms, P + 10 ms, 0.05)`` less the
    propagation delay P.  The router passes thresholds in packets.
    """

    def __init__(self, t_min: float = 0.005, t_max: float = 0.010,
                 p_max: float = 0.05, gentle: bool = True):
        if not 0 <= t_min < t_max:
            raise ValueError("need 0 <= t_min < t_max")
        if not 0 < p_max <= 1:
            raise ValueError("p_max must be in (0, 1]")
        self.t_min = t_min
        self.t_max = t_max
        self.p_max = p_max
        self.gentle = gentle

    def probability(self, signal: float) -> float:
        """Response probability for the given signal value."""
        if signal <= self.t_min:
            return 0.0
        if signal < self.t_max:
            return self.p_max * (signal - self.t_min) / (self.t_max - self.t_min)
        if self.gentle and signal < 2.0 * self.t_max:
            return self.p_max + (1.0 - self.p_max) * (signal - self.t_max) / self.t_max
        return 1.0

    __call__ = update = probability

    @property
    def slope(self) -> float:
        """Slope of the ramp, :func:`red_slope` of this curve."""
        return red_slope(self.p_max, self.t_min, self.t_max)


class PiResponse:
    """Discretised PI controller over the queuing-delay signal (eq. 19).

        p(k) = clamp[0,1]( p(k-1) + gamma * (Tq(k) - Tq*) - beta * (Tq(k-1) - Tq*) )

    with (gamma, beta) = :func:`pi_coefficients` ``(k, m, delta)``.  ``k``
    and ``m`` are the gains (Theorem 2's schedule is
    :func:`repro.fluid.stability.pert_pi_gains`), ``target_delay`` is the
    set point Tq* (the paper uses 3 ms) and ``delta`` the nominal
    sampling interval.
    """

    def __init__(self, k: float, m: float, target_delay: float = 0.003,
                 delta: float = 0.001):
        if m <= 0 or k <= 0:
            raise ValueError("gains k and m must be positive")
        if delta <= 0:
            raise ValueError("delta must be positive")
        if target_delay < 0:
            raise ValueError("target_delay must be >= 0")
        self.k = k
        self.m = m
        self.target_delay = target_delay
        self.delta = delta
        self.gamma, self.beta = pi_coefficients(k, m, delta)
        self.p = 0.0
        self._prev_err = 0.0

    def update(self, queuing_delay: float) -> float:
        """One controller step; returns the new response probability."""
        err = queuing_delay - self.target_delay
        p = self.p + self.gamma * err - self.beta * self._prev_err
        self.p = min(1.0, max(0.0, p))
        self._prev_err = err
        return self.p

    def reset(self) -> None:
        """Return to the initial state (p = 0, no previous error)."""
        self.p = 0.0
        self._prev_err = 0.0


class RemResponse:
    """REM (Random Exponential Marking, the paper's reference [2]).

    A price integrates the mismatch of the signal x against its set point
    x* (``target_delay``, in the signal's unit), and the response follows
    REM's exponential law (phi > 1):

        price <- max(0, price + gamma * (alpha*(x - x*) + (x - x_prev)))
        p      = 1 - phi^(-price)

    The defaults are scaled for a queuing delay in seconds.  Because
    end-to-end delay sums per-hop delays, one end-host price plays the
    role of REM's per-link price sum.
    """

    def __init__(self, gamma: float = 0.5, alpha: float = 0.2,
                 phi: float = 1.1, target_delay: float = 0.012):
        if phi <= 1.0:
            raise ValueError("phi must be > 1")
        if gamma <= 0 or alpha < 0:
            raise ValueError("gamma must be > 0 and alpha >= 0")
        if target_delay < 0:
            raise ValueError("target_delay must be >= 0")
        self.gamma = gamma
        self.alpha = alpha
        self.phi = phi
        self.target_delay = target_delay
        self.price = 0.0
        self._prev = 0.0

    def update(self, signal: float) -> float:
        """One price step; returns the response probability."""
        mismatch = (self.alpha * (signal - self.target_delay)
                    + (signal - self._prev))
        self.price = max(0.0, self.price + self.gamma * mismatch)
        self._prev = signal
        return self.p

    @property
    def p(self) -> float:
        """Current response probability, 1 − phi^(−price)."""
        return 1.0 - self.phi ** (-self.price)

    def reset(self) -> None:
        """Return to the initial state (zero price, zero previous signal)."""
        self.price = 0.0
        self._prev = 0.0
