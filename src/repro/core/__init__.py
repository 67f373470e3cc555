"""PERT — Probabilistic Early Response TCP (the paper's contribution).

Public API: the PERT senders (:class:`PertSender`, :class:`PertPiSender`,
:class:`PertRemSender`, :class:`PertOwdSender`), their configuration
dataclasses and the smoothed-RTT congestion signals.  The AQM laws the
senders emulate live in :mod:`repro.aqm`.
"""

from .config import PertConfig, PertPiConfig, SenderKnobs
from .pert import PertSender
from .pert_owd import PertOwdSender
from .pert_pi import PertPiSender
from .pert_rem import PertRemConfig, PertRemSender
from .srtt import SRTT_WEIGHT_PERT, SRTT_WEIGHT_TCP, EwmaRtt, MovingAverageRtt

__all__ = [
    "PertConfig",
    "PertPiConfig",
    "SenderKnobs",
    "PertSender",
    "PertOwdSender",
    "PertPiSender",
    "PertRemSender",
    "PertRemConfig",
    "EwmaRtt",
    "MovingAverageRtt",
    "SRTT_WEIGHT_PERT",
    "SRTT_WEIGHT_TCP",
]
