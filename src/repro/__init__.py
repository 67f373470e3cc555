"""Reproduction of "Emulating AQM from End Hosts" (PERT, SIGCOMM 2007).

Top-level re-exports cover the most common entry points: the PERT senders
and configuration, the baseline TCP variants, the simulator and topology
builders, and the fairness metric.  See ``DESIGN.md`` for the full system
inventory and ``EXPERIMENTS.md`` for the paper-vs-measured results.
"""

from .aqm import GentleRedCurve, PiResponse
from .core import EwmaRtt, PertConfig, PertPiConfig, PertPiSender, PertSender
from .metrics import jain_index
from .sim import (
    DropTailQueue,
    Dumbbell,
    Network,
    ParkingLot,
    PiQueue,
    RedQueue,
    Simulator,
)
from .tcp import (
    NewRenoSender,
    SackEcnSender,
    SackSender,
    TcpSink,
    VegasSender,
    connect_flow,
)

__version__ = "1.0.0"

__all__ = [
    "PertSender",
    "PertPiSender",
    "PertConfig",
    "PertPiConfig",
    "GentleRedCurve",
    "PiResponse",
    "EwmaRtt",
    "Simulator",
    "Dumbbell",
    "ParkingLot",
    "Network",
    "DropTailQueue",
    "RedQueue",
    "PiQueue",
    "SackSender",
    "SackEcnSender",
    "NewRenoSender",
    "VegasSender",
    "TcpSink",
    "connect_flow",
    "jain_index",
    "__version__",
]
