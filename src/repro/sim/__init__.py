"""Packet-level discrete-event network simulator (the ns-2 substitute).

Public pieces: the event :class:`~repro.sim.engine.Simulator`, packets,
nodes, store-and-forward links, queue disciplines (DropTail / RED / PI),
topology builders (dumbbell, parking lot) and measurement monitors.
"""

from .engine import Event, SimulationError, Simulator
from .jitter import JitterLink
from .link import Link
from .monitors import DropLog, LinkWindow, QueueSampler, ThroughputSampler
from .node import Node
from .packet import ACK_SIZE, DATA_SIZE, Packet
from .queues import (
    DropTailQueue,
    PiQueue,
    QueueDiscipline,
    QueueStats,
    RedQueue,
    RemQueue,
)
from .topology import (
    TOPOLOGIES,
    Dumbbell,
    Network,
    ParkingLot,
    make_topology,
)
from .trace import FlowTracer, ascii_series

__all__ = [
    "Simulator",
    "Event",
    "SimulationError",
    "Packet",
    "DATA_SIZE",
    "ACK_SIZE",
    "Node",
    "Link",
    "JitterLink",
    "QueueDiscipline",
    "QueueStats",
    "DropTailQueue",
    "RedQueue",
    "PiQueue",
    "RemQueue",
    "FlowTracer",
    "ascii_series",
    "Network",
    "Dumbbell",
    "ParkingLot",
    "TOPOLOGIES",
    "make_topology",
    "QueueSampler",
    "DropLog",
    "LinkWindow",
    "ThroughputSampler",
]
