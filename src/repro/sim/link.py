"""Unidirectional store-and-forward link.

Each link owns a queue discipline and a transmitter.  Arriving packets are
offered to the queue; the transmitter drains it one packet at a time,
charging the serialization delay ``size * 8 / bandwidth`` and then the
propagation delay before handing the packet to the downstream node.  A
duplex connection between two nodes is simply two :class:`Link` objects,
which is how the paper's topologies carry reverse-path ACK traffic through
their own (droppable) queues.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from .engine import Simulator
from .packet import Packet
from .queues.base import QueueDiscipline

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

__all__ = ["Link"]


class Link:
    """One-way link: ``src -> dst`` with a queue at the sending side.

    Parameters
    ----------
    bandwidth:
        Line rate in bits per second.
    delay:
        One-way propagation delay in seconds.
    qdisc:
        Queue discipline instance guarding the transmitter.
    """

    __slots__ = (
        "sim",
        "src",
        "dst",
        "bandwidth",
        "delay",
        "qdisc",
        "_busy",
        "bytes_transmitted",
        "packets_transmitted",
        "busy_time",
        "_ser_time",
        "obs",
        "obs_label",
    )

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        bandwidth: float,
        delay: float,
        qdisc: QueueDiscipline,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth = bandwidth
        self.delay = delay
        self.qdisc = qdisc
        self._busy = False
        self.bytes_transmitted = 0
        self.packets_transmitted = 0
        self.busy_time = 0.0
        #: serialization-time memo, size -> seconds.  Real traffic uses a
        #: handful of distinct packet sizes, so this collapses the per-hop
        #: float division to a dict hit.  Entries are computed with the
        #: exact expression ``size * 8.0 / bandwidth`` so cached and
        #: uncached runs are bit-identical.
        self._ser_time: Dict[int, float] = {}
        #: observability attachment (:class:`repro.obs.Collector`)
        self.obs: Optional[Any] = None
        self.obs_label: Optional[str] = None

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> None:
        """Offer *pkt* to this link's queue and kick the transmitter."""
        accepted = self.qdisc.enqueue(pkt, self.sim.now)
        if accepted and not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        sim = self.sim
        pkt = self.qdisc.dequeue(sim.now)
        if pkt is None:
            self._busy = False
            return
        self._busy = True
        size = pkt.size
        tx_time = self._ser_time.get(size)
        if tx_time is None:
            tx_time = size * 8.0 / self.bandwidth
            self._ser_time[size] = tx_time
        self.busy_time += tx_time
        sim.schedule_fire1(tx_time, self._tx_done, pkt)

    def _tx_done(self, pkt: Packet) -> None:
        """Complete *pkt*'s transmission, then drain the queue in a batch.

        Each iteration is one departure: counters, the propagation-delay
        hand-off to the destination, and the dequeue of the next packet.
        When the engine can prove no other event intercedes before the
        next departure (``sim.advance_if_clear``), the chain continues
        inline — no heap push/pop, no run-loop iteration — which is the
        common case whenever the bottleneck drains a standing queue.  The
        virtual-time trace (times, sequence numbers, dequeue instants,
        observability hooks) is bit-identical to scheduling every
        departure through the heap; when the claim fails (a budgeted or
        profiled run) every departure is a real heap event.
        """
        sim = self.sim
        qdisc = self.qdisc
        dst_receive = self.dst.receive
        delay = self.delay
        ser_memo = self._ser_time
        schedule1 = sim.schedule_fire1
        advance_if_clear = sim.advance_if_clear
        while True:
            self.bytes_transmitted += pkt.size
            self.packets_transmitted += 1
            if self.obs is not None:
                self.obs.link_tx(self, sim.now)
            schedule1(delay, dst_receive, pkt)
            pkt = qdisc.dequeue(sim.now)
            if pkt is None:
                self._busy = False
                return
            tx_time = ser_memo.get(pkt.size)
            if tx_time is None:
                tx_time = pkt.size * 8.0 / self.bandwidth
                ser_memo[pkt.size] = tx_time
            self.busy_time += tx_time
            if not advance_if_clear(sim.now + tx_time):
                schedule1(tx_time, self._tx_done, pkt)
                return

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Walk ``__slots__`` across the MRO so subclasses (e.g.
        :class:`~repro.sim.jitter.JitterLink`) round-trip their extra
        slots without defining their own hooks.  Everything a link holds
        — counters, qdisc, the serialization memo, an attached collector
        — is state worth keeping; nothing is process-local."""
        state: Dict[str, Any] = {}
        for klass in type(self).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                state[slot] = getattr(self, slot)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    # ------------------------------------------------------------------
    def utilization(self, duration: float, since_bytes: int = 0) -> float:
        """Fraction of capacity used over *duration* seconds.

        ``since_bytes`` subtracts a byte-counter snapshot so callers can
        measure a window (e.g. the paper's steady-state 100-300 s slice).
        """
        if duration <= 0:
            return 0.0
        used = (self.bytes_transmitted - since_bytes) * 8.0
        return min(1.0, used / (self.bandwidth * duration))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.src.node_id}->{self.dst.node_id} "
            f"{self.bandwidth/1e6:.1f}Mbps {self.delay*1e3:.1f}ms "
            f"q={len(self.qdisc)}>"
        )
