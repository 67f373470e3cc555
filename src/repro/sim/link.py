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
        """Offer *pkt* to this link's queue; start sending it if idle.

        A busy link only enqueues.  On an idle link, admission and the
        start of transmission are one step: ``enqueue``, then ``dequeue``
        of the head packet.  For a plain tail-drop FIFO (see
        ``QueueDiscipline._passthrough``) that is empty and has no
        ``obs`` attached, the pair is inlined without the deque round
        trip.  An empty FIFO always admits (capacity is at least one
        packet and no byte bound applies), so the inlined pair makes the
        same ``QueueStats`` updates as the two calls; the queue-length
        integral would gain ``0 * dt``, so only its clock advances.  An
        ``enqueue``/``dequeue`` assigned on the queue instance (a test
        spy) keeps every packet on the two-call path.
        """
        sim = self.sim
        now = sim.now
        qdisc = self.qdisc
        if self._busy:
            qdisc.enqueue(pkt, now)
            return
        passthrough = False
        if (qdisc._plain_admit and qdisc._passthrough and not qdisc._buf
                and qdisc.obs is None):
            # An enqueue/dequeue assigned on the instance shadows the
            # bound method; a plain-function spy has no __func__ at all.
            try:
                passthrough = (qdisc.enqueue.__func__ is QueueDiscipline.enqueue
                               and qdisc.dequeue.__func__ is QueueDiscipline.dequeue)
            except AttributeError:
                pass
        if passthrough:
            stats = qdisc.stats
            if now > stats._last_change:
                stats._last_change = now
            stats.arrivals += 1
            stats.enqueues += 1
            stats.departures += 1
            size = pkt.size
            stats.bytes_in += size
            stats.bytes_out += size
            pkt.enqueue_time = now
        else:
            if not qdisc.enqueue(pkt, now):
                return
            pkt = qdisc.dequeue(now)
            if pkt is None:
                return
            size = pkt.size
        self._busy = True
        tx_time = self._ser_time.get(size)
        if tx_time is None:
            tx_time = size * 8.0 / self.bandwidth
            self._ser_time[size] = tx_time
        self.busy_time += tx_time
        sim.schedule_fire1(tx_time, self._tx_done, pkt)

    def _tx_done(self, pkt: Packet) -> None:
        """Complete *pkt*'s transmission, then drain the queue in a batch.

        Each iteration is one departure: counters, the propagation-delay
        hand-off to the destination, and the dequeue of the next packet
        (not called on an empty FIFO, where it has nothing to return).
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
        while True:
            self.bytes_transmitted += pkt.size
            self.packets_transmitted += 1
            if self.obs is not None:
                self.obs.link_tx(self, sim.now)
            sim.schedule_fire1(self.delay, self.dst.receive, pkt)
            if not qdisc._buf:
                self._busy = False
                return
            pkt = qdisc.dequeue(sim.now)
            if pkt is None:
                self._busy = False
                return
            size = pkt.size
            tx_time = self._ser_time.get(size)
            if tx_time is None:
                tx_time = size * 8.0 / self.bandwidth
                self._ser_time[size] = tx_time
            self.busy_time += tx_time
            if not sim.advance_if_clear(sim.now + tx_time):
                sim.schedule_fire1(tx_time, self._tx_done, pkt)
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
