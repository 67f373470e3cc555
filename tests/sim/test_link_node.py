"""Unit tests for links, nodes and routing."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue
from repro.sim.queues.base import QueueStats
from repro.sim.topology import Dumbbell, Network
from repro.tcp.base import connect_flow


class Collector:
    """Endpoint that records arrivals with timestamps."""

    def __init__(self, sim):
        self.sim = sim
        self.seen = []

    def receive(self, pkt):
        self.seen.append((self.sim.now, pkt.seq))


def two_nodes(sim, bw=8e6, delay=0.01, buf=10):
    a = Node(sim, 0, "a")
    b = Node(sim, 1, "b")
    link = Link(sim, a, b, bandwidth=bw, delay=delay, qdisc=DropTailQueue(buf))
    a.add_route(1, link)
    return a, b, link


def test_serialization_plus_propagation_delay():
    sim = Simulator()
    a, b, link = two_nodes(sim, bw=8e6, delay=0.01)
    sink = Collector(sim)
    b.register_endpoint(5, sink)
    pkt = Packet(flow_id=5, src=0, dst=1, size=1000, seq=0)
    sim.schedule(0.0, a.send, pkt)
    sim.run()
    # 1000 B at 8 Mbps = 1 ms serialization + 10 ms propagation
    assert sink.seen == [(pytest.approx(0.011), 0)]


def test_back_to_back_packets_paced_by_bandwidth():
    sim = Simulator()
    a, b, link = two_nodes(sim, bw=8e6, delay=0.0)
    sink = Collector(sim)
    b.register_endpoint(5, sink)
    for i in range(3):
        sim.schedule(0.0, a.send, Packet(flow_id=5, src=0, dst=1, size=1000, seq=i))
    sim.run()
    times = [t for t, _ in sink.seen]
    assert times == [pytest.approx(0.001), pytest.approx(0.002), pytest.approx(0.003)]


def test_queue_overflow_drops_excess():
    sim = Simulator()
    a, b, link = two_nodes(sim, bw=8e4, delay=0.0, buf=2)
    sink = Collector(sim)
    b.register_endpoint(5, sink)
    # one in flight + 2 queued; the rest dropped
    for i in range(10):
        sim.schedule(0.0, a.send, Packet(flow_id=5, src=0, dst=1, size=1000, seq=i))
    sim.run()
    assert len(sink.seen) == 3
    assert link.qdisc.stats.drops == 7


def test_utilization_measurement():
    sim = Simulator()
    a, b, link = two_nodes(sim, bw=8e6, delay=0.0)
    b.register_endpoint(5, Collector(sim))
    for i in range(10):
        sim.schedule(0.0, a.send, Packet(flow_id=5, src=0, dst=1, size=1000, seq=i))
    sim.run(until=0.0101)  # tiny slack for float accumulation in tx times
    assert link.utilization(duration=0.01) == pytest.approx(1.0)


def test_unroutable_packet_counted():
    sim = Simulator()
    a, b, link = two_nodes(sim)
    a.receive(Packet(flow_id=9, src=1, dst=99))
    assert a.packets_unroutable == 1


def test_unknown_flow_at_destination_dropped_silently():
    sim = Simulator()
    a, b, link = two_nodes(sim)
    sim.schedule(0.0, a.send, Packet(flow_id=123, src=0, dst=1))
    sim.run()
    assert b.packets_unroutable == 1


def test_duplicate_endpoint_registration_rejected():
    sim = Simulator()
    node = Node(sim, 0)
    node.register_endpoint(1, Collector(sim))
    with pytest.raises(ValueError):
        node.register_endpoint(1, Collector(sim))


def test_link_validation():
    sim = Simulator()
    a, b = Node(sim, 0), Node(sim, 1)
    with pytest.raises(ValueError):
        Link(sim, a, b, bandwidth=0, delay=0.01, qdisc=DropTailQueue(5))
    with pytest.raises(ValueError):
        Link(sim, a, b, bandwidth=1e6, delay=-1, qdisc=DropTailQueue(5))


def test_multihop_routing_via_network():
    sim = Simulator()
    net = Network(sim)
    n0, n1, n2 = (net.add_node(f"n{i}") for i in range(3))
    net.connect(n0, n1, 8e6, 0.001)
    net.connect(n1, n2, 8e6, 0.001)
    net.compute_routes()
    sink = Collector(sim)
    n2.register_endpoint(7, sink)
    sim.schedule(0.0, n0.send, Packet(flow_id=7, src=0, dst=n2.node_id, seq=3))
    sim.run()
    assert sink.seen and sink.seen[0][1] == 3
    assert n1.packets_forwarded == 1


def test_bfs_routes_prefer_fewest_hops():
    sim = Simulator()
    net = Network(sim)
    nodes = [net.add_node(f"n{i}") for i in range(4)]
    # ring: 0-1-2-3-0; from 0 to 2 both ways are 2 hops, but 0->1->2 was
    # discovered first; from 0 to 3 the direct link must be used.
    net.connect(nodes[0], nodes[1], 1e6, 0.001)
    net.connect(nodes[1], nodes[2], 1e6, 0.001)
    net.connect(nodes[2], nodes[3], 1e6, 0.001)
    net.connect(nodes[3], nodes[0], 1e6, 0.001)
    net.compute_routes()
    assert nodes[0].routes[nodes[3].node_id].dst is nodes[3]


# ---- idle-link admit-and-send ----------------------------------------
def _dumbbell_counters(force_two_call):
    """Every link and queue counter of a lossy two-flow dumbbell run."""
    sim = Simulator(seed=3)
    db = Dumbbell(sim, n_left=2, n_right=2, bottleneck_bw=4e6,
                  bottleneck_delay=0.01,
                  qdisc_fwd=lambda: DropTailQueue(8),
                  qdisc_rev=lambda: DropTailQueue(8))
    if force_two_call:
        for link in db.net.links:
            link.qdisc._passthrough = False
    for i in range(2):
        sender, _ = connect_flow(sim, db.left[i], db.right[i], flow_id=i)
        sender.start(at=0.01 * i)
    sim.run(until=3.0)
    out = [sim.events_processed, sim._seq, db.fwd.qdisc.stats.drops]
    for link in db.net.links:
        qdisc = link.qdisc
        out.append((link.bytes_transmitted, link.packets_transmitted,
                    link.busy_time, qdisc.stats.mean_queue(sim.now, len(qdisc)))
                   + tuple(getattr(qdisc.stats, f) for f in QueueStats.__slots__))
    return out


def test_idle_passthrough_matches_two_call_path():
    """The inlined tail-drop pass-through leaves every counter, the queue
    integral and the event count exactly as enqueue + dequeue would."""
    fast = _dumbbell_counters(force_two_call=False)
    assert fast == _dumbbell_counters(force_two_call=True)
    assert fast[2] > 0  # the bottleneck overflowed
    assert all(row[1] > 0 for row in fast[3:])  # every link carried traffic


def test_instance_spies_see_every_packet_on_an_idle_link():
    sim = Simulator()
    a, b, link = two_nodes(sim, bw=8e6, delay=0.001)
    sink = Collector(sim)
    b.register_endpoint(5, sink)
    qdisc = link.qdisc
    seen = {"enqueue": [], "dequeue": []}
    enqueue, dequeue = qdisc.enqueue, qdisc.dequeue

    def spy_enqueue(pkt, now):
        seen["enqueue"].append(pkt.seq)
        return enqueue(pkt, now)

    def spy_dequeue(now):
        pkt = dequeue(now)
        if pkt is not None:
            seen["dequeue"].append(pkt.seq)
        return pkt

    qdisc.enqueue = spy_enqueue
    qdisc.dequeue = spy_dequeue
    # 10 ms apart on a 1 ms transmitter: the link is idle at every arrival
    for i in range(5):
        sim.schedule(0.01 * i, a.send, Packet(flow_id=5, src=0, dst=1, size=1000, seq=i))
    sim.run()
    assert seen == {"enqueue": list(range(5)), "dequeue": list(range(5))}
    assert [seq for _, seq in sink.seen] == list(range(5))


def test_subclass_override_sees_every_packet_on_an_idle_link():
    class CountingQueue(DropTailQueue):
        def __init__(self, cap):
            super().__init__(cap)
            self.offered = []

        def enqueue(self, pkt, now):
            self.offered.append(pkt.seq)
            return super().enqueue(pkt, now)

    sim = Simulator()
    a, b = Node(sim, 0), Node(sim, 1)
    link = Link(sim, a, b, bandwidth=8e6, delay=0.001, qdisc=CountingQueue(5))
    a.add_route(1, link)
    b.register_endpoint(5, Collector(sim))
    assert not link.qdisc._passthrough
    for i in range(3):
        sim.schedule(0.01 * i, a.send, Packet(flow_id=5, src=0, dst=1, seq=i))
    sim.run()
    assert link.qdisc.offered == [0, 1, 2]


def test_byte_bound_refuses_oversized_packet_on_an_idle_link():
    sim = Simulator()
    a, b = Node(sim, 0), Node(sim, 1)
    q = DropTailQueue(5, capacity_bytes=500)
    link = Link(sim, a, b, bandwidth=8e6, delay=0.001, qdisc=q)
    a.add_route(1, link)
    sink = Collector(sim)
    b.register_endpoint(5, sink)
    sim.schedule(0.0, a.send, Packet(flow_id=5, src=0, dst=1, size=1000, seq=0))
    sim.schedule(0.1, a.send, Packet(flow_id=5, src=0, dst=1, size=400, seq=1))
    sim.run()
    assert q.stats.forced_drops == 1 and q.stats.arrivals == 2
    assert [seq for _, seq in sink.seen] == [1]


def test_node_send_counts_like_receive():
    sim = Simulator()
    a, b, link = two_nodes(sim)
    b.register_endpoint(5, Collector(sim))
    pkt = Packet(flow_id=5, src=0, dst=1, seq=0)
    a.send(pkt)
    a.send(Packet(flow_id=5, src=0, dst=99))  # no route
    sim.run()
    assert (a.packets_forwarded, a.packets_unroutable) == (1, 1)
    assert (b.packets_delivered, pkt.hops) == (1, 2)
