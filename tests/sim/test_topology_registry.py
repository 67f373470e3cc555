"""Topology registry: make_topology round-trips and validation."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.queues import DropTailQueue
from repro.sim.topology import (
    TOPOLOGIES,
    Dumbbell,
    ParkingLot,
    make_topology,
)

DB_KW = dict(n_left=2, n_right=2, bottleneck_bw=1e6, bottleneck_delay=0.01,
             qdisc_fwd=lambda: DropTailQueue(10))
LOT_KW = dict(n_routers=3, cloud_size=2, link_bw=1e6, link_delay=0.005,
              qdisc=lambda: DropTailQueue(10))


def test_registry_contents():
    assert TOPOLOGIES == {"dumbbell": Dumbbell, "parking_lot": ParkingLot}


def test_make_dumbbell_roundtrip():
    db = make_topology("dumbbell", Simulator(), **DB_KW)
    assert isinstance(db, Dumbbell)
    assert len(db.left) == 2 and len(db.right) == 2
    assert db.bottleneck_queue is db.fwd.qdisc


def test_make_parking_lot_roundtrip():
    lot = make_topology("parking_lot", Simulator(), **LOT_KW)
    assert isinstance(lot, ParkingLot)
    assert len(lot.routers) == 3
    assert len(lot.core_links) == 2


def test_unknown_topology_fails_loudly():
    with pytest.raises(ValueError, match="dumbbell"):
        make_topology("triangle", Simulator(), **DB_KW)


def test_unknown_param_fails_loudly():
    with pytest.raises(ValueError, match="n_hosts"):
        make_topology("dumbbell", Simulator(), n_hosts=3, **DB_KW)


def test_factory_matches_direct_construction():
    a = make_topology("dumbbell", Simulator(), **DB_KW)
    b = Dumbbell(Simulator(), **DB_KW)
    assert len(a.left) == len(b.left)
    assert a.fwd.bandwidth == b.fwd.bandwidth
