"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(0.3, order.append, "c")
    sim.schedule(0.1, order.append, "a")
    sim.schedule(0.2, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0  # clock advanced to the horizon
    sim.run(until=10.0)
    assert fired == [1, 5]


def test_cancel_skips_event():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "x")
    sim.cancel(ev)
    sim.run()
    assert fired == []


def test_cancel_none_is_noop():
    sim = Simulator()
    sim.cancel(None)  # should not raise


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 3.0


@pytest.mark.parametrize(
    "max_events, expected",
    [(10, 10), (0, 0), (-1, SimulationError)],
    ids=["ten", "zero", "negative"],
)
def test_max_events_limit(max_events, expected):
    sim = Simulator()

    def loop():
        sim.schedule(0.1, loop)

    sim.schedule(0.0, loop)
    if expected is SimulationError:
        with pytest.raises(SimulationError):
            sim.run(max_events=max_events)
        assert not sim._running
        expected = 0
    else:
        sim.run(max_events=max_events)
    assert sim.events_processed == expected
    assert sim.pending() == 1


def test_postpone_later_moves_the_event_in_place():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "timer")
    seq_before = sim._seq
    assert sim.postpone(ev, 2.0) is ev
    assert (ev.time, ev.seq) == (2.0, seq_before)
    assert sim._seq == seq_before + 1
    assert sim.pending() == 1
    sim.run(until=1.5)
    assert fired == [] and sim.events_processed == 0
    sim.run()
    assert fired == ["timer"] and sim.now == 2.0
    assert sim.events_processed == 1 and sim.pending() == 0


def test_postpone_earlier_cancels_and_reschedules():
    sim = Simulator()
    fired = []
    ev = sim.schedule(5.0, fired.append, "timer")
    new = sim.postpone(ev, 1.0)
    assert new is not ev and ev.cancelled
    assert new.time == 1.0 and sim.pending() == 1
    sim.run()
    assert fired == ["timer"] and sim.now == 1.0
    assert sim.events_processed == 1


def test_postpone_rejects_dead_events_and_bad_delays():
    sim = Simulator()
    other = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    for delay in (-1.0, float("nan"), float("inf")):
        with pytest.raises(SimulationError):
            sim.postpone(ev, delay)
    with pytest.raises(SimulationError):
        other.postpone(ev, 2.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.postpone(ev, 2.0)  # fired
    ev2 = sim.schedule(1.0, lambda: None)
    ev2.cancel()
    with pytest.raises(SimulationError):
        sim.postpone(ev2, 2.0)


def test_pending_counts_live_events():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    e1.cancel()
    assert sim.pending() == 1


def test_pending_is_constant_time_counter():
    # pending() must not scan the heap: cancelled events linger there
    # until popped, but the live count reflects them immediately.
    sim = Simulator()
    events = [sim.schedule(1.0 + i, lambda: None) for i in range(100)]
    for ev in events[:60]:
        ev.cancel()
    assert sim.pending() == 40
    assert len(sim._heap) == 100  # lazy deletion: heap still holds them


def test_cancel_is_idempotent():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    e1.cancel()
    e1.cancel()  # double cancel must not decrement twice
    assert sim.pending() == 1


def test_cancel_after_fire_is_a_noop():
    sim = Simulator()
    fired = []
    e1 = sim.schedule(1.0, lambda: fired.append(1))
    e2 = sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    assert fired == [1]
    assert sim.pending() == 1
    e1.cancel()  # already executed: must not affect the live count
    assert sim.pending() == 1
    e2.cancel()
    assert sim.pending() == 0


def test_pending_drains_to_zero_after_run():
    sim = Simulator()
    for i in range(5):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim.run()
    assert sim.pending() == 0


def test_streams_are_reproducible_and_independent():
    a1 = Simulator(seed=7).stream("x").random()
    a2 = Simulator(seed=7).stream("x").random()
    b = Simulator(seed=7).stream("y").random()
    c = Simulator(seed=8).stream("x").random()
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_stream_label_collision_rejected():
    sim = Simulator(seed=7)
    sim.stream("starts")
    with pytest.raises(SimulationError):
        sim.stream("starts")  # silently shared streams are a bug


def test_unique_streams_get_deterministic_suffixes():
    sim = Simulator(seed=7)
    r0 = sim.stream("red", unique=True)  # claims bare "red"
    r1 = sim.stream("red", unique=True)  # claims "red#1"
    r2 = sim.stream("red", unique=True)  # claims "red#2"
    ref = Simulator(seed=7)
    assert r0.random() == ref.stream("red").random()
    assert r1.random() == ref.stream("red#1").random()
    assert r2.random() == ref.stream("red#2").random()
    # first unique claim matches the historical bare label, so existing
    # single-instance simulations keep their exact random sequences
    assert r0.random() != r1.random() or r0.random() != r2.random()


def test_unique_stream_skips_explicitly_claimed_labels():
    sim = Simulator(seed=7)
    sim.stream("red")  # explicit bare claim first
    r = sim.stream("red", unique=True)  # must not collide: gets "red#1"
    assert r.random() == Simulator(seed=7).stream("red#1").random()


def test_run_not_reentrant():
    sim = Simulator()
    err = []

    def inner():
        try:
            sim.run()
        except SimulationError:
            err.append(True)

    sim.schedule(0.0, inner)
    sim.run()
    assert err == [True]


def test_nonfinite_delay_rejected():
    sim = Simulator()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_fire(bad, lambda: None)


def test_nonfinite_absolute_time_rejected():
    sim = Simulator()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)


def test_rejected_schedule_corrupts_nothing():
    # A rejected schedule must not consume a sequence number or leave a
    # stale heap entry: ordering afterwards is as if it never happened.
    sim = Simulator()
    fired = []
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), fired.append, "nan")
    sim.schedule(1.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "c")
    sim.run()
    assert fired == ["b", "c"]
    assert sim.pending() == 0


def test_schedule_fire_interleaves_with_schedule():
    # schedule_fire shares the sequence space with schedule(): same-time
    # callbacks fire in schedule order regardless of which API made them.
    sim = Simulator()
    order = []
    sim.schedule(0.5, order.append, 1)
    sim.schedule_fire(0.5, order.append, 2)
    sim.schedule(0.5, order.append, 3)
    sim.run()
    assert order == [1, 2, 3]


def test_cancelled_events_survive_pickle_roundtrip():
    # Regression for snapshot support: cancelled-but-unpopped heap entries
    # must neither fire after a restore nor drift the pending() counter.
    # (Capture purges them; this pins the observable contract either way.)
    import pickle

    sim = Simulator(seed=3)
    rng = sim.stream("ticks")
    keep = sim.schedule(1.0, rng.random)
    dead = sim.schedule(2.0, rng.random)
    late = sim.schedule(3.0, rng.random)
    dead.cancel()
    assert sim.pending() == 2

    blob = pickle.dumps({"sim": sim, "late": late})
    restored = pickle.loads(blob)
    sim2, late2 = restored["sim"], restored["late"]
    assert sim2.pending() == 2
    assert keep is not None

    # an external handle pickled alongside the sim still controls the
    # restored heap entry (pickle memo keeps them the same object)
    late2.cancel()
    assert sim2.pending() == 1
    sim2.run()
    assert sim2.events_processed == 1  # only `keep` fired; no double-fire
    assert sim2.pending() == 0
    assert sim2.now == 1.0

    # the original simulator is untouched by the capture
    sim.run()
    assert sim.events_processed == 2
    assert sim.pending() == 0
