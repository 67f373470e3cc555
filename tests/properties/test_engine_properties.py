"""Hypothesis properties of the event-engine contract, on every backend.

Each property is parametrized over :class:`ArraySimulator` and — when
the optional extension is built (see :mod:`repro.compiled`) —
:class:`CompiledSimulator`, both constructed directly.  One
cross-engine property runs the same randomized schedule through both
and demands identical dispatch sequences — the randomized counterpart
of the scenario-level suite in ``tests/differential``; it skips, with
the reason stated, when the extension is not built.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import status as _compiled_status
from repro.sim.engine import ArraySimulator

COMPILED_AVAILABLE = _compiled_status().available

ENGINES = [ArraySimulator]
if COMPILED_AVAILABLE:
    from repro.compiled.engine import CompiledSimulator

    ENGINES.append(CompiledSimulator)

#: event times including exact duplicates (ties are the interesting case)
delay_lists = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
              allow_infinity=False).map(lambda d: round(d, 3)),
    min_size=1, max_size=60,
)


class Recorder:
    """Picklable fire log: bound methods of instances survive snapshots."""

    def __init__(self):
        self.hits = []

    def hit(self, tag):
        self.hits.append(tag)


@pytest.mark.parametrize("engine", ENGINES)
@given(delays=delay_lists)
@settings(max_examples=50)
def test_same_timestamp_fifo_order(engine, delays):
    """Ties dispatch in schedule order; overall order is (time, seq)."""
    sim = engine(seed=0)
    rec = Recorder()
    for i, d in enumerate(delays):
        sim.schedule_fire(d, rec.hit, (d, i))
    sim.run()
    assert rec.hits == sorted(rec.hits)  # time asc, then insertion order
    assert len(rec.hits) == len(delays)
    assert sim.events_processed == len(delays)


@pytest.mark.parametrize("engine", ENGINES)
@given(delays=delay_lists, data=st.data())
@settings(max_examples=50)
def test_cancel_idempotent_including_unpopped(engine, delays, data):
    """Repeated cancels (before and after firing) never corrupt counts."""
    sim = engine(seed=0)
    rec = Recorder()
    events = [sim.schedule(d, rec.hit, (d, i)) for i, d in enumerate(delays)]
    doomed = data.draw(st.sets(st.integers(0, len(events) - 1)))
    for i in doomed:
        events[i].cancel()
        events[i].cancel()  # idempotent while still on the heap
    assert sim.pending() == len(events) - len(doomed)
    sim.run()
    fired = {tag[1] for tag in rec.hits}
    assert fired == set(range(len(events))) - doomed
    assert sim.events_processed == len(events) - len(doomed)
    for ev in events:
        ev.cancel()  # idempotent after run: fired or already cancelled
    assert sim.pending() == 0


@pytest.mark.parametrize("engine", ENGINES)
@given(delays=delay_lists, extra=delay_lists)
@settings(max_examples=50)
def test_schedule_during_fire_is_safe(engine, delays, extra):
    """Callbacks scheduling new events mid-run keep global time order."""
    sim = engine(seed=0)
    fired = []

    class Spawner:
        def __init__(self):
            self.budget = list(extra)

        def fire(self, tag):
            fired.append((sim.now, tag))
            if self.budget:
                d = self.budget.pop()
                sim.schedule_fire(d, self.fire, ("spawned", d))

    sp = Spawner()
    for i, d in enumerate(delays):
        sim.schedule_fire(d, sp.fire, ("root", i))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays) + (len(extra) - len(sp.budget))
    assert sim.events_processed == len(fired)


@pytest.mark.parametrize("engine", ENGINES)
@given(delays=delay_lists, split=st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=40)
def test_snapshot_roundtrip_under_random_schedule(engine, delays, split):
    """capture → restore mid-run continues exactly like the original."""
    def build():
        sim = engine(seed=7)
        rec = Recorder()
        for i, d in enumerate(delays):
            sim.schedule_fire(d, rec.hit, (d, i))
        return sim, rec

    # references: straight through, and chunked at the split point but
    # never snapshotted (run(until=...) legitimately parks the clock at
    # the horizon, so the final `now` is compared against the chunked run)
    sim_a, rec_a = build()
    sim_a.run()
    sim_r, rec_r = build()
    sim_r.run(until=split)
    sim_r.run()
    assert rec_r.hits == rec_a.hits

    # candidate: run to the split point, snapshot, restore, finish
    sim_b, rec_b = build()
    sim_b.run(until=split)
    body = pickle.dumps({"sim": sim_b, "rec": rec_b})
    root = pickle.loads(body)
    sim_c, rec_c = root["sim"], root["rec"]
    assert type(sim_c) is engine
    assert sim_c.pending() == sim_b.pending()
    sim_c.run()
    assert rec_c.hits == rec_a.hits
    assert sim_c.events_processed == sim_r.events_processed
    assert sim_c.now == sim_r.now
    assert sim_c._seq == sim_r._seq


@pytest.mark.skipif(
    not COMPILED_AVAILABLE,
    reason="compiled extension not built (python -m repro.compiled.build): "
           "no second engine to compare the array engine against",
)
@given(delays=delay_lists, data=st.data())
@settings(max_examples=50)
def test_array_and_compiled_dispatch_identically(delays, data):
    """Same randomized schedule + cancels → identical dispatch on both."""
    doomed = data.draw(st.sets(st.integers(0, len(delays) - 1)))

    def run(engine):
        sim = engine(seed=0)
        rec = Recorder()
        events = [
            sim.schedule(d, rec.hit, (d, i)) for i, d in enumerate(delays)
        ]
        for i in doomed:
            events[i].cancel()
        sim.run()
        return rec.hits, sim.events_processed, sim.now, sim._seq

    assert run(ArraySimulator) == run(CompiledSimulator)
