"""Guard: disabled instrumentation must cost <5% on the hot path.

The baseline monkeypatches the per-packet hook-bearing methods
(``QueueDiscipline.enqueue``/``dequeue``, ``Link.send``/``_tx_done``)
with copies stripped of their ``obs`` hook sites, then times the same fixed-seed
dumbbell both ways.  The two runs must also produce *identical* results —
if the stripped copies ever drift from the real methods, the equality
assertion fails before the timing comparison can mislead anyone.
"""

import time

import pytest

from repro.experiments.common import run_dumbbell
from repro.sim.link import Link
from repro.sim.queues.base import QueueDiscipline

_KWARGS = dict(
    bandwidth=8e6, duration=4.0, warmup=1.5, n_fwd=4, seed=5,
)
_MAX_RATIO = 1.05
_REPEATS = 3
_ATTEMPTS = 3


# ---- stripped copies of the hook-bearing hot-path methods ------------
def _plain_enqueue(self, pkt, now):
    stats = self.stats
    if now > stats._last_change:
        stats._q_integral += len(self._buf) * (now - stats._last_change)
        stats._last_change = now
    stats.arrivals += 1
    verdict = self.admit(pkt, now)
    if verdict == "enqueue":
        pass
    elif verdict == "mark":
        pkt.ce = True
        stats.marks += 1
    elif verdict == "drop":
        stats.drops += 1
        if self.is_full_for(pkt):
            stats.forced_drops += 1
        else:
            stats.early_drops += 1
        for fn in self.drop_listeners:
            fn(pkt, now)
        return False
    else:
        raise ValueError(f"bad admit() verdict {verdict!r}")
    pkt.enqueue_time = now
    self._buf.append(pkt)
    self._bytes += pkt.size
    stats.enqueues += 1
    stats.bytes_in += pkt.size
    return True


def _plain_dequeue(self, now):
    buf = self._buf
    if not buf:
        return None
    stats = self.stats
    if now > stats._last_change:
        stats._q_integral += len(buf) * (now - stats._last_change)
        stats._last_change = now
    pkt = buf.popleft()
    self._bytes -= pkt.size
    stats.departures += 1
    stats.bytes_out += pkt.size
    return pkt


def _plain_send(self, pkt):
    sim = self.sim
    now = sim.now
    qdisc = self.qdisc
    if self._busy:
        qdisc.enqueue(pkt, now)
        return
    passthrough = False
    if qdisc._plain_admit and qdisc._passthrough and not qdisc._buf:
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


def _plain_tx_done(self, pkt):
    sim = self.sim
    qdisc = self.qdisc
    while True:
        self.bytes_transmitted += pkt.size
        self.packets_transmitted += 1
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


_PATCHES = [
    (QueueDiscipline, "enqueue", _plain_enqueue),
    (QueueDiscipline, "dequeue", _plain_dequeue),
    (Link, "send", _plain_send),
    (Link, "_tx_done", _plain_tx_done),
]


def _timed_run(stripped: bool):
    """Best-of-N wall time (and the result) for one configuration."""
    saved = [(cls, name, getattr(cls, name)) for cls, name, _ in _PATCHES]
    if stripped:
        for cls, name, fn in _PATCHES:
            setattr(cls, name, fn)
    try:
        best, result = float("inf"), None
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            result = run_dumbbell("pert", collector=False, **_KWARGS)
            best = min(best, time.perf_counter() - t0)
        return best, result
    finally:
        for cls, name, fn in saved:
            setattr(cls, name, fn)


def test_disabled_instrumentation_overhead_under_5_percent():
    ratio = None
    for _ in range(_ATTEMPTS):
        base_t, base_r = _timed_run(stripped=True)
        inst_t, inst_r = _timed_run(stripped=False)
        # Self-check: the stripped copies must be behaviourally identical
        # to the real methods, or the timing comparison is meaningless.
        assert inst_r == base_r, (
            "stripped baseline methods drifted from the instrumented ones"
        )
        ratio = inst_t / base_t
        if ratio <= _MAX_RATIO:
            return
    pytest.fail(
        f"disabled instrumentation costs {ratio:.3f}x the stripped "
        f"baseline (limit {_MAX_RATIO}x)"
    )
