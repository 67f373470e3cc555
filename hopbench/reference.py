"""Interpreter-speed reference: a fixed pure-Python kernel timed around each sample.

The host this benchmark runs on shares its CPUs: the same set of points
takes up to half as long again in a busy minute as in a quiet one, which
swamps any change worth measuring.  A fixed kernel written like the
simulator, a miniature discrete-event simulation (heap of callbacks,
slotted packet objects, FIFO queues, dict routing), is timed before and
after every sample, and the sample is rescaled to the speed at which the
kernel runs in ``NOMINAL_S``::

    normalised = raw * NOMINAL_S / mean(kernel before, kernel after)

The kernel is part of the benchmark, not of the program, so a change to
the program moves the normalised time exactly as it moves the raw time;
only the machine's drift cancels.  Raw figures are printed alongside.
"""

from __future__ import annotations

import heapq
import multiprocessing
import random
import statistics
import time
from collections import deque
from typing import Any, Callable, Dict, List

#: the kernel's duration on the reference host (2 vCPUs, CPython 3.11)
NOMINAL_S = 0.022


class _Packet:
    __slots__ = ("flow", "seq", "size")

    def __init__(self, flow: int, seq: int, size: int) -> None:
        self.flow = flow
        self.seq = seq
        self.size = size


class _Queue:
    __slots__ = ("buf", "cap", "busy", "drops")

    def __init__(self, cap: int) -> None:
        self.buf: deque = deque()
        self.cap = cap
        self.busy = False
        self.drops = 0


def kernel_seconds(n_events: int = 20_000) -> float:
    """Time one run of the reference kernel.

    A miniature discrete-event simulation in the simulator's own style:
    a heap of ``(time, seq, fn, arg)`` entries, small slotted packet
    objects, FIFO queues with drops, dict routing and per-flow counters.
    """
    heap: List[tuple] = []
    queues = [_Queue(64) for _ in range(16)]
    route = {flow: queues[flow % 16] for flow in range(256)}
    delivered: Dict[int, int] = {}
    seq = 0
    now = 0.0

    def push(at: float, fn: Callable[[Any], None], arg: Any) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (at, seq, fn, arg))

    def arrive(pkt: _Packet) -> None:
        q = route[pkt.flow]
        if len(q.buf) >= q.cap:
            q.drops += 1
            return
        q.buf.append(pkt)
        if not q.busy:
            q.busy = True
            push(now + 1e-4, depart, q)

    def depart(q: _Queue) -> None:
        pkt = q.buf.popleft()
        delivered[pkt.flow] = delivered.get(pkt.flow, 0) + pkt.size
        if q.buf:
            push(now + 1e-4, depart, q)
        else:
            q.busy = False
        push(now + 1e-3 * (1 + (pkt.seq & 3)), send, pkt.flow)

    def send(flow: int) -> None:
        push(now + 1e-5, arrive, _Packet(flow, seq, 1000))

    rng = random.Random(11)
    for flow in range(256):
        push(rng.random() * 1e-3, send, flow)
    t0 = time.perf_counter()
    for _ in range(n_events):
        now, _, fn, arg = heapq.heappop(heap)
        fn(arg)
    return time.perf_counter() - t0


def median_kernel() -> float:
    """Median of three kernel timings, which damps millisecond-scale jitter."""
    return statistics.median(kernel_seconds() for _ in range(3))


def _kernel_child(conn) -> None:
    conn.send(median_kernel())
    conn.close()


class Normaliser:
    """Chains kernel timings around consecutive samples.

    Call :meth:`start` before the first sample; :meth:`scale` after each
    sample returns its factor ``NOMINAL_S / mean(kernel before, after)``.
    With ``parallel > 1`` the kernel runs at once in that many forked
    processes, so a sample that itself runs on several CPUs (the sweep's
    workers) is normalised to all of them.
    """

    def __init__(self, parallel: int = 1) -> None:
        self.kernels: List[float] = []
        self.parallel = parallel

    def _time(self) -> None:
        if self.parallel == 1:
            self.kernels.append(median_kernel())
            return
        ctx = multiprocessing.get_context("fork")
        readers, procs = [], []
        for _ in range(self.parallel):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_kernel_child, args=(writer,), daemon=True)
            proc.start()
            writer.close()
            readers.append(reader)
            procs.append(proc)
        times = [reader.recv() for reader in readers]
        for proc in procs:
            proc.join()
        self.kernels.append(statistics.mean(times))

    def start(self) -> None:
        """Time the kernel before the first sample."""
        self._time()

    def scale(self) -> float:
        """Time the kernel after a sample; the sample's normalising factor."""
        self._time()
        return NOMINAL_S * 2.0 / (self.kernels[-2] + self.kernels[-1])
