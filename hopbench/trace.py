"""Outside-in layer tracer: class-level wrappers around each layer's entry points.

The tracer never edits ``src/``.  It replaces entry-point methods and
module functions with timing wrappers *before anything is built*, so
every instance created afterwards dispatches through them, then restores
the originals on :meth:`Tracer.uninstall`.

Spans live on an in-memory stack.  Each wrapped call pushes a child-time
slot, runs the original, and on exit charges ``duration - children`` to
its layer's self time and ``duration`` to its parent's child time.  The
stack starts with a root sentinel, so time spent outside every span
(benchmark harness, unwrapped set-up code) is what is left over.

Wrapper cost is measured once per run (:meth:`Tracer.calibrate`) and
split in two: ``o_in``, the part that lands inside a span's own clock
reads (charged per call), and ``o_out``, the part its caller sees around
it (charged per child call).  :func:`layer_times` subtracts both, so a
layer that makes many wrapped child calls (the link) is not inflated by
its children's wrapper cost.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# accumulator slots: one small list per layer keeps the wrapper's hot path
# down to indexed adds
SELF, CALLS, CHILDREN, COUNT, INCL = range(5)

#: queue-discipline class name -> layer label
QUEUE_LABELS = {
    "DropTailQueue": "queue.droptail",
    "RedQueue": "queue.red",
    "PiQueue": "queue.pi",
    "RemQueue": "queue.rem",
}

#: the tracer installed in this process (forked sweep workers inherit it)
ACTIVE: Optional["Tracer"] = None


def _new_acc() -> List[float]:
    return [0.0, 0, 0, 0, 0.0]


class Tracer:
    """Span stack, per-layer accumulators and the patches that feed them."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.root = _new_acc()
        self.times: List[float] = [0.0]
        self.accs: List[List[float]] = [self.root]
        self.layers: Dict[str, List[float]] = {}
        #: every TcpSender built while installed (read for rtx/timeouts)
        self.senders: List[Any] = []
        #: (owner, attribute, original, wrapper) per patched attribute
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self.o_in = 0.0
        self.o_out = 0.0
        #: measured wrapper cost on real work over the probe's estimate
        self.scale = 1.0

    # ------------------------------------------------------------------
    # accumulators
    # ------------------------------------------------------------------
    def acc(self, layer: str) -> List[float]:
        """The accumulator of *layer*, created on first use."""
        acc = self.layers.get(layer)
        if acc is None:
            acc = self.layers[layer] = _new_acc()
        return acc

    def reset(self) -> None:
        """Zero every accumulator and the stack (a forked worker's start)."""
        for acc in list(self.layers.values()) + [self.root]:
            acc[:] = _new_acc()
        del self.times[1:]
        del self.accs[1:]
        self.times[0] = 0.0
        self.senders.clear()

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrapper(self, fn: Callable, fixed: Optional[List[float]] = None,
                 acc_of: Optional[Callable[[tuple], List[float]]] = None,
                 mode: str = "", work: Optional[Callable] = None) -> Callable:
        """Timing wrapper around *fn*, charging accumulator *fixed*.

        Without *fixed*, ``acc_of(args)`` picks the accumulator per call.
        ``mode`` ``"true"`` counts truthy returns into ``COUNT``; a
        *work* callable adds ``work(args, kwargs)`` to ``COUNT``.
        """
        times, accs, clock = self.times, self.accs, self.clock
        push_t, pop_t = times.append, times.pop
        push_a, pop_a = accs.append, accs.pop

        if mode == "true":
            def wrapper(*args, **kwargs):
                acc = fixed or acc_of(args)
                push_t(0.0)
                push_a(acc)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    pop_a()
                    acc[0] += d - pop_t()
                    acc[1] += 1
                    acc[4] += d
                    times[-1] += d
                    accs[-1][2] += 1
                if result:
                    acc[3] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                acc = fixed or acc_of(args)
                if work is not None:
                    acc[3] += work(args, kwargs)
                push_t(0.0)
                push_a(acc)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    pop_a()
                    acc[0] += d - pop_t()
                    acc[1] += 1
                    acc[4] += d
                    times[-1] += d
                    accs[-1][2] += 1
        return functools.wraps(fn)(wrapper)

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], new))
        setattr(owner, attr, new)

    def wrap_method(self, cls: type, attr: str, layer: str, mode: str = "") -> None:
        """Wrap ``cls.attr`` (defined on *cls* itself) under *layer*."""
        fn = cls.__dict__[attr]
        self._patch(cls, attr, self._wrapper(fn, self.acc(layer), mode=mode))

    def wrap_queue_method(self, cls: type, attr: str, mode: str = "") -> None:
        """Wrap a queue method; the layer label follows the instance's class."""
        fn = cls.__dict__[attr]
        by_type: Dict[type, List[float]] = {}

        def acc_of(args):
            kind = type(args[0])
            acc = by_type.get(kind)
            if acc is None:
                label = QUEUE_LABELS.get(kind.__name__, "queue.other")
                acc = by_type[kind] = self.acc(label)
            return acc

        self._patch(cls, attr, self._wrapper(fn, acc_of=acc_of, mode=mode))

    def wrap_function(self, fn: Callable, layer: str,
                      work: Optional[Callable] = None) -> None:
        """Wrap module function *fn* wherever a ``repro`` module binds it.

        Call sites that imported the name (``from .dde import
        integrate_dde``) hold their own reference, so every loaded module
        binding the same object is patched.
        """
        wrapped = self._wrapper(fn, self.acc(layer), work=work)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapped)

    def register_senders(self, cls: type) -> None:
        """Record every ``cls`` instance built (no span: construction only)."""
        init = cls.__dict__["__init__"]
        senders = self.senders

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            senders.append(obj)

        self._patch(cls, "__init__", __init__)

    def pause(self) -> None:
        """Put every original back, keeping the wrappers for :meth:`resume`."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def resume(self) -> None:
        """Re-install the wrappers after :meth:`pause`."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self.pause()
        self._patches.clear()

    # ------------------------------------------------------------------
    # calibration and results
    # ------------------------------------------------------------------
    def _probe(self, calls: int = 100_000, rounds: int = 5) -> Tuple[float, float]:
        """Per-call wrapper cost of a no-op method as ``(o_in, o_out)`` seconds.

        Times a loop of plain no-op method calls, the same loop through a
        wrapper, and an empty loop.  ``o_in`` is the wrapped no-op's
        recorded duration minus a plain call; ``o_out`` is the rest of
        the extra cost per call, which the caller's span absorbs.
        """
        class _Probe:
            def leaf(self) -> None:
                pass

        probe = _Probe()
        probe_acc = _new_acc()
        plain_leaf = _Probe.leaf
        wrapped_leaf = self._wrapper(plain_leaf, probe_acc)
        clock = self.clock
        loop = range(calls)
        samples_in, samples_out = [], []
        for _ in range(rounds):
            t0 = clock()
            for _ in loop:
                pass
            empty = clock() - t0
            _Probe.leaf = plain_leaf
            t0 = clock()
            for _ in loop:
                probe.leaf()
            bare = clock() - t0
            probe_acc[:] = _new_acc()
            _Probe.leaf = wrapped_leaf
            t0 = clock()
            for _ in loop:
                probe.leaf()
            wrapped = clock() - t0
            call = (bare - empty) / calls
            o_in = probe_acc[INCL] / calls - call
            samples_in.append(o_in)
            samples_out.append((wrapped - bare) / calls - o_in)
        return (max(0.0, statistics.median(samples_in)),
                max(0.0, statistics.median(samples_out)))

    def calibrate(self, point: Callable[[], Any], rounds: int = 5) -> Tuple[float, float]:
        """Set the per-call wrapper cost ``(o_in, o_out)``; returns it.

        The no-op probe gives the split between the two parts.  Its total
        is then scaled to real work: *point* runs alternately without and
        with the wrappers, and the traced run's extra time per wrapped
        call over the probe's estimate is the scale (median of *rounds*,
        at least 1).  A tight no-op loop keeps the wrapper hot in cache;
        interleaved with simulation it costs more.
        """
        o_in, o_out = self._probe()
        self.pause()
        point()  # warm imports and first-call paths
        ratios = []
        for _ in range(rounds):
            self.pause()
            t0 = self.clock()
            point()
            plain = self.clock() - t0
            self.resume()
            self.reset()
            t0 = self.clock()
            point()
            traced = self.clock() - t0
            calls = sum(acc[CALLS] for acc in self.layers.values())
            ratios.append((traced - plain) / (calls * (o_in + o_out)))
        self.reset()
        self.scale = max(1.0, statistics.median(ratios))
        self.o_in, self.o_out = o_in * self.scale, o_out * self.scale
        return self.o_in, self.o_out

    def raw(self) -> Dict[str, List[float]]:
        """Copy of every layer accumulator (picklable, JSON-friendly)."""
        return {name: list(acc) for name, acc in self.layers.items()}


def merge(into: Dict[str, List[float]], raw: Dict[str, List[float]]) -> None:
    """Add accumulator dict *raw* (e.g. a worker's) into *into*."""
    for name, acc in raw.items():
        mine = into.setdefault(name, _new_acc())
        for i, v in enumerate(acc):
            mine[i] += v


def layer_times(raw: Dict[str, List[float]], o_in: float, o_out: float) -> Dict[str, float]:
    """Calibrated self seconds per layer, clamped at zero."""
    return {
        name: max(0.0, acc[SELF] - acc[CALLS] * o_in - acc[CHILDREN] * o_out)
        for name, acc in raw.items()
    }


def wrapper_seconds(raw: Dict[str, List[float]], o_in: float, o_out: float) -> float:
    """Total calibrated wrapper cost of every span in *raw*."""
    return sum(acc[CALLS] for acc in raw.values()) * (o_in + o_out)


# ----------------------------------------------------------------------
# the layer map: which entry points belong to which layer
# ----------------------------------------------------------------------
def _member_steps(args, kwargs) -> int:
    """DDE member-steps of one ``integrate_dde[_batch]`` call."""
    x0, t_span, dt = args[1], args[2], args[3] if len(args) > 3 else kwargs["dt"]
    n_steps = int(round((t_span[1] - t_span[0]) / dt))
    shape = getattr(x0, "shape", None)
    members = shape[0] if shape is not None and len(shape) == 2 else 1
    return n_steps * members


def install() -> Tracer:
    """Build a tracer, wrap every layer's entry points and make it ACTIVE."""
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("a tracer is already installed")
    # import every layer first so module-level bindings exist to patch
    import repro.experiments.common  # noqa: F401
    import repro.runner
    import repro.runner.cache
    from repro.core.pert import PertSender
    from repro.core.pert_owd import PertOwdSender
    from repro.core.pert_pi import PertPiSender
    from repro.core.pert_rem import PertRemSender
    from repro.fluid import dde
    from repro.hybrid import background, fastforward
    from repro.sim import monitors
    from repro.sim.engine import get_engine_class
    from repro.sim.link import Link
    from repro.sim.node import Node
    from repro.sim.queues import PiQueue, QueueDiscipline, RedQueue, RemQueue
    from repro.tcp.base import TcpSender, TcpSink
    from repro.traffic import web

    tracer = Tracer()
    engine = get_engine_class()
    for attr in ("run", "schedule", "schedule_fire", "schedule_fire1",
                 "schedule_at", "advance_if_clear"):
        owner = next(k for k in engine.__mro__ if attr in k.__dict__)
        if attr == "advance_if_clear":
            tracer.wrap_method(owner, attr, "engine.inline", "true")
        else:
            tracer.wrap_method(owner, attr, "engine")
    for attr in ("send", "_tx_done"):
        tracer.wrap_method(Link, attr, "link")
    tracer.wrap_queue_method(QueueDiscipline, "enqueue")
    tracer.wrap_queue_method(QueueDiscipline, "dequeue")
    for cls in (RedQueue, PiQueue, RemQueue):
        for attr in ("admit", "dequeue", "_tick"):
            if attr in cls.__dict__:
                tracer.wrap_queue_method(cls, attr)
    tracer.wrap_method(Node, "receive", "node")
    tracer.wrap_method(TcpSender, "receive", "tcp.ack")
    tracer.wrap_method(TcpSink, "receive", "tcp.data")
    for attr in ("_begin", "_on_timeout"):
        tracer.wrap_method(TcpSender, attr, "tcp")
    tracer.wrap_method(TcpSink, "_flush_delack", "tcp")
    tracer.register_senders(TcpSender)
    for cls in (PertSender, PertOwdSender, PertPiSender, PertRemSender):
        if "on_ack" in cls.__dict__:
            tracer.wrap_method(cls, "on_ack", "pert")
    tracer.wrap_function(web.start_web_sessions, "traffic")
    for attr in ("_begin_page", "_fetch_next_object", "_object_done"):
        tracer.wrap_method(web.WebSession, attr, "traffic")
    tracer.wrap_function(dde.integrate_dde, "fluid", work=_member_steps)
    tracer.wrap_function(dde.integrate_dde_batch, "fluid", work=_member_steps)
    tracer.wrap_function(fastforward.fluid_fast_forward, "hybrid.fastforward")
    tracer.wrap_function(background.attach_background, "hybrid")
    for attr in ("start", "stop", "_tick", "_schedule_next"):
        tracer.wrap_method(background.BackgroundSource, attr, "hybrid")
    tracer.wrap_method(background.BackgroundSink, "receive", "hybrid")
    for cls in (monitors.QueueSampler, monitors.ThroughputSampler):
        tracer.wrap_method(cls, "_tick", "monitors")
    tracer.wrap_function(repro.runner.run_jobs, "runner")
    for attr in ("get", "put"):
        tracer.wrap_method(repro.runner.cache.ResultCache, attr, "runner.cache")
    ACTIVE = tracer
    return tracer


def uninstall() -> None:
    """Remove the ACTIVE tracer's wrappers."""
    global ACTIVE
    if ACTIVE is not None:
        ACTIVE.uninstall()
        ACTIVE = None
