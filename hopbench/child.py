"""One fresh interpreter of a benchmark run: a set-up probe or a measurement.

``python -m hopbench.child setup <workload> <seed> <size> <workdir>``
    Builds the workload's first point, stops at its first simulator run
    or DDE integrator call and prints ``time.monotonic()`` there (the
    parent took the same clock just before starting this interpreter),
    then times the reference kernel once.

``python -m hopbench.child measure <workload> <seed> <size> <seconds> <trace> <workdir>``
    Untraced (``trace`` 0): runs the workload's fixed set of points again
    and again until ``seconds`` would be exceeded, and prints the
    end-to-end figures, each set's time normalised to the reference
    kernel timed around it (``hopbench.reference``).  Traced (``trace``
    1): two untraced sets, then installs the tracer, calibrates it and
    runs traced sets for the rest of the time; prints the per-layer
    figures.

Either way the last stdout line is one JSON object.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

from . import checks, trace
from .reference import Normaliser, median_kernel
from .trace import CALLS, COUNT, INCL
from .workloads import (WORKERS, WORKLOADS, Context, SetupDone, calibration_point,
                        setup_probe)

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

QUEUE_LABELS = ("droptail", "red", "pi")

PER_LAYER: List[Tuple[str, str]] = [
    ("hops_per_s", "1/s"),
    ("dde_steps_per_s", "1/s"),
    ("cached_sweep_s", "s"),
    ("fail_frac", "ratio"),
    ("engine.events", "count"),
    ("engine.events_per_hop", "events/hop"),
    ("engine.inline_frac", "ratio"),
    ("engine.self_s", "s"),
    ("link.hops", "count"),
    ("link.self_s", "s"),
    ("link.ns_per_hop", "ns"),
] + [
    (f"queue.{label}.{name}", unit)
    for label in QUEUE_LABELS
    for name, unit in (("offers", "count"), ("admit_frac", "ratio"),
                       ("drops", "count"), ("marks", "count"),
                       ("self_s", "s"), ("ns_per_offer", "ns"))
] + [
    ("node.receives", "count"),
    ("node.self_s", "s"),
    ("node.ns_per_receive", "ns"),
    ("tcp.acks", "count"),
    ("tcp.data_pkts", "count"),
    ("tcp.rtx_frac", "ratio"),
    ("tcp.timeouts", "count"),
    ("tcp.self_s", "s"),
    ("tcp.ns_per_ack", "ns"),
    ("pert.acks", "count"),
    ("pert.early_responses", "count"),
    ("pert.self_s", "s"),
    ("pert.ns_per_ack", "ns"),
    ("traffic.flows_started", "count"),
    ("traffic.flows_done", "count"),
    ("traffic.self_s", "s"),
    ("fluid.member_steps", "count"),
    ("fluid.self_s", "s"),
    ("fluid.ns_per_member_step", "ns"),
    ("hybrid.fastforward_s", "s"),
    ("hybrid.bg_pkts", "count"),
    ("hybrid.self_s", "s"),
    ("monitors.self_s", "s"),
    ("runner.jobs", "count"),
    ("runner.cache_hits", "count"),
    ("runner.failed", "count"),
    ("runner.retries", "count"),
    ("runner.self_s", "s"),
    ("runner.cache_s", "s"),
    ("runner.busy_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.wrapper_s", "s"),
    ("trace.calib_scale", "ratio"),
    ("trace.wall_s", "s"),
]

#: tracer accumulators that make up each layer's self time
LAYER_KEYS = {
    "engine": ("engine", "engine.inline"),
    "link": ("link",),
    "node": ("node",),
    "tcp": ("tcp", "tcp.ack", "tcp.data"),
    "pert": ("pert",),
    "traffic": ("traffic",),
    "fluid": ("fluid",),
    "hybrid": ("hybrid", "hybrid.fastforward"),
    "monitors": ("monitors",),
    "runner": ("runner",),
}


def env_info() -> Dict[str, Any]:
    """Engine class, compiled tier, Python and numpy versions, nproc."""
    import numpy
    from repro.compiled import active_tier
    from repro.sim.engine import get_engine_class

    engine = get_engine_class().__name__
    return {
        "engine": engine,
        "compiled": active_tier() if engine == "CompiledSimulator" else None,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "python_minor": "%d.%d" % sys.version_info[:2],
        "numpy": numpy.__version__,
        "nproc": WORKERS,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _ns(seconds: float, count: float) -> float:
    return seconds * 1e9 / count if count else 0.0


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _work(res: Dict[str, Any]) -> int:
    return sum(s["work"] for s in res["summaries"] if s is not None)


def layer_metrics(res: Dict[str, Any], untraced: Dict[str, Any], name: str,
                  tracer: trace.Tracer) -> Dict[str, float]:
    """Per-layer figures of one traced set.

    Counts come from the tracer and the points' public counters; self
    times are calibrated with *tracer*'s wrapper cost.  The
    workload-level rates come from the *untraced* set of the same run.
    """
    o_in, o_out = tracer.o_in, tracer.o_out
    raw = {k: list(v) for k, v in res["layers"].items()}
    trace.merge(raw, res.get("worker_layers", {}))
    # the untraced work time, speed-normalised to the traced set's moment
    base = untraced["work_time"] * untraced["scale"] / res["scale"]
    selfs = trace.layer_times(raw, o_in, o_out)
    zero = [0.0, 0, 0, 0, 0.0]

    def acc(key: str) -> List[float]:
        return raw.get(key, zero)

    def self_of(layer: str) -> float:
        return sum(selfs.get(k, 0.0) for k in LAYER_KEYS.get(layer, (layer,)))

    points = [s for s in res["summaries"] if s is not None]
    fluid = name == "fluid-atlas"
    hops = 0 if fluid else sum(s["work"] for s in points)
    queues: Dict[str, List[int]] = {}
    senders: Dict[str, int] = {}
    for s in points:
        for label, row in s.get("queues", {}).items():
            mine = queues.setdefault(label, [0, 0, 0])
            for i, v in enumerate(row):
                mine[i] += v
        for key, v in s.get("senders", {}).items():
            senders[key] = senders.get(key, 0) + v
    runner = res.get("runner", {})
    m: Dict[str, float] = {
        "hops_per_s": 0.0 if fluid else _frac(_work(untraced), untraced["wall"]),
        "dde_steps_per_s": _frac(_work(untraced), untraced["wall"]) if fluid else 0.0,
        "cached_sweep_s": untraced.get("cached_wall", 0.0),
        "engine.events": sum(s["events"] for s in points),
        "engine.inline_frac": _frac(acc("engine.inline")[COUNT],
                                    acc("engine.inline")[CALLS]),
        "engine.self_s": self_of("engine"),
        "link.hops": hops,
        "link.self_s": self_of("link"),
    }
    m["engine.events_per_hop"] = _frac(m["engine.events"], hops)
    m["link.ns_per_hop"] = _ns(m["link.self_s"], hops)
    for label in QUEUE_LABELS:
        offers, drops, marks = queues.get(f"queue.{label}", (0, 0, 0))
        q = f"queue.{label}"
        m[f"{q}.offers"] = offers
        m[f"{q}.admit_frac"] = _frac(offers - drops, offers)
        m[f"{q}.drops"] = drops
        m[f"{q}.marks"] = marks
        m[f"{q}.self_s"] = self_of(q)
        m[f"{q}.ns_per_offer"] = _ns(m[f"{q}.self_s"], offers)
    m["node.receives"] = acc("node")[CALLS]
    m["node.self_s"] = self_of("node")
    m["node.ns_per_receive"] = _ns(m["node.self_s"], m["node.receives"])
    m["tcp.acks"] = acc("tcp.ack")[CALLS]
    m["tcp.data_pkts"] = acc("tcp.data")[CALLS]
    m["tcp.rtx_frac"] = _frac(senders.get("retransmits", 0), senders.get("pkts_sent", 0))
    m["tcp.timeouts"] = senders.get("timeouts", 0)
    m["tcp.self_s"] = self_of("tcp")
    m["tcp.ns_per_ack"] = _ns(m["tcp.self_s"], m["tcp.acks"])
    m["pert.acks"] = acc("pert")[CALLS]
    m["pert.early_responses"] = senders.get("early_responses", 0)
    m["pert.self_s"] = self_of("pert")
    m["pert.ns_per_ack"] = _ns(m["pert.self_s"], m["pert.acks"])
    m["traffic.flows_started"] = senders.get("flows_started", 0)
    m["traffic.flows_done"] = senders.get("flows_done", 0)
    m["traffic.self_s"] = self_of("traffic")
    m["fluid.member_steps"] = acc("fluid")[COUNT]
    m["fluid.self_s"] = self_of("fluid")
    m["fluid.ns_per_member_step"] = _ns(m["fluid.self_s"], m["fluid.member_steps"])
    m["hybrid.fastforward_s"] = acc("hybrid.fastforward")[INCL]
    m["hybrid.bg_pkts"] = sum(s.get("bg_pkts", 0) for s in points)
    m["hybrid.self_s"] = self_of("hybrid")
    m["monitors.self_s"] = self_of("monitors")
    m["runner.jobs"] = runner.get("jobs", 0)
    m["runner.cache_hits"] = runner.get("cache_hits", 0)
    m["runner.failed"] = runner.get("failed", 0)
    m["runner.retries"] = runner.get("retries", 0)
    m["runner.self_s"] = self_of("runner")
    m["runner.cache_s"] = self_of("runner.cache")
    m["runner.busy_frac"] = untraced.get("runner", {}).get("busy_frac", 0.0)
    # host seconds of the traced set, summed over its processes
    wall = res["total"]
    if "worker_layers" in res:
        wall += res["work_time"]
    m["trace.wall_s"] = wall
    m["trace.wrapper_s"] = trace.wrapper_seconds(raw, o_in, o_out)
    m["trace.calib_scale"] = tracer.scale
    m["trace.unattributed_s"] = wall - sum(selfs.values())
    m["trace.overhead_frac"] = res["work_time"] / base - 1.0
    return m


def _run_sets(workload, points, ctx: Context, seconds: float):
    """Run sets until the next one would overrun *seconds* (at least one).

    Returns the sets and each set's speed-normalising factor.
    """
    sets: List[Dict[str, Any]] = []
    scales: List[float] = []
    norm = Normaliser(WORKERS if workload.parallel else 1)
    start = time.perf_counter()
    norm.start()
    while True:
        sets.append(workload.run_set(points, ctx))
        scales.append(norm.scale())
        if time.perf_counter() - start + sets[-1]["total"] > seconds:
            return sets, scales, norm.kernels


def _pinned(name: str, seed: int, size: str, env: Dict[str, Any]):
    if seed != checks.DEFAULT_SEED or not WORKLOADS[name].pinned:
        return None
    pins = checks.load_pins().get(name, {}).get(size, {})
    return pins.get(checks.pin_key(env))


def measure(name: str, seed: int, size: str, seconds: float, traced: bool,
            workdir: str) -> Dict[str, Any]:
    """Measure one workload; returns the result object (see module doc)."""
    env = env_info()
    workload = WORKLOADS[name]
    points = workload.points(seed, size)
    ctx = Context(workdir=workdir)
    raw: Dict[str, float] = {}
    if not traced:
        sets, scales, kernels = _run_sets(workload, points, ctx, seconds)
        # the first set pays for lazy imports and first-call set-up
        timed = list(zip(sets, scales))[1:] or list(zip(sets, scales))
        metrics = {
            "wall_s": statistics.median(s["wall"] * k for s, k in timed),
            "work_per_s": statistics.median(_work(s) / (s["wall"] * k) for s, k in timed),
            "peak_rss_mb": peak_rss_mb(),
        }
        raw = {
            "wall_s": statistics.median(s["wall"] for s, _ in timed),
            "work_per_s": statistics.median(_work(s) / s["wall"] for s, _ in timed),
            "kernel_s": statistics.median(kernels),
            "sets": len(sets),
        }
    else:
        t0 = time.perf_counter()
        norm = Normaliser(WORKERS if workload.parallel else 1)
        try:
            norm.start()
            sets = []
            for _ in range(2):
                sets.append(workload.run_set(points, ctx))
                sets[-1]["scale"] = norm.scale()
            untraced = min(sets, key=lambda s: s["work_time"] * s["scale"])
            ctx.tracer = trace.install()
            ctx.tracer.calibrate(calibration_point)
            norm.start()  # re-anchor the kernel chain after calibrating
            traced_sets = []
            while True:
                ctx.tracer.reset()
                res = workload.run_set(points, ctx)
                res["layers"] = ctx.tracer.raw()
                res["scale"] = norm.scale()
                traced_sets.append(res)
                if time.perf_counter() - t0 + res["total"] > seconds:
                    break
        finally:
            trace.uninstall()
        sets += traced_sets
        per_set = [layer_metrics(r, untraced, name, ctx.tracer) for r in traced_sets]
        metrics = {}
        for key, unit in PER_LAYER:
            if key == "fail_frac":
                continue
            values = [m[key] for m in per_set]
            metrics[key] = values[0] if unit == "count" else statistics.median(values)
        counts_agree = all(
            m[key] == per_set[0][key] for m in per_set for key, unit in PER_LAYER
            if unit == "count")
    failed = checks.failed_points([s["summaries"] for s in sets],
                                  _pinned(name, seed, size, env))
    n_failed = sum(row.count(True) for row in failed)
    attempted = sum(len(row) for row in failed)
    if traced:
        metrics["fail_frac"] = n_failed / attempted
    correct = n_failed == 0 and (not traced or counts_agree)
    return {
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
        "raw": raw,
        "digests": [s["digest"] if s else None for s in sets[0]["summaries"]],
    }


def main(argv: List[str]) -> int:
    """Entry point; see the module docstring for the two commands."""
    command, name, seed, size = argv[0], argv[1], int(argv[2]), argv[3]
    workload = WORKLOADS[name]
    workdir = argv[6] if command == "measure" else argv[4]
    if command == "setup":
        try:
            setup_probe(workload, workload.points(seed, size), workdir)
        except SetupDone:
            reached = time.monotonic()
            # this interpreter's speed right after the probe, for normalising
            print(json.dumps({"reached": reached, "kernel": median_kernel()}))
            return 0
        print("hopbench: set-up probe never reached a run", file=sys.stderr)
        return 1
    result = measure(name, seed, size, float(argv[4]), argv[5] == "1", workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
