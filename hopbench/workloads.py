"""The benchmark's four workloads: what each runs and why it exists.

Load model: closed loop.  One process runs a workload's points one after
another, each starting when the previous one finishes; only
``aqm-web-sweep`` fans out, through ``repro.runner.run_jobs`` with one
worker per CPU.  A run's ``--seed`` is the only input: every point's
simulation seed (and the fluid grid's jitter) is derived from it, so the
same seed gives the same inputs.

Work units stay fixed under engine restructuring: packet *hops*
(departures from any ``Link``) for the packet workloads and DDE
*member-steps* (one RK4 step of one system) for ``fluid-atlas``.

Imports of ``repro`` stay inside functions, so the set-up probe of each
workload pays exactly for the modules that workload loads.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import checks, trace

#: sweep workers: one per CPU this process may run on (``nproc``)
WORKERS = len(os.sched_getaffinity(0))
#: the sweep's job function, passed to run_jobs as a module:function path
SWEEP_KIND = "hopbench.workloads:sweep_job"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``stresses`` and ``bypasses`` name the layers (by module) the
    workload does and does not exercise; a change to a bypassed layer
    is predicted to leave the workload's numbers unchanged.
    """

    name: str
    why: str
    stresses: Tuple[str, ...]
    bypasses: Tuple[str, ...]
    #: are default-seed digests pinned (False where results depend on
    #: the environment)
    pinned: bool
    points: Callable[[int, str], List[Dict[str, Any]]]
    run_set: Callable[[List[Dict[str, Any]], "Context"], Dict[str, Any]]
    #: does a set run on every CPU (the sweep's worker fan-out)?
    parallel: bool = False


@dataclass
class Context:
    """Where a set runs: scratch directory and the tracer, if tracing."""

    workdir: str
    tracer: Optional[trace.Tracer] = None


def point_seed(workload: str, seed: int, index: int) -> int:
    """Simulation seed of point *index*, derived from the workload seed."""
    return random.Random(f"{workload}/{seed}/{index}").randrange(1, 2**31 - 1)


def _log_failure(what: str) -> None:
    print(f"hopbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def _take_senders(tracer: Optional[trace.Tracer]) -> Optional[List[Any]]:
    """Senders the last point built (traced runs), leaving the list empty."""
    if tracer is None:
        return None
    senders = list(tracer.senders)
    tracer.senders.clear()
    return senders


# ----------------------------------------------------------------------
# packet workloads run in-process
# ----------------------------------------------------------------------
def run_packet_set(points: List[Dict[str, Any]], ctx: Context) -> Dict[str, Any]:
    """Run *points* back to back through ``run_dumbbell``.

    ``wall`` counts each point from its first ``Simulator.run``: what
    comes before (imports, topology and flows, hybrid's fluid
    fast-forward) is set-up, which ``setup_s`` measures.
    """
    from repro.experiments.common import run_dumbbell
    from repro.sim.engine import get_engine_class

    engine = get_engine_class()
    plain_run = engine.run
    first_run: List[float] = []

    def run(sim, *args, **kwargs):
        if not first_run:
            first_run.append(time.perf_counter())
        return plain_run(sim, *args, **kwargs)

    summaries: List[Optional[Dict[str, Any]]] = []
    wall = 0.0
    start = time.perf_counter()
    engine.run = run
    try:
        for params in points:
            first_run.clear()
            try:
                result = run_dumbbell(collector=False, keep_refs=True, **params)
                wall += time.perf_counter() - first_run[0]
                summaries.append(checks.summarize_dumbbell(result, _take_senders(ctx.tracer)))
            except Exception:  # noqa: BLE001 - a failed point is counted, not fatal
                _log_failure(f"point {params}")
                summaries.append(None)
            result = None  # let the point's simulator go before the next one
    finally:
        engine.run = plain_run
    total = time.perf_counter() - start
    return {"summaries": summaries, "wall": wall, "total": total, "work_time": total}


def pert_dumbbell_points(seed: int, size: str) -> List[Dict[str, Any]]:
    """PERT over DropTail: long-lived forward flows plus a few reverse."""
    if size == "small":
        grid, shape = (0.06,), dict(n_fwd=4, n_rev=1, duration=2.0, warmup=0.5)
    else:
        grid, shape = (0.04, 0.06, 0.08, 0.10), dict(n_fwd=8, n_rev=2,
                                                     duration=6.0, warmup=2.0)
    return [
        dict(scheme="pert", bandwidth=8e6, rtt=rtt,
             seed=point_seed("pert-dumbbell", seed, i), **shape)
        for i, rtt in enumerate(grid)
    ]


def hybrid_points(seed: int, size: str) -> List[Dict[str, Any]]:
    """The hybrid point: 10^5 represented flows, a few PERT foreground flows.

    The foreground flows start within 10 ms of each other: on the 80 Gb/s
    bottleneck they are still in slow start when the run ends, so a wider
    start window would make the hop count swing with the seed.
    """
    n_flows, n_fg, duration = (10_000, 2, 0.6) if size == "small" else (100_000, 4, 0.8)
    background = {
        "model": "pert_red",
        "share": (n_flows - n_fg) / n_flows,
        "n_flows": n_flows - n_fg,
        "aggregate": n_flows // 25,
        "arrival": "paced",
    }
    return [dict(scheme="pert", bandwidth=n_flows * 0.8e6, background=background,
                 rtt=0.05, n_fwd=n_fg, start_window=0.01, duration=duration,
                 warmup=duration / 3.0, seed=point_seed("hybrid-1e5", seed, 0))]


# ----------------------------------------------------------------------
# the sweep: run_jobs over a temporary cache, cold then all-hit
# ----------------------------------------------------------------------
def sweep_job(params: Dict[str, Any]) -> Dict[str, Any]:
    """Sweep job: one ``run_dumbbell`` point, called as the ``dumbbell`` job is.

    Returns the point's summary instead of the flattened result, plus
    the job's own wall time and, under tracing, the worker's span
    totals, which would otherwise die with the forked worker.
    """
    from repro.experiments.common import run_dumbbell

    tracer = trace.ACTIVE
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter()
    result = run_dumbbell(keep_refs=True, **params)
    summary = checks.summarize_dumbbell(result, _take_senders(tracer))
    summary["job_wall"] = time.perf_counter() - t0
    if tracer is not None:
        summary["layers"] = tracer.raw()
    return summary


def run_sweep_set(points: List[Dict[str, Any]], ctx: Context) -> Dict[str, Any]:
    """Cold sweep into a fresh cache, then the same grid served from it."""
    from repro.runner import JobSpec, run_jobs

    specs = [JobSpec(kind=SWEEP_KIND, params=p) for p in points]
    cache = tempfile.mkdtemp(prefix="cache-", dir=ctx.workdir)
    stats: Dict[str, Any] = {}
    try:
        t0 = time.perf_counter()
        cold = run_jobs(specs, workers=WORKERS, cache=cache, bus=False,
                        progress=lambda s: stats.__setitem__("cold", s))
        t1 = time.perf_counter()
        warm = run_jobs(specs, workers=WORKERS, cache=cache, bus=False,
                        progress=lambda s: stats.__setitem__("warm", s))
        t2 = time.perf_counter()
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    summaries: List[Optional[Dict[str, Any]]] = []
    worker_layers: Dict[str, List[float]] = {}
    for fresh, hit in zip(cold, warm):
        if not fresh.ok:
            print(f"hopbench: job {fresh.spec.describe()} failed: {fresh.error}",
                  file=sys.stderr)
            summaries.append(None)
            continue
        summary = dict(fresh.value)
        if not (hit.ok and hit.cached and _same(hit.value, fresh.value)):
            summary["violations"] = summary["violations"] + [
                "cached re-run differs from the cold run"]
        trace.merge(worker_layers, summary.pop("layers", {}))
        summaries.append(summary)
    cs, ws = stats["cold"], stats["warm"]
    return {
        "summaries": summaries,
        "wall": t1 - t0,
        "cached_wall": t2 - t1,
        "total": time.perf_counter() - t0,
        # the points' own work, summed over the workers
        "work_time": sum(s["job_wall"] for s in summaries if s is not None),
        "worker_layers": worker_layers,
        "runner": {
            "jobs": cs.total + ws.total,
            "cache_hits": cs.cached + ws.cached,
            "failed": cs.failed + ws.failed,
            "retries": cs.retries + ws.retries,
            "busy_frac": cs.wall_time / (WORKERS * (t1 - t0)),
        },
    }


def _same(a: Any, b: Any) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def sweep_points(seed: int, size: str) -> List[Dict[str, Any]]:
    """Router RED/PI with ECN, web sessions plus two long flows, RTT grid."""
    if size == "small":
        grid, shape = (0.08,), dict(web_sessions=5, duration=2.0, warmup=0.5)
    else:
        grid, shape = (0.04, 0.08, 0.12, 0.16), dict(web_sessions=20, duration=5.0,
                                                      warmup=1.5)
    points = []
    for scheme in ("sack-red-ecn", "sack-pi-ecn"):
        for rtt in grid:
            i = len(points)
            points.append(dict(scheme=scheme, bandwidth=8e6, rtt=rtt, n_fwd=2,
                               seed=point_seed("aqm-web-sweep", seed, i), **shape))
    return points


# ----------------------------------------------------------------------
# fluid atlas: batched PERT/RED, scalar TCP/RED and PERT/PI
# ----------------------------------------------------------------------
def fluid_points(seed: int, size: str) -> List[Dict[str, Any]]:
    """An (N, C, R) grid, R jittered by the seed, for three fluid models."""
    rng = random.Random(f"fluid-atlas/{seed}")

    def rtt(base: float) -> float:
        return round(base * rng.uniform(0.95, 1.05), 6)

    if size == "small":
        ns, cs, rs, duration = (5,), (100.0,), (0.1, 0.2), 1.0
    else:
        ns, cs, rs, duration = (5, 10, 20), (100.0, 250.0), (0.08, 0.12, 0.16, 0.2), 3.0
    batch = [dict(n_flows=n, capacity=c, rtt=rtt(r), clamp=True)
             for n in ns for c in cs for r in rs]
    scalar_rs = rs[:1] if size == "small" else rs[1:]
    points = [dict(model="pert_red", members=batch, duration=duration, dt=1e-3)]
    for model in ("tcp_red", "pert_pi"):
        for r in scalar_rs:
            points.append(dict(model=model, members=[dict(n_flows=ns[0], capacity=cs[0],
                                                          rtt=rtt(r), clamp=True)],
                               duration=duration, dt=1e-3))
    return points


def run_fluid_set(points: List[Dict[str, Any]], ctx: Context) -> Dict[str, Any]:
    """Integrate each point: the batch through ``simulate_batch``, the rest scalar."""
    from repro.fluid import make_fluid_model
    from repro.fluid.pert_red import simulate_batch

    summaries: List[Optional[Dict[str, Any]]] = []
    wall = 0.0
    start = time.perf_counter()
    for p in points:
        try:
            t0 = time.perf_counter()
            models = [make_fluid_model(p["model"], **m) for m in p["members"]]
            if len(models) > 1:
                end = simulate_batch(models, p["duration"], dt=p["dt"]).y[-1]
            else:
                end = [models[0].simulate(p["duration"], dt=p["dt"]).y[-1]]
            wall += time.perf_counter() - t0
            steps = int(round(p["duration"] / p["dt"])) * len(models)
            summaries.append(checks.summarize_fluid(p["model"], p["members"], end, steps))
        except Exception:  # noqa: BLE001 - a failed point is counted, not fatal
            _log_failure(f"fluid point {p['model']}")
            summaries.append(None)
    total = time.perf_counter() - start
    return {"summaries": summaries, "wall": wall, "total": total, "work_time": total}


# ----------------------------------------------------------------------
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="pert-dumbbell",
        why="the paper's packet path with the AQM law at the end host: "
            "PERT over DropTail, data and ACKs sharing both bottleneck queues",
        stresses=("sim.engine", "sim.link", "sim.queues (droptail)", "sim.node",
                  "tcp", "core (PERT)"),
        bypasses=("runner", "fluid", "hybrid", "sim.queues (red, pi)", "traffic"),
        pinned=True,
        points=pert_dumbbell_points,
        run_set=run_packet_set,
    ),
    Workload(
        name="aqm-web-sweep",
        why="the same AQM law at the router (RED/PI admit per packet, PERT "
            "idle) with short web flows, run cold then cached through the runner",
        stresses=("sim.queues (red, pi)", "traffic", "tcp", "runner",
                  "runner.cache", "sim.engine", "sim.link", "sim.node"),
        bypasses=("core (PERT)", "fluid", "hybrid"),
        pinned=True,
        points=sweep_points,
        run_set=run_sweep_set,
        parallel=True,
    ),
    Workload(
        name="hybrid-1e5",
        why="10^5 represented flows: fluid fast-forward, rate export and "
            "macro-packet injection into a high-rate queue with inline departures",
        stresses=("hybrid", "fluid (fast-forward)", "sim.engine (inline departures)",
                  "sim.link", "sim.queues (droptail)", "core (PERT)"),
        bypasses=("runner", "traffic", "sim.queues (red, pi)"),
        pinned=False,  # its values depend on the environment
        points=hybrid_points,
        run_set=run_packet_set,
    ),
    Workload(
        name="fluid-atlas",
        why="the fluid layer behind fig 13 and Theorem 1 alone: batched and "
            "scalar DDE integration over an (N, C, R) grid, zero packet events",
        stresses=("fluid",),
        bypasses=("sim.*", "tcp", "core (PERT)", "traffic", "hybrid", "runner"),
        pinned=True,
        points=fluid_points,
        run_set=run_fluid_set,
    ),
)}


def calibration_point() -> None:
    """The tracer's calibration work: the small ``pert-dumbbell`` point."""
    from repro.experiments.common import run_dumbbell

    run_dumbbell(collector=False, **pert_dumbbell_points(checks.DEFAULT_SEED, "small")[0])


# ----------------------------------------------------------------------
# set-up probe
# ----------------------------------------------------------------------
class SetupDone(BaseException):
    """Raised at the first simulator run or DDE integrator call.

    A ``BaseException``, so the runner's per-job error handling does not
    swallow it.
    """


def _stop(*args: Any, **kwargs: Any) -> None:
    raise SetupDone


def setup_probe(workload: Workload, points: List[Dict[str, Any]], workdir: str) -> None:
    """Build the workload's first point and stop at its first run.

    Raises :class:`SetupDone` there.  Packet workloads stop at
    ``Simulator.run`` (after hybrid's fluid fast-forward, which runs at
    build time); the sweep gets there through a serial ``run_jobs`` of
    its first job; ``fluid-atlas`` stops at its first integrator call.
    """
    ctx = Context(workdir=workdir)
    if workload.name == "fluid-atlas":
        from repro.fluid import dde

        for fn in (dde.integrate_dde, dde.integrate_dde_batch):
            for name, module in list(sys.modules.items()):
                if module is not None and name.startswith("repro"):
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, _stop)
        workload.run_set(points[:1], ctx)
        return
    from repro.sim.engine import get_engine_class

    engine = get_engine_class()
    engine.run = _stop
    if workload.name == "aqm-web-sweep":
        from repro.runner import JobSpec, run_jobs

        run_jobs([JobSpec(kind=SWEEP_KIND, params=points[0])], workers=0,
                 cache=False, bus=False)
        return
    from repro.experiments.common import run_dumbbell

    run_dumbbell(collector=False, **points[0])
