"""Shared experiment harness: the paper's dumbbell methodology.

One call to :func:`run_dumbbell` reproduces one data point of the
Section 4 figures: build the single-bottleneck topology, start long-term
flows (optionally in both directions) plus web sessions, run past a
warm-up period, and measure — over the steady-state window only, as the
paper does — the four headline metrics:

* normalized average bottleneck queue length,
* bottleneck drop rate,
* bottleneck utilization,
* Jain fairness index of the forward long-term flows' goodputs.

The paper's buffer-sizing rule is applied: buffer = bandwidth-delay
product, with a floor of twice the number of flows.

The run is phased — resolve parameters, build, warm up, measure — with
the live objects carried between phases in a :class:`_DumbbellState`.
That split is what makes runs checkpointable: when the executor installs
a checkpoint slot (:mod:`repro.snapshot.runtime`), the state object is
snapshotted together with the simulator at periodic boundaries, and a
retried attempt resumes from the last checkpoint instead of starting
over.  Because ``sim.run(until=...)`` chunking is bit-identical to a
single call, a resumed run produces exactly the result an uninterrupted
one would (pinned by the resume goldens in ``tests/snapshot``).  The
same split powers warm-started sweeps: :func:`warm_dumbbell_bytes`
captures the state right after warm-up and
:func:`run_dumbbell_warm` measures any number of divergent durations
from clones of it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..metrics.fairness import jain_index
from ..obs import runtime as obs_runtime
from ..sim.engine import Simulator
from ..sim.monitors import DropLog, LinkWindow, QueueSampler
from ..sim.topology import Dumbbell, make_topology
from ..snapshot import runtime as snapshot_runtime
from ..snapshot.core import capture_bytes, restore_bytes
from ..tcp.base import TcpSender, TcpSink, connect_flow
from ..traffic.web import start_web_sessions
from .scenarios import Scheme, get_scheme, scheme_sender_kwargs

__all__ = [
    "DumbbellResult",
    "run_dumbbell",
    "warm_dumbbell_bytes",
    "run_dumbbell_warm",
    "access_delays_for_rtts",
    "bdp_packets",
]

#: generous FIFO for access links and the reverse bottleneck direction
_ACCESS_BUFFER = 5000


def bdp_packets(bandwidth_bps: float, rtt: float, pkt_size: int) -> int:
    """Bandwidth-delay product in packets (at least 1)."""
    return max(1, int(round(bandwidth_bps * rtt / (8.0 * pkt_size))))


def access_delays_for_rtts(
    rtts: List[float], bottleneck_delay: float
) -> List[float]:
    """Per-host access delay so flow i's two-way propagation is rtts[i].

    One-way path = access + bottleneck + access, with the two access
    links sharing the remaining budget equally.
    """
    delays = []
    for rtt in rtts:
        residual = rtt / 2.0 - bottleneck_delay
        if residual <= 0:
            raise ValueError(
                f"rtt {rtt} too small for bottleneck delay {bottleneck_delay}"
            )
        delays.append(residual / 2.0)
    return delays


@dataclass
class DumbbellResult:
    """Steady-state metrics of one dumbbell run."""

    scheme: str
    bandwidth: float
    rtt: float
    n_fwd: int
    n_rev: int
    web_sessions: int
    buffer_pkts: int
    mean_queue_pkts: float
    norm_queue: float
    drop_rate: float
    mark_rate: float
    utilization: float
    jain: float
    flow_goodputs_bps: List[float] = field(default_factory=list)
    early_responses: int = 0
    timeouts: int = 0
    events_processed: int = 0
    #: fluid background coupling (hybrid runs; see :mod:`repro.hybrid`)
    background_model: Optional[str] = None
    background_share: float = 0.0
    background_pkts: int = 0
    extras: Dict = field(default_factory=dict)


def run_dumbbell(
    scheme: str,
    bandwidth: float,
    rtt: float = 0.060,
    n_fwd: int = 10,
    n_rev: int = 0,
    web_sessions: int = 0,
    duration: float = 60.0,
    warmup: float = 20.0,
    seed: int = 1,
    pkt_size: int = 1000,
    buffer_pkts: Optional[int] = None,
    rtts: Optional[List[float]] = None,
    start_window: Optional[float] = None,
    record_rtt_flow: Optional[int] = None,
    queue_sample_interval: float = 0.02,
    background=None,
    keep_refs: bool = False,
    collector=None,
) -> DumbbellResult:
    """Run one dumbbell experiment point and return steady-state metrics.

    Parameters
    ----------
    scheme:
        Name from :data:`repro.experiments.scenarios.SCHEMES`.
    bandwidth, rtt:
        Bottleneck bandwidth (bps) and the flows' two-way propagation
        delay (seconds).  ``rtts`` (one per forward flow) overrides
        ``rtt`` for heterogeneous-RTT experiments (Table 1).
    n_fwd, n_rev:
        Long-lived flows in the forward / reverse direction.
    web_sessions:
        Background web sessions sharing the forward bottleneck.
    duration, warmup:
        Total simulated seconds and the measurement-window start.
    buffer_pkts:
        Bottleneck buffer; defaults to the paper's rule (BDP with a floor
        of twice the flow count).
    record_rtt_flow:
        Forward-flow index whose per-ACK RTT trace and loss events are
        retained (``extras["rtt_trace"]``, ``extras["flow_losses"]``,
        plus a fine-grained queue sampler in ``extras["queue_sampler"]``).
    background:
        Optional fluid-driven background load at the bottleneck — a
        :class:`repro.hybrid.BackgroundLoad` or its dict form (see
        :mod:`repro.hybrid`).  ``None`` or a zero ``share`` runs the
        pure packet experiment, bit-identically to omitting the
        argument.
    keep_refs:
        Also return live simulator objects in ``extras`` (for tests).
    collector:
        Optional :class:`repro.obs.Collector` to attach to the
        bottleneck queues, link and senders.  ``None`` uses the active
        job observation's collector (if the runner enabled one); pass
        ``False`` to force observability off.  Attachment is passive —
        results are identical with or without a collector.  On a
        checkpoint resume, the restored run keeps the collector it was
        built with.
    """
    params = _resolve_params(
        scheme=scheme, bandwidth=bandwidth, rtt=rtt, n_fwd=n_fwd, n_rev=n_rev,
        web_sessions=web_sessions, duration=duration, warmup=warmup, seed=seed,
        pkt_size=pkt_size, buffer_pkts=buffer_pkts, rtts=rtts,
        start_window=start_window, record_rtt_flow=record_rtt_flow,
        queue_sample_interval=queue_sample_interval, background=background,
    )
    if collector is None:
        collector = obs_runtime.active_collector()
    elif collector is False:
        collector = None

    ckpt = snapshot_runtime.active_checkpoint()
    state = _resume_or_build(params, collector, ckpt)
    _warm_dumbbell(state, ckpt)
    _measure_dumbbell(state, ckpt)
    return _dumbbell_result(state, keep_refs=keep_refs)


# ----------------------------------------------------------------------
# the phased machinery behind run_dumbbell
# ----------------------------------------------------------------------
@dataclass
class _DumbbellState:
    """Everything a dumbbell run carries between phases.

    This is exactly the harness state a checkpoint captures alongside
    the simulator: the resolved identifying parameters (so a resumed
    attempt can refuse a checkpoint written by a different run) plus the
    live topology, flows, monitors and baselines the measure phase
    needs.  ``goodput0 is None`` doubles as "the measurement window has
    not opened yet".
    """

    params: Dict[str, Any]
    sim: Simulator
    db: Dumbbell
    fwd_flows: List[Tuple[TcpSender, TcpSink]]
    rev_flows: List[Tuple[TcpSender, TcpSink]]
    window: LinkWindow
    drop_log: DropLog
    sampler: QueueSampler
    collector: Any = None
    goodput0: Optional[List[int]] = None
    #: live fluid-background injector (None for pure packet runs)
    bg_source: Any = None


def _resolve_params(
    *, scheme, bandwidth, rtt, n_fwd, n_rev, web_sessions, duration, warmup,
    seed, pkt_size, buffer_pkts, rtts, start_window, record_rtt_flow,
    queue_sample_interval, background=None,
) -> Dict[str, Any]:
    """Validate and resolve the run parameters into their canonical form.

    The resolved dict fully determines the simulation, so it is also the
    identity a checkpoint resume compares against.
    """
    get_scheme(scheme)  # fail fast on unknown names
    if rtts is not None and len(rtts) != n_fwd:
        raise ValueError("rtts must have one entry per forward flow")
    flow_rtts = list(rtts) if rtts is not None else [rtt] * max(n_fwd, 1)
    base_rtt = min(flow_rtts)
    # The paper sizes the buffer to the bandwidth-delay product; with
    # heterogeneous RTTs we use the mean RTT as the representative delay.
    mean_rtt = sum(flow_rtts) / len(flow_rtts)
    if buffer_pkts is None:
        buffer_pkts = max(
            bdp_packets(bandwidth, mean_rtt, pkt_size), 2 * max(1, n_fwd), 8
        )
    if start_window is None:
        start_window = min(5.0, warmup / 2.0)
    # Normalise the background spec; a zero share collapses to None so
    # the resolved params (and therefore the build) are bit-identical
    # to a run that never mentioned a background at all.
    from ..hybrid.background import BackgroundLoad  # local: avoids a cycle

    bg = BackgroundLoad.from_spec(background)
    return dict(
        scheme=scheme,
        bandwidth=bandwidth,
        flow_rtts=flow_rtts,
        base_rtt=base_rtt,
        n_fwd=n_fwd,
        n_rev=n_rev,
        web_sessions=web_sessions,
        duration=duration,
        warmup=warmup,
        seed=seed,
        pkt_size=pkt_size,
        buffer_pkts=buffer_pkts,
        start_window=start_window,
        record_rtt_flow=record_rtt_flow,
        queue_sample_interval=queue_sample_interval,
        background=None if bg is None else bg.canonical(),
    )


def _assemble_dumbbell(params: Dict[str, Any], collector) -> _DumbbellState:
    """Construct topology, flows, traffic and monitors for *params*.

    The construction order below is load-bearing: components claim RNG
    streams and event sequence numbers as they are built, so any
    reordering changes the simulation.  Checkpoint/warm-start correctness
    relies on this function being a pure function of *params*.
    """
    spec: Scheme = get_scheme(params["scheme"])
    bandwidth = params["bandwidth"]
    pkt_size = params["pkt_size"]
    n_fwd, n_rev = params["n_fwd"], params["n_rev"]
    base_rtt = params["base_rtt"]
    buffer_pkts = params["buffer_pkts"]
    start_window = params["start_window"]
    record_rtt_flow = params["record_rtt_flow"]

    n_hosts = max(n_fwd, n_rev, 1) + 1  # +1 pair reserved for web traffic
    bottleneck_delay = base_rtt / 2.0 * 0.5
    fwd_access = access_delays_for_rtts(params["flow_rtts"], bottleneck_delay)
    # pad access-delay lists up to the host count
    pad = [fwd_access[0] if fwd_access else 1e-3]
    left_delays = (fwd_access + pad * n_hosts)[:n_hosts]
    right_delays = list(left_delays)

    sim = Simulator(seed=params["seed"])
    sim.profiler = obs_runtime.active_profiler()
    obs_runtime.note_simulator(sim)
    sender_kwargs = scheme_sender_kwargs(spec, bandwidth, pkt_size, n_fwd, base_rtt)

    def fwd_qdisc():
        return spec.make_qdisc(sim, buffer_pkts, bandwidth, pkt_size, n_fwd, base_rtt)

    def rev_qdisc():
        # The bottleneck is symmetric: reverse-direction data (and the
        # forward flows' ACKs) see the same buffer and discipline.
        return spec.make_qdisc(sim, buffer_pkts, bandwidth, pkt_size, n_rev, base_rtt)

    db = make_topology(
        "dumbbell",
        sim,
        n_left=n_hosts,
        n_right=n_hosts,
        bottleneck_bw=bandwidth,
        bottleneck_delay=bottleneck_delay,
        qdisc_fwd=fwd_qdisc,
        qdisc_rev=rev_qdisc,
        access_delays_left=left_delays,
        access_delays_right=right_delays,
    )

    flow_ids = itertools.count()
    rng = sim.stream("starts")

    fwd_flows: List[Tuple[TcpSender, TcpSink]] = []
    for i in range(n_fwd):
        fid = next(flow_ids)
        sender, sink = connect_flow(
            sim, db.left[i], db.right[i], flow_id=fid, sender_cls=spec.sender_cls,
            pkt_size=pkt_size, record_rtt=(record_rtt_flow == i), **sender_kwargs,
        )
        sender.start(at=rng.uniform(0.0, start_window))
        fwd_flows.append((sender, sink))
    rev_flows: List[Tuple[TcpSender, TcpSink]] = []
    for i in range(n_rev):
        fid = next(flow_ids)
        sender, sink = connect_flow(
            sim, db.right[i], db.left[i], flow_id=fid, sender_cls=spec.sender_cls,
            pkt_size=pkt_size, **sender_kwargs,
        )
        sender.start(at=rng.uniform(0.0, start_window))
        rev_flows.append((sender, sink))

    if params["web_sessions"] > 0:
        start_web_sessions(
            sim,
            params["web_sessions"],
            server=db.left[n_hosts - 1],
            client=db.right[n_hosts - 1],
            flow_ids=flow_ids,
            rng=sim.stream("web-starts"),
            start_window=start_window,
            sender_cls=spec.sender_cls,
            pkt_size=pkt_size,
            **sender_kwargs,
        )

    window = LinkWindow(sim, db.fwd)
    drop_log = DropLog(db.bottleneck_queue)
    sampler = QueueSampler(
        sim, db.bottleneck_queue,
        interval=params["queue_sample_interval"] if record_rtt_flow is None else 0.005,
    )

    if collector is not None:
        collector.attach_queue(db.bottleneck_queue, "bottleneck.fwd", bandwidth=bandwidth)
        collector.attach_queue(db.rev.qdisc, "bottleneck.rev", bandwidth=bandwidth)
        collector.attach_link(db.fwd, "bottleneck.fwd")
        for sender, _ in fwd_flows + rev_flows:
            collector.attach_sender(sender)

    # The fluid background attaches strictly after everything above, so
    # the pure-packet construction prefix (streams, event sequence
    # numbers) is untouched — a run without a background is bit-identical
    # to one built before this feature existed.
    bg_source = None
    if params.get("background"):
        from ..hybrid.background import BackgroundLoad, attach_background

        bg_source = attach_background(
            sim, db,
            BackgroundLoad(**params["background"]),
            bandwidth=bandwidth,
            pkt_size=pkt_size,
            base_rtt=base_rtt,
            duration=params["duration"],
        )

    return _DumbbellState(
        params=params, sim=sim, db=db, fwd_flows=fwd_flows, rev_flows=rev_flows,
        window=window, drop_log=drop_log, sampler=sampler, collector=collector,
        bg_source=bg_source,
    )


def _resume_or_build(params, collector, ckpt) -> _DumbbellState:
    """Restore the checkpoint slot's state, or build fresh.

    A restored state is accepted only if its resolved parameters match
    this call exactly — the checkpoint file is keyed by spec hash when
    the runner installs it, but direct callers get the same guarantee.
    """
    if ckpt is not None:
        resumed = ckpt.resume()
        if resumed is not None:
            _sim, state = resumed
            if isinstance(state, _DumbbellState) and state.params == params:
                state.sim.profiler = obs_runtime.active_profiler()
                obs_runtime.note_simulator(state.sim)
                if state.collector is not None:
                    obs_runtime.adopt_collector(state.collector)
                return state
            ckpt.reject()
    t0 = time.monotonic()
    state = _assemble_dumbbell(params, collector)
    active = obs_runtime.active()
    if active is not None:
        active.add_phase("setup", time.monotonic() - t0)
    return state


def _advance(state: _DumbbellState, until: float, ckpt) -> None:
    """Run the simulation to *until*, checkpointing at interval boundaries.

    Chunked ``run(until=...)`` calls are bit-identical to a single call
    (the engine's pop-first loop pushes the one horizon-crossing event
    back), so checkpoint cadence never changes results.  No checkpoint is
    written at *until* itself — phase ends either lead straight into more
    simulation or into job completion, where the file is deleted anyway.
    """
    sim = state.sim
    if ckpt is None:
        sim.run(until=until)
        return
    while sim.now < until:
        target = min(until, sim.now + ckpt.interval)
        sim.run(until=target)
        if target < until:
            ckpt.save(sim, state)


def _warm_dumbbell(state: _DumbbellState, ckpt=None) -> None:
    """Run to the end of warm-up and open the measurement window.

    Idempotent across resumes: a state restored mid-measure (window
    already open, ``goodput0`` recorded) passes straight through.
    """
    warmup = state.params["warmup"]
    if state.sim.now < warmup:
        with obs_runtime.phase("warmup"):
            _advance(state, warmup, ckpt)
    if state.goodput0 is None:
        state.window.open()
        state.goodput0 = [sink.rcv_next for _, sink in state.fwd_flows]


def _measure_dumbbell(state: _DumbbellState, ckpt=None) -> None:
    """Run the steady-state window to ``duration`` and close it."""
    with obs_runtime.phase("measure"):
        _advance(state, state.params["duration"], ckpt)
    state.window.close()
    if state.collector is not None:
        state.collector.finalize(state.sim)


def _dumbbell_result(state: _DumbbellState, keep_refs: bool = False) -> DumbbellResult:
    """Compute the steady-state metrics from a measured state."""
    p = state.params
    span = p["duration"] - p["warmup"]
    goodputs = [
        (sink.rcv_next - g0) * p["pkt_size"] * 8.0 / span
        for (_, sink), g0 in zip(state.fwd_flows, state.goodput0)
    ]
    mean_q = state.sampler.mean(start=p["warmup"], end=p["duration"])
    all_senders = [s for s, _ in state.fwd_flows + state.rev_flows]
    result = DumbbellResult(
        scheme=p["scheme"],
        bandwidth=p["bandwidth"],
        rtt=p["base_rtt"],
        n_fwd=p["n_fwd"],
        n_rev=p["n_rev"],
        web_sessions=p["web_sessions"],
        buffer_pkts=p["buffer_pkts"],
        mean_queue_pkts=mean_q,
        norm_queue=mean_q / p["buffer_pkts"],
        drop_rate=state.window.drop_rate,
        mark_rate=state.window.mark_rate,
        utilization=state.window.utilization,
        jain=jain_index(goodputs) if goodputs else 0.0,
        flow_goodputs_bps=goodputs,
        early_responses=sum(getattr(s, "early_responses", 0) for s in all_senders),
        timeouts=sum(s.timeouts for s in all_senders),
        events_processed=state.sim.events_processed,
    )
    bg = p.get("background")
    if bg and state.bg_source is not None:
        result.background_model = bg["model"]
        result.background_share = bg["share"]
        result.background_pkts = state.bg_source.pkts_sent
        result.extras["background_offered_pkts"] = state.bg_source.offered_pkts
        if state.bg_source.sink is not None:
            result.extras["background_delivered_pkts"] = (
                state.bg_source.sink.pkts_received
            )
    if p["record_rtt_flow"] is not None:
        tagged = state.fwd_flows[p["record_rtt_flow"]][0]
        result.extras["rtt_trace"] = tagged.rtt_trace
        result.extras["flow_losses"] = tagged.loss_events
        result.extras["queue_drops"] = state.drop_log.times()
        result.extras["queue_sampler"] = state.sampler
        result.extras["queue_stats"] = state.db.bottleneck_queue.stats
    if keep_refs:
        result.extras["sim"] = state.sim
        result.extras["dumbbell"] = state.db
        result.extras["fwd_flows"] = state.fwd_flows
        result.extras["rev_flows"] = state.rev_flows
    return result


# ----------------------------------------------------------------------
# warm-start: one warm-up, many measured continuations
# ----------------------------------------------------------------------
def warm_dumbbell_bytes(scheme: str, bandwidth: float, **kwargs) -> bytes:
    """Build and warm one dumbbell run; return its snapshot body.

    Accepts the same keyword arguments as :func:`run_dumbbell` (minus
    ``keep_refs``/``collector``).  The returned bytes capture the run at
    the instant the measurement window opens; feed them to
    :func:`run_dumbbell_warm` once per desired ``duration``.  Because
    construction and warm-up do not depend on ``duration``, every
    continuation is bit-identical to the corresponding cold run.
    """
    kwargs.setdefault("duration", kwargs.get("warmup", 20.0))
    defaults = dict(
        rtt=0.060, n_fwd=10, n_rev=0, web_sessions=0, warmup=20.0, seed=1,
        pkt_size=1000, buffer_pkts=None, rtts=None, start_window=None,
        record_rtt_flow=None, queue_sample_interval=0.02, background=None,
    )
    defaults.update(kwargs)
    params = _resolve_params(scheme=scheme, bandwidth=bandwidth, **defaults)
    state = _assemble_dumbbell(params, collector=None)
    _warm_dumbbell(state)
    return capture_bytes(state.sim, state)


def run_dumbbell_warm(body: bytes, duration: float) -> DumbbellResult:
    """Measure one continuation of a :func:`warm_dumbbell_bytes` capture.

    Restores an independent clone of the warmed state (the original
    bytes stay reusable), runs the steady-state window out to *duration*
    and returns the same :class:`DumbbellResult` a cold
    :func:`run_dumbbell` with that duration produces.
    """
    _sim, state = restore_bytes(body)
    if not isinstance(state, _DumbbellState):
        raise TypeError(
            "run_dumbbell_warm needs bytes from warm_dumbbell_bytes, got "
            f"state of type {type(state).__name__}"
        )
    state.params = dict(state.params, duration=float(duration))
    _measure_dumbbell(state)
    return _dumbbell_result(state)
