"""Property-based tests (hypothesis) on core data structures/invariants."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqm import GentleRedCurve, PiResponse, RemResponse
from repro.core.config import PertPiConfig
from repro.core.pert_pi import PertPiSender
from repro.core.pert_rem import PertRemConfig, PertRemSender
from repro.core.srtt import EwmaRtt, MovingAverageRtt
from repro.fluid import PertRedFluidModel, TcpRedFluidModel
from repro.fluid.stability import l_pert
from repro.metrics.fairness import jain_index
from repro.metrics.stats import histogram_pdf, percentile
from repro.predictors.analysis import TransitionCounts, coalesce_events
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, RedQueue, RemQueue

from ..conftest import make_dumbbell, make_flow

rtts = st.floats(min_value=1e-4, max_value=10.0, allow_nan=False)


# ----------------------------------------------------------------------
# response curves
# ----------------------------------------------------------------------
@given(
    t_min=st.floats(min_value=0.0, max_value=0.05),
    span=st.floats(min_value=1e-4, max_value=0.1),
    p_max=st.floats(min_value=1e-3, max_value=1.0),
    qs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40),
)
def test_gentle_curve_bounded_and_monotone(t_min, span, p_max, qs):
    curve = GentleRedCurve(t_min=t_min, t_max=t_min + span, p_max=p_max)
    values = [curve(q) for q in sorted(qs)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@given(
    t_min=st.floats(min_value=0.0, max_value=0.05),
    span=st.floats(min_value=1e-4, max_value=0.1),
    p_max=st.floats(min_value=1e-3, max_value=1.0),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_gentle_at_least_as_gentle_as_red(t_min, span, p_max, q):
    gentle = GentleRedCurve(t_min=t_min, t_max=t_min + span, p_max=p_max)
    red = GentleRedCurve(t_min=t_min, t_max=t_min + span, p_max=p_max,
                         gentle=False)
    assert gentle(q) <= red(q) + 1e-12


@given(qs=st.lists(st.floats(min_value=-0.1, max_value=0.1), min_size=1,
                   max_size=200))
def test_pi_response_always_clamped(qs):
    pi = PiResponse(k=5.0, m=0.1, target_delay=0.01, delta=0.01)
    for q in qs:
        p = pi.update(q)
        assert 0.0 <= p <= 1.0


# ----------------------------------------------------------------------
# one law, three hosts: router, end host and fluid model agree
# ----------------------------------------------------------------------
@given(
    min_th=st.floats(min_value=0.5, max_value=50.0),
    span=st.floats(min_value=0.5, max_value=50.0),
    max_p=st.floats(min_value=1e-3, max_value=1.0),
    gentle=st.booleans(),
    avgs=st.lists(st.floats(min_value=0.0, max_value=250.0), min_size=1,
                  max_size=30),
)
def test_red_router_marks_with_the_shared_law(min_th, span, max_p, gentle, avgs):
    q = RedQueue(1000, min_th=min_th, max_th=min_th + span, max_p=max_p,
                 gentle=gentle, w_q=0.1, rng=random.Random(0))
    law = GentleRedCurve(min_th, min_th + span, max_p, gentle=gentle)
    for x in avgs + [min_th, min_th + span, 2.0 * (min_th + span)]:
        q.avg = x
        assert q.mark_probability() == law.update(x)


@given(
    q_ref=st.floats(min_value=0.0, max_value=40.0),
    gamma=st.floats(min_value=1e-4, max_value=0.5),
    alpha=st.floats(min_value=0.0, max_value=2.0),
    phi=st.floats(min_value=1.0001, max_value=2.0),
    lengths=st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                     max_size=40),
)
def test_rem_router_price_is_the_shared_law(q_ref, gamma, alpha, phi, lengths):
    # ECN marks still enqueue, so the queue reaches every target length
    q = RemQueue(100, q_ref=q_ref, gamma=gamma, alpha=alpha, phi=phi,
                 ecn=True, rng=random.Random(0))
    law = RemResponse(gamma=gamma, alpha=alpha, phi=phi, target_delay=q_ref)
    seq = 0
    for n in lengths:
        while len(q) < n:
            assert q.enqueue(Packet(1, 0, 1, seq=seq, ect=True), 0.0)
            seq += 1
        while len(q) > n:
            q.dequeue(0.0)
        assert q.update() == law.update(float(n))
        assert q.mark_probability() == law.p


@given(
    t_min=st.floats(min_value=0.0, max_value=0.1),
    span=st.floats(min_value=1e-4, max_value=0.1),
    p_max=st.floats(min_value=1e-3, max_value=1.0),
)
def test_fluid_slopes_are_the_law_slope(t_min, span, p_max):
    law = GentleRedCurve(t_min, t_min + span, p_max)
    assert PertRedFluidModel(p_max=p_max, t_min=t_min,
                             t_max=t_min + span).l_pert == law.slope
    assert l_pert(p_max, t_min, t_min + span) == law.slope
    router_law = GentleRedCurve(1e3 * t_min, 1e3 * (t_min + span), p_max)
    assert TcpRedFluidModel(p_max=p_max, min_th=router_law.t_min,
                            max_th=router_law.t_max).l_red == router_law.slope


@given(
    capacity=st.floats(min_value=10.0, max_value=1e4),
    rtt=st.floats(min_value=0.01, max_value=0.5),
    beta=st.floats(min_value=0.1, max_value=0.9),
    p_max=st.floats(min_value=1e-3, max_value=1.0),
    frac=st.floats(min_value=1e-3, max_value=0.99),
    t_min=st.floats(min_value=0.0, max_value=0.05),
    span=st.floats(min_value=1e-3, max_value=0.1),
)
def test_law_at_fluid_equilibrium_delay_returns_equilibrium_probability(
        capacity, rtt, beta, p_max, frac, t_min, span):
    """Analytic oracle: p* = 1/(β W*²) and Tq* = T_min + p*/L put the
    equilibrium on the curve's ramp whenever p* < p_max."""
    # choose N so that p* = frac * p_max (< p_max, on the linear ramp)
    w_star = math.sqrt(1.0 / (beta * frac * p_max))
    model = PertRedFluidModel(capacity=capacity, rtt=rtt,
                              n_flows=rtt * capacity / w_star,
                              p_max=p_max, t_min=t_min, t_max=t_min + span,
                              beta_decrease=beta)
    _, p_star, tq_star = model.equilibrium()
    assert p_star < p_max
    law = GentleRedCurve(t_min, t_min + span, p_max)
    assert math.isclose(law.update(tq_star), p_star, rel_tol=1e-9)


def test_senders_sharing_a_config_own_distinct_law_state():
    """Scenarios hand one config object to every sender of a run."""
    for sender_cls, config in ((PertPiSender, PertPiConfig()),
                               (PertRemSender, PertRemConfig())):
        sim = Simulator(seed=1)
        db = make_dumbbell(sim)
        a, _ = make_flow(sim, db, idx=0, sender_cls=sender_cls, config=config)
        b, _ = make_flow(sim, db, idx=1, sender_cls=sender_cls, config=config)
        assert a.law is not b.law
        a.law.update(0.5)
        assert b.law.p == 0.0


# ----------------------------------------------------------------------
# smoothed signals
# ----------------------------------------------------------------------
@given(samples=st.lists(rtts, min_size=1, max_size=200),
       weight=st.floats(min_value=0.0, max_value=0.999))
def test_ewma_stays_within_sample_range(samples, weight):
    e = EwmaRtt(weight=weight)
    for s in samples:
        e.update(s)
    assert min(samples) - 1e-12 <= e.value <= max(samples) + 1e-12
    assert e.min_rtt == min(samples)
    assert e.queuing_delay >= 0.0


@given(samples=st.lists(rtts, min_size=1, max_size=100),
       window=st.integers(min_value=1, max_value=20))
def test_moving_average_matches_naive(samples, window):
    m = MovingAverageRtt(window=window)
    for s in samples:
        m.update(s)
    naive = sum(samples[-window:]) / len(samples[-window:])
    assert math.isclose(m.value, naive, rel_tol=1e-9)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
@given(xs=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                   max_size=50))
def test_jain_bounds(xs):
    j = jain_index(xs)
    if sum(xs) == 0:
        assert j == 0.0
    else:
        assert 1.0 / len(xs) - 1e-12 <= j <= 1.0 + 1e-12


@given(xs=st.lists(st.floats(min_value=-100, max_value=100), min_size=1,
                   max_size=100),
       q=st.floats(min_value=0, max_value=100))
def test_percentile_within_range(xs, q):
    p = percentile(xs, q)
    assert min(xs) - 1e-9 <= p <= max(xs) + 1e-9


@given(xs=st.lists(st.floats(min_value=-2, max_value=3), min_size=1,
                   max_size=200),
       bins=st.integers(min_value=1, max_value=30))
def test_histogram_total_mass_one(xs, bins):
    pdf = histogram_pdf(xs, bins=bins, lo=0.0, hi=1.0)
    assert math.isclose(sum(p for _, p in pdf), 1.0, rel_tol=1e-9)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
@given(times=st.lists(st.floats(min_value=0, max_value=100), max_size=50),
       window=st.floats(min_value=0, max_value=5))
def test_coalesce_spacing_invariant(times, window):
    out = coalesce_events(times, window)
    assert all(b - a > window for a, b in zip(out, out[1:]))
    assert len(out) <= len(times)
    if times:
        assert out[0] == min(times)


# ----------------------------------------------------------------------
# queues
# ----------------------------------------------------------------------
@given(
    capacity=st.integers(min_value=1, max_value=20),
    arrivals=st.lists(st.booleans(), min_size=1, max_size=200),
)
def test_droptail_conservation_property(capacity, arrivals):
    """Random interleavings of enqueue/dequeue preserve accounting."""
    q = DropTailQueue(capacity)
    t = 0.0
    seq = 0
    for do_enqueue in arrivals:
        t += 0.001
        if do_enqueue:
            q.enqueue(Packet(1, 0, 1, seq=seq), t)
            seq += 1
        else:
            q.dequeue(t)
        assert 0 <= len(q) <= capacity
    assert q.stats.arrivals == q.stats.enqueues + q.stats.drops
    assert q.stats.enqueues == q.stats.departures + len(q)


@given(
    avgs=st.lists(st.floats(min_value=0, max_value=50), min_size=1,
                  max_size=50),
)
def test_red_probability_bounded_for_any_average(avgs):
    q = RedQueue(100, min_th=5, max_th=15, max_p=0.1, w_q=0.1,
                 rng=random.Random(0))
    for a in avgs:
        q.avg = a
        assert 0.0 <= q.mark_probability() <= 1.0


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
@given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                       max_size=100))
@settings(max_examples=50)
def test_engine_processes_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.data())
@settings(max_examples=30)
def test_transition_counts_metrics_consistent(data):
    n2 = data.draw(st.integers(min_value=0, max_value=100))
    n4 = data.draw(st.integers(min_value=0, max_value=100))
    n5 = data.draw(st.integers(min_value=0, max_value=100))
    c = TransitionCounts(n2=n2, n4=n4, n5=n5)
    if n2 + n5:
        assert math.isclose(c.efficiency + c.false_positive_rate, 1.0)
    if n2 + n4:
        assert 0.0 <= c.false_negative_rate <= 1.0
