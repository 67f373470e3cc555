#!/usr/bin/env python3
"""Emulating *other* AQM schemes at the end host (paper Sections 6-8).

The paper's closing claim: "the proposed scheme is flexible in the sense
that other AQM schemes can be potentially emulated at the end-host."
This example demonstrates exactly that with three response functions
plugged into the same sender machinery:

* PERT/RED   — the paper's gentle-RED curve,
* PERT/PI    — the discretised PI controller of Section 6,
* PERT/REM   — Random Exponential Marking (the paper's reference [2]),
* and a *user-defined* response: a quadratic curve written inline.

All four run over plain DropTail routers and are compared on the same
workload.

Run:  python examples/custom_aqm_emulation.py
(Set REPRO_QUICK=1 for a seconds-scale smoke run — used by CI.)
"""

import os
from dataclasses import dataclass

from repro import (
    DropTailQueue,
    Dumbbell,
    PertConfig,
    PertPiConfig,
    PertPiSender,
    PertSender,
    Simulator,
    connect_flow,
    jain_index,
)
from repro.core.pert_rem import PertRemSender
from repro.fluid.stability import pert_pi_gains
from repro.sim.monitors import DropLog, LinkWindow, QueueSampler

QUICK = os.environ.get("REPRO_QUICK", "").lower() in ("1", "on", "true", "yes")

BANDWIDTH = 10e6
N_FLOWS = 4 if QUICK else 6
BUFFER = 100
DURATION, WARMUP = (12.0, 4.0) if QUICK else (40.0, 15.0)


class QuadraticCurve:
    """A custom response law: probability grows quadratically in delay.

    Any object with an ``update(queuing_delay) -> probability`` method can
    be PERT's law (stateless curves alias it to ``probability``) — this
    one responds more timidly than gentle RED near the threshold and more
    sharply later.
    """

    def __init__(self, t_min=0.005, t_full=0.025):
        self.t_min = t_min
        self.t_full = t_full

    def probability(self, queuing_delay: float) -> float:
        if queuing_delay <= self.t_min:
            return 0.0
        x = min(1.0, (queuing_delay - self.t_min) / (self.t_full - self.t_min))
        return x * x

    __call__ = update = probability


@dataclass
class QuadraticConfig(PertConfig):
    """PERT's knobs with the quadratic law in place of gentle RED."""

    t_full: float = 0.025

    def make_law(self):
        return QuadraticCurve(t_min=self.t_min, t_full=self.t_full)


class QuadraticPertSender(PertSender):
    """PERT with the quadratic curve swapped in: only the config differs."""

    config_class = QuadraticConfig


def run(sender_cls, label, **sender_kwargs):
    sim = Simulator(seed=9)
    net = Dumbbell(
        sim, n_left=N_FLOWS, n_right=N_FLOWS, bottleneck_bw=BANDWIDTH,
        bottleneck_delay=0.02, qdisc_fwd=lambda: DropTailQueue(BUFFER),
        access_delays_left=[0.005] * N_FLOWS,
        access_delays_right=[0.005] * N_FLOWS,
    )
    flows = []
    for i in range(N_FLOWS):
        sender, sink = connect_flow(sim, net.left[i], net.right[i],
                                    flow_id=i, sender_cls=sender_cls,
                                    **sender_kwargs)
        sender.start(at=0.2 * i)
        flows.append((sender, sink))
    window = LinkWindow(sim, net.fwd)
    drops = DropLog(net.bottleneck_queue)
    queue = QueueSampler(sim, net.bottleneck_queue, interval=0.05)
    sim.run(until=WARMUP)
    window.open()
    d0 = [sink.rcv_next for _, sink in flows]
    sim.run(until=DURATION)
    window.close()
    span = DURATION - WARMUP
    goodputs = [(s.rcv_next - g) * 8000.0 / span for (_, s), g in zip(flows, d0)]
    print(f"{label:14s} queue={queue.mean(WARMUP, DURATION):6.1f} pkts"
          f"  drops={drops.count(start=WARMUP):3d}"
          f"  util={window.utilization:6.1%}"
          f"  fairness={jain_index(goodputs):.3f}"
          f"  early={sum(s.early_responses for s, _ in flows)}")


def main() -> None:
    print(f"{N_FLOWS} flows, {BANDWIDTH/1e6:.0f} Mbps DropTail bottleneck — "
          "four emulated AQMs, zero router support\n")
    run(PertSender, "PERT/RED")
    pkt_rate = BANDWIDTH / 8000.0
    k, m = pert_pi_gains(capacity=pkt_rate, n_minus=N_FLOWS // 2, r_plus=0.1)
    run(PertPiSender, "PERT/PI",
        config=PertPiConfig(k=k, m=m, target_delay=0.003,
                            delta=N_FLOWS / pkt_rate))
    run(PertRemSender, "PERT/REM")
    run(QuadraticPertSender, "PERT/custom")
    print("\nSwapping the response law is a one-method change — the paper's"
          "\ngenerality claim, demonstrated.")


if __name__ == "__main__":
    main()
