"""Output checks: point summaries, invariants and result digests.

Every point the benchmark runs is reduced to a *summary*: a JSON-clean
dict holding the point's work count, its result digest, the counters the
per-layer view needs, and a list of invariant violations.  A point fails
if it raises, if its runner job fails, or if ``violations`` is non-empty;
a set fails where its digests differ from another set of the same run
or, at the default seed, from the digests pinned in ``digests.json``.

The invariants are read from public objects only:

* per link, offered = transmitted + in service + dropped + queued, with
  at most one packet in service;
* per link, bytes transmitted never exceed ``bandwidth * now``;
* per queue, length never exceeds capacity;
* the result's own ratios lie in [0, 1] and goodputs are finite.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from .trace import QUEUE_LABELS

#: the seed whose digests are pinned
DEFAULT_SEED = 1
PINS = Path(__file__).resolve().parent / "digests.json"


def digest(obj: Any) -> str:
    """Short SHA-256 of *obj*'s canonical JSON (floats in repr form)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def dumbbell_digest(result) -> str:
    """Digest of every ``DumbbellResult`` field except the event count.

    ``events_processed`` is left out because fusing events may change it
    legitimately; ``extras`` holds live objects, not results.
    """
    return digest({
        f.name: getattr(result, f.name)
        for f in fields(result)
        if f.name not in ("events_processed", "extras")
    })


def link_violations(links: Iterable[Any], now: float) -> List[str]:
    """Conservation, utilisation and capacity violations over *links*."""
    out = []
    for i, link in enumerate(links):
        q, s = link.qdisc, link.qdisc.stats
        in_service = s.departures - link.packets_transmitted
        if in_service not in (0, 1):
            out.append(f"link {i}: {in_service} packets in service")
        if s.arrivals != link.packets_transmitted + in_service + s.drops + len(q):
            out.append(
                f"link {i}: offered {s.arrivals} != transmitted "
                f"{link.packets_transmitted} + in service {in_service} + "
                f"dropped {s.drops} + queued {len(q)}")
        if link.bytes_transmitted * 8.0 > link.bandwidth * now * (1 + 1e-12):
            out.append(f"link {i}: utilisation above 1")
        if len(q) > q.capacity:
            out.append(f"link {i}: queue {len(q)} above capacity {q.capacity}")
    return out


def result_violations(result) -> List[str]:
    """Range checks on a ``DumbbellResult``'s own figures."""
    out = []
    for name in ("utilization", "drop_rate", "mark_rate", "norm_queue"):
        value = getattr(result, name)
        if not 0.0 <= value <= 1.0:
            out.append(f"{name} {value} outside [0, 1]")
    if not 0.0 < result.jain <= 1.0 + 1e-12:
        out.append(f"jain {result.jain} outside (0, 1]")
    if not all(math.isfinite(g) and g >= 0.0 for g in result.flow_goodputs_bps):
        out.append("negative or non-finite goodput")
    return out


def sender_counts(senders: Iterable[Any]) -> Dict[str, int]:
    """Transport counters summed over every sender built in a point."""
    counts = dict(pkts_sent=0, retransmits=0, timeouts=0,
                  early_responses=0, flows_started=0, flows_done=0)
    for s in senders:
        counts["pkts_sent"] += s.pkts_sent
        counts["retransmits"] += s.retransmits
        counts["timeouts"] += s.timeouts
        counts["early_responses"] += getattr(s, "early_responses", 0)
        if s.on_complete is not None:  # a web object transfer
            counts["flows_started"] += 1
            counts["flows_done"] += int(s.done)
    return counts


def summarize_dumbbell(result, senders: Optional[List[Any]] = None) -> Dict[str, Any]:
    """Reduce a ``run_dumbbell(keep_refs=True)`` result to a summary.

    *senders* (every sender the point built, known only while tracing)
    adds the transport counters.
    """
    db, sim = result.extras["dumbbell"], result.extras["sim"]
    links = db.net.links
    queues: Dict[str, List[int]] = {}
    for link in links:
        label = QUEUE_LABELS.get(type(link.qdisc).__name__, "queue.other")
        s = link.qdisc.stats
        row = queues.setdefault(label, [0, 0, 0])
        row[0] += s.arrivals
        row[1] += s.drops
        row[2] += s.marks
    summary = {
        "digest": dumbbell_digest(result),
        "work": sum(link.packets_transmitted for link in links),
        "events": result.events_processed,
        "queues": queues,
        "bg_pkts": result.background_pkts,
        "violations": link_violations(links, sim.now) + result_violations(result),
    }
    if senders is not None:
        summary["senders"] = sender_counts(senders)
    return summary


def summarize_fluid(label: str, params: Any, end_states, member_steps: int) -> Dict[str, Any]:
    """Summary of one fluid integration from its members' end states."""
    states = [[float(v) for v in row] for row in end_states]
    finite = all(math.isfinite(v) for row in states for v in row)
    return {
        "digest": digest({"model": label, "params": params, "end": states}),
        "work": member_steps,
        "events": 0,
        "violations": [] if finite else [f"{label}: non-finite end state"],
    }


# ----------------------------------------------------------------------
# set-level checks
# ----------------------------------------------------------------------
def load_pins() -> Dict[str, Any]:
    """Pinned default-seed digests, keyed by workload."""
    try:
        return json.loads(PINS.read_text())
    except FileNotFoundError:
        return {}


def pin_key(env: Dict[str, Any]) -> str:
    """The environment a pin is valid in: Python minor and numpy versions."""
    return f"py{env['python_minor']}-numpy{env['numpy']}"


def failed_points(sets: List[List[Optional[Dict[str, Any]]]],
                  pinned: Optional[List[str]]) -> List[List[bool]]:
    """Per set, per point: did the point fail?

    ``None`` marks a point that raised or whose job failed.  A point also
    fails on an invariant violation, on a digest that differs from the
    first set's, and on one that differs from *pinned* (when given).
    """
    reference = [s["digest"] if s else None for s in sets[0]]
    out = []
    for points in sets:
        row = []
        for i, s in enumerate(points):
            bad = (s is None or bool(s["violations"])
                   or s["digest"] != reference[i]
                   or (pinned is not None
                       and (i >= len(pinned) or s["digest"] != pinned[i])))
            row.append(bad)
        out.append(row)
    return out
