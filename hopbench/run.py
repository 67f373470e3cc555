"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 hopbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (or any checkout holding ``src/repro``).
Every measurement happens in fresh interpreters with the ``REPRO_*``
environment knobs removed, so a run sees the default engine and no
observability, cache or worker settings from the caller:

* ``--trace 0``: a warm-up probe (it also writes the bytecode caches),
  then ``SETUP_PROBES`` set-up probes whose median is ``setup_s``, then
  one measuring interpreter that repeats the workload's fixed set of
  points for ``--seconds`` and reports ``wall_s``, ``work_per_s`` and
  ``peak_rss_mb``.  Times are normalised to a reference kernel timed
  around each sample (``hopbench.reference``);
* ``--trace 1``: one measuring interpreter that runs two untraced sets
  and then traced sets, and reports the per-layer metrics.

Scratch files (the sweep's result caches) live under ``.hopbench-work``
in the checkout and are removed before exit.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment (engine class, compiled tier, Python, nproc),
the raw (unnormalised) times and the first set's result digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from hopbench.reference import NOMINAL_S  # noqa: E402
#: set-up probes per untraced run (after one discarded warm-up probe)
SETUP_PROBES = 5
#: every run must end well inside three minutes
DEADLINE_S = 170.0


def hermetic_env() -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob.

    Removes the knobs that change what runs (``ENGINE``, ``COMPILED``,
    ``OBS``, ``TRACE``, ``PROFILE``, ``BUS``, ``WORKERS``, ``CACHE``,
    ``CACHE_DIR``, ``CHECKPOINT``, ``MP_START``, ``FLEET``, ``QUICK``)
    and every other ``REPRO_*`` variable with them.  The sweep passes
    its cache directory explicitly, so ``~/.cache/repro`` is never used.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: List[str], env: Dict[str, str], deadline: float) -> str:
    """Run ``python -m hopbench.child <args>``; return its last stdout line.

    The child gets its own process group, so on a timeout everything it
    started (sweep workers included) is killed and reaped.
    """
    cmd = [sys.executable, "-m", "hopbench.child"] + args
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{' '.join(args[:2])} ran past the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} exited with {proc.returncode}")
    return out.strip().splitlines()[-1]


def setup_seconds(workload: str, seed: int, size: str, env: Dict[str, str],
                  workdir: str, deadline: float) -> Tuple[float, float]:
    """Median seconds from interpreter launch to the first run, over the probes.

    Returns the normalised median (each probe scaled by the reference
    kernel it timed right after, see ``hopbench.reference``) and the raw one.
    """
    samples, raw = [], []
    for i in range(SETUP_PROBES + 1):
        t0 = time.monotonic()
        probe = json.loads(_child(["setup", workload, str(seed), size, workdir],
                                  env, deadline))
        if i:  # the first probe warms the bytecode and page caches
            raw.append(probe["reached"] - t0)
            samples.append(raw[-1] * NOMINAL_S / probe["kernel"])
    return statistics.median(samples), statistics.median(raw)


def main(argv: List[str] = None) -> int:
    """Parse arguments, run the workload, print the result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the smallest instance, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"hopbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from hopbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"hopbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = hermetic_env()
    work_root = ROOT / ".hopbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = raw_setup = None
        if not args.trace:
            setup, raw_setup = setup_seconds(args.workload, args.seed, args.size,
                                             env, str(workdir), deadline)
        line = _child(["measure", args.workload, str(args.seed), args.size,
                       str(args.seconds), str(args.trace), str(workdir)],
                      env, deadline)
    except RuntimeError as exc:
        print(f"hopbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is using it

    result: Dict[str, Any] = json.loads(line)
    from hopbench.child import END_TO_END, PER_LAYER

    values = dict(result["metrics"])
    if setup is not None:
        values["setup_s"] = setup
        result["raw"]["setup_s"] = raw_setup
    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in catalogue}
    print(json.dumps({"env": result["env"], "raw": result["raw"],
                      "digests": result["digests"]}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
