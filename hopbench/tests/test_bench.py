"""The benchmark's own tests: repeatable counts, complete output, live checks.

Run from the repository root:

    python3 -m pytest hopbench/tests -q

Each workload runs at its smallest size (``--size small``) in fresh
interpreters through ``hopbench/run.py``, exactly as a benchmark run does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hopbench import checks  # noqa: E402
from hopbench.child import END_TO_END, PER_LAYER  # noqa: E402
from hopbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNTS = [name for name, unit in PER_LAYER if unit == "count"]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    """Run the benchmark at its smallest size; (exit code, result lines)."""
    proc = subprocess.run(
        [sys.executable, "hopbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "small"],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload, same seed."""
    out = {}
    for name in NAMES:
        runs = []
        for _ in range(2):
            code, lines = bench(name, trace=1)
            assert code == 0, name
            runs.append(json.loads(lines[-1]))
        out[name] = runs
    return out


def test_workloads_match_benchmark_json():
    assert NAMES == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", NAMES)
def test_count_metrics_repeat_exactly(traced, name):
    first, second = traced[name]
    for run in (first, second):
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
    for key in COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_prints_every_per_layer_metric(traced, name):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert dict(PER_LAYER) == expected
    metrics = traced[name][0]["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected


@pytest.mark.parametrize("name", NAMES)
def test_self_times_add_up_to_traced_wall(traced, name):
    m = {k: v["value"] for k, v in traced[name][0]["metrics"].items()}
    layers = [k for k in m if k.endswith(".self_s")] + ["runner.cache_s"]
    total = sum(m[k] for k in layers) + m["trace.unattributed_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["trace.unattributed_s"] >= 0.0


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_prints_every_end_to_end_metric(name):
    code, lines = bench(name, trace=0)
    assert code == 0
    env, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert dict(END_TO_END) == expected
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert {"engine", "compiled", "python", "nproc"} <= set(env["env"])


def _small_point():
    from repro.experiments.common import run_dumbbell

    params = WORKLOADS["pert-dumbbell"].points(checks.DEFAULT_SEED, "small")[0]
    return run_dumbbell(collector=False, keep_refs=True, **params)


def test_tampered_goodput_fails_the_digest_check():
    result = _small_point()
    honest = checks.summarize_dumbbell(result)
    assert checks.failed_points([[honest]], [honest["digest"]]) == [[False]]
    result.flow_goodputs_bps[0] *= 1.000001
    tampered = checks.summarize_dumbbell(result)
    assert checks.failed_points([[tampered]], [honest["digest"]]) == [[True]]
    assert checks.failed_points([[honest], [tampered]], None) == [[False], [True]]


def test_broken_conservation_fails_the_invariants():
    result = _small_point()
    link = result.extras["dumbbell"].net.links[0]
    link.packets_transmitted += 2
    summary = checks.summarize_dumbbell(result)
    assert summary["violations"]
    assert checks.failed_points([[summary]], None) == [[True]]


def test_pinned_digests_hold_at_default_seed():
    pins = checks.load_pins()
    from hopbench.child import env_info

    key = checks.pin_key(env_info())
    name = "pert-dumbbell"
    pinned = pins.get(name, {}).get("small", {}).get(key)
    if pinned is None:
        pytest.skip(f"no pin for {key}")
    code, lines = bench(name, trace=0, seed=checks.DEFAULT_SEED)
    assert code == 0
    assert json.loads(lines[-2])["digests"] == pinned
    assert json.loads(lines[-1])["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "hopbench", tmp_path / "hopbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("pert-dumbbell", trace=0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
