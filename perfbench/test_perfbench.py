"""Tests of the benchmark itself, on the q=3 smoke workloads (a few seconds).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import trace_hooks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_matches_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(trace_hooks.LAYER_METRICS) | {
        "trace.overhead_s",
        "trace.overhead.share",
    }
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seconds", "0.5", "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run_reports_every_layer_metric(workload, tmp_path):
    out = tmp_path / "record.json"
    result = result_of(bench("--workload", workload, "--seconds", "0.5", "--trace", "1",
                             "--smoke", "--out", str(out)))
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["repeatable"] and record["missing_metrics"] == []
    assert record["env"]["python"] and record["env"]["nproc"]


def test_counters_repeat_between_processes(tmp_path):
    paths = []
    for k in range(2):
        paths.append(tmp_path / f"r{k}.json")
        result_of(
            bench("--workload", "lift-export", "--seconds", "0.5", "--trace", "1", "--smoke",
                  "--out", str(paths[-1]))
        )
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), *map(str, paths)],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode == 0, done.stdout


def test_op_seeds_default_and_held_out(tmp_path):
    from workloads import DEFAULT_OP_SEEDS, op_seeds

    assert op_seeds("search-q7", None) == list(DEFAULT_OP_SEEDS["search-q7"])
    assert op_seeds("exact-q4", None) == []
    out = tmp_path / "held.json"
    held_out = 1 << 32
    result_of(bench("--workload", "lift-export", "--op-seeds", str(held_out), "--seconds", "0.2",
                    "--smoke", "--out", str(out)))
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["op_seeds"] == [held_out]
    assert f"lift_extend q=3 seed={held_out}" in record["job"]


def test_renamed_hook_target_is_reported_missing(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import zlq  # noqa: F401

    hooks = tuple(
        (name, module, "solve_extension_renamed" if attr == "solve_extension" else attr, observe)
        for name, module, attr, observe in trace_hooks.HOOKS
    )
    monkeypatch.setattr(trace_hooks, "HOOKS", hooks)
    tracer = trace_hooks.Tracer()
    with tracer:
        pass
    assert tracer.missing == ["exact.solve_extension"]
    values, missing = trace_hooks.layer_metrics(tracer.snapshot())
    assert missing == ["exact.solve_extension.calls"]
    assert "exact.nodes" in values  # still fed by solve_exact


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "exact-q4", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
