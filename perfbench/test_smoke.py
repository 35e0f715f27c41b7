"""Smoke test of the benchmark: every workload at toy size prints every named metric.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import tracing  # noqa: E402

# every workload run.py knows, including any not listed in BENCHMARK.json
WORKLOADS = sorted(run.WORKLOADS)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, kind):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1]
             if not line.startswith("report ")}
    assert {name: table.get(name) for name in expected} == expected
    report = json.loads(lines[-2].removeprefix("report "))
    assert {"git_sha", "nproc", "numba_importable", "numpy", "scipy",
            "thread_pins"} <= set(report["stamp"])
    assert report["digest"]["units"] >= 1
    if trace == 0:
        figures = {"failed_ratio", "causal.repeat_share", "latency_samples"}
        figures |= ({"skeleton_s", "citests_per_s", "precision", "recall"}
                    if workload.startswith("discover") else {"mse"})
        assert figures <= set(table)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_missing_call_site_fails_loudly_and_restores_the_rest():
    def original():
        return None

    modules = {}
    for mod, attr, _ in tracing.SPANNED + tracing.COUNTED:
        modules.setdefault(mod, types.SimpleNamespace())
        if attr != "_xlogx_segment_sums":
            setattr(modules[mod], attr, original)
    with pytest.raises(tracing.TraceError, match="_xlogx_segment_sums"):
        with tracing.Tracer(modules):
            pass
    for mod, attr, _ in tracing.SPANNED + tracing.COUNTED:
        assert getattr(modules[mod], attr, original) is original
