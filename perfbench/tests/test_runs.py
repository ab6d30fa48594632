"""End-to-end runs of the benchmark script.

The traced session of every workload is played twice at one seed, each time
in a fresh process, and every count metric must repeat exactly. These runs
take several minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import metrics  # noqa: E402
from workloads import SESSIONS  # noqa: E402


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(SESSIONS))
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(_run(ROOT, workload, 7, 1)) for _ in range(2))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {m.name for m in metrics.PER_LAYER}
    for name in metrics.count_metrics():
        assert first["metrics"][name] == second["metrics"][name], name


def test_untraced_run_reports_end_to_end_metrics():
    res = _result(_run(ROOT, "embed", 3, 0))
    assert res["correct"] and res["attempted"] >= 100
    assert set(res["metrics"]) == set(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(SESSIONS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "embed", 1, 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
