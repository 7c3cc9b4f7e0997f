"""Self-test of the benchmark: every workload at a tiny size, through the same code path.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (also puts the checkout's src on sys.path)
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _measure(name: str, trace: bool, references: dict[str, str] | None = None):
    return run.measure(workloads.make_workload(name, 7, tiny=True), 0, trace, references,
                       min_reps=1, setup_repeats=1)


def test_declared_workloads_are_the_defined_ones():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    defined = {name: workloads.make_workload(name, 0).why for name in workloads.WORKLOADS}
    assert declared == defined


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, detail = _measure(name, trace)
        assert result["correct"] and result["failed"] == 0, detail["problems"]
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_wrong_reference_hash_raises_error_rate():
    result, detail = _measure("map_export", False, {"out0/timeseries.tsv": "0" * 64})
    assert detail["error_rate"] == 1.0 and not result["correct"]
    assert any("hash mismatch" in p for p in detail["problems"])


def test_wrong_closed_form_raises_error_rate(monkeypatch):
    exact = workloads.analytic.lf_revival
    monkeypatch.setattr(workloads.analytic, "lf_revival", lambda params, t: exact(params, t) + 1e-3)
    result, detail = _measure("map_export", False)
    assert detail["error_rate"] == 1.0 and not result["correct"]
    assert any("lf_revival" in p for p in detail["problems"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
