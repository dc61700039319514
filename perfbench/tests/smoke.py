"""Smoke test for the benchmark at tiny sizes (a minute or two on two cores).

    python3 -m pytest perfbench/tests/smoke.py

It is kept out of the default test collection on purpose: it starts the
benchmark as a subprocess for every workload, twice.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# hyper-l2ball is runnable but not in BENCHMARK.json (see perfbench/README.md).
WORKLOADS = ["rates", "spectral", "hyper-l2ball"]


def test_benchmark_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_named_metric_with_its_unit(workload, trace):
    out = _bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    assert any(line.split()[:1] == ["failed_frac"] for line in out.stdout.splitlines())


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _bench(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
