"""BENCHMARK.json matches what the benchmark prints, and the benchmark
refuses to run without the program's source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match():
    declared = spec()
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] \
        == run.per_layer_metrics()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "browse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
