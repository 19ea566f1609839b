"""Tests of the benchmark itself: python -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_prints_every_metric_of_benchmark_json():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke_ok": True}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coupled32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_self_time_and_same_layer_nesting():
    tracer = Tracer()
    inner = tracer.wrap("b", lambda: None)
    same = tracer.wrap("a", lambda: inner())
    outer = tracer.wrap("a", lambda: same())
    outer()
    assert [s[0] for s in tracer.spans] == ["a", "b"]
    assert tracer.spans[1][3] == 0
    total = summarize(tracer.spans, 0.0)
    a, b = total["a"], total["b"]
    assert a["calls"] == 1 and b["calls"] == 1
    assert abs(a["self_seconds"] - (a["seconds"] - b["seconds"])) < 1e-12
