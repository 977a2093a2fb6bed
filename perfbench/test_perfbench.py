"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke():
    """Every workload, both modes: every metric listed in BENCHMARK.json is
    emitted with its unit, outputs are correct, traced spans nest and
    their self times add up, counts repeat exactly for one seed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_without_sources(tmp_path):
    """Beside BENCHMARK.json and the benchmark alone it exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    argv[0] = sys.executable
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
