"""The benchmark's set-up runs on this tree.

The perfbench tracer looks up package names when it is imported, so a
renamed or deleted name breaks every benchmark run while the package's own
tests stay green.  Each workload declared in BENCHMARK.json must get as far
as READY.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_setup_reaches_ready(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", workload, "1", "0", "0", str(tmp_path),
         "--setup-only"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "READY"
