"""The benchmark's traced run wraps catverify functions by name (see
`bench/spans.py`), so one small traced run keeps those names from being
removed unnoticed."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_traced_smoke_run():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "subtype", "--smoke",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
