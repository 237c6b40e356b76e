"""The benchmark's traced run wraps catverify functions by name (see
`bench/spans.py`), so small traced runs keep those names from being removed
unnoticed. The verify and adhere runs also check every verdict against the
bench's known answers: for verify, the case study accepted, its
weakened-closeF mutation open at `PostObligation`, and no acceptance the
adherence oracle contradicts; for adhere, the planted violations
blamed at their clauses and no others."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--smoke",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bench_traced_smoke_run():
    assert _traced_smoke_run("subtype")["correct"] is True


def test_bench_verify_smoke_run_is_correct():
    result = _traced_smoke_run("verify")
    assert result["correct"] is True and result["failed"] == 0


def test_bench_adhere_smoke_run_is_correct():
    result = _traced_smoke_run("adhere")
    assert result["correct"] is True and result["failed"] == 0
