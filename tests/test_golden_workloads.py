"""The benchmark's golden check on its full-size verify workloads.

``benchmarks/run.py`` checks each op's verdict, output digest and count of
T-recursion calls (memo hits included) against ``benchmarks/golden.json``.
The benchmark's own smoke tests run its small A2 and A3 ops only; one pass of
each full-size verify workload covers D4 to E7, so that a changed T-call
count or output on those types fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["verify-spec-E", "verify-generic-AD"])
def test_one_pass_matches_the_golden_file(workload):
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
