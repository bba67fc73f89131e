"""The benchmark's own gate tests, run as part of the test suite.

``perfbench`` checks its golden digests, its invariants and that every
traced call site it expects still fires.  A refactor that silences a
site (say, by binding an operator at import time) passes every other
test, so the gate runs here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_gate_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
