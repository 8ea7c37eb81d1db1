"""tools/interleave.py on the repository against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_repository_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave.py"), str(ROOT), str(ROOT),
         "--workload", "strip-sweep", "--rounds", "1", "--seed", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    package = str(ROOT / "src" / "rankgauge")
    assert lines[:3] == [f"A: {package}", f"B: {package}", "ops 32 (1 rounds of strip-sweep, seed 0)"]
    assert lines[-1] == "identical values and verdicts in 32 of 32 ops"
