"""tools/interleave.py on the repository against itself."""

import re
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
    wall = re.fullmatch(r"round wall s  A (\S+)  B (\S+)  B/A \d\.\d{4}", lines[-3])
    assert wall, lines[-3]
    wall_a, wall_b = map(float, wall.groups())
    assert lines[-2] == f"B faster in {int(wall_b < wall_a)} of 1 rounds"
    assert lines[-1] == "identical values and verdicts in 32 of 32 ops"
