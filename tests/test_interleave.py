"""tools/interleave.py on the repository against itself, and against a
checkout whose oracle rejects every value."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def interleave(a, b):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave.py"), str(a), str(b),
         "--workload", "strip-sweep", "--rounds", "1", "--seed", "0"],
        capture_output=True, text=True, timeout=120,
    )


def test_repository_against_itself():
    proc = interleave(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    package = str(ROOT / "src" / "rankgauge")
    assert lines[:3] == [f"A: {package}", f"B: {package}", "ops 32 (1 rounds of strip-sweep, seed 0)"]
    wall = re.fullmatch(r"round wall s  A (\S+)  B (\S+)  B/A \d\.\d{4}", lines[-4])
    assert wall, lines[-4]
    wall_a, wall_b = map(float, wall.groups())
    assert lines[-3] == f"B faster in {int(wall_b < wall_a)} of 1 rounds"
    assert lines[-2] == "identical values and verdicts in 32 of 32 ops"
    assert lines[-1] == "failed checks  A 0  B 0"


def test_failed_check_stops_the_run(tmp_path):
    # B is a copy of the repository whose workloads build every op with an
    # oracle that rejects every value: the first op stops the run, naming
    # the op and the side
    checkout = tmp_path / "rejecting"
    shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (checkout / "bench").mkdir()
    source = (ROOT / "bench" / "workloads.py").read_text()
    (checkout / "bench" / "workloads.py").write_text(source + (
        "\n\n_Op = Op\n\n\ndef Op(name, run, check):\n"
        "    return _Op(name, run, lambda value, verdict: False)\n"))
    proc = interleave(ROOT, checkout)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1] == "failed checks  A 0  B 1"
    assert proc.stderr.strip() == "op strip-d3-0 of round 0 failed its check on side B"
