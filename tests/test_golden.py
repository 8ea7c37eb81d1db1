"""Replay of committed `reproduce` and `compute` outputs: every CSV under
tests/golden is regenerated from the arguments recorded in golden.json
(`compute` writes compute.csv, recorded under a name of its own). Where
numpy's version and the platform are those recorded, the bytes must
match; elsewhere floating-point results may move in their last bits, so
every number must match to 1e-12 and every other cell exactly."""

import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from rankgauge import __version__, cli

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORD = json.loads((GOLDEN / "golden.json").read_text())
TOLERANCE = 1e-12


def same_environment() -> bool:
    return (RECORD["numpy"], RECORD["platform"]) == (np.__version__, f"{platform.system()}-{platform.machine()}")


def number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def assert_values_match(got: str, want: str) -> None:
    """The same table, every numeric cell within TOLERANCE (absolute and
    relative), every other cell equal."""
    got_rows, want_rows = got.splitlines(), want.splitlines()
    assert len(got_rows) == len(want_rows)
    for got_row, want_row in zip(got_rows, want_rows):
        got_cells, want_cells = got_row.split(","), want_row.split(",")
        assert len(got_cells) == len(want_cells), got_row
        for g, w in zip(got_cells, want_cells):
            if number(w) is None or number(g) is None:
                assert g == w, (got_row, want_row)
            else:
                assert math.isclose(number(g), number(w), rel_tol=TOLERANCE, abs_tol=TOLERANCE), (got_row, want_row)


def test_golden_data_match_the_results_version():
    # a change of results must write new golden data with the new version
    assert RECORD["results_version"] == __version__


@pytest.mark.parametrize("name", sorted(RECORD["csv"]))
def test_reproduce_replays_golden_csv(name, tmp_path, capsys):
    assert cli.main(RECORD["csv"][name] + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    (written,) = tmp_path.glob("*.csv")
    got, want = written.read_bytes(), (GOLDEN / name).read_bytes()
    if same_environment():
        assert got == want
    else:
        assert_values_match(got.decode(), want.decode())


def test_value_comparison_allows_only_the_tolerance():
    want = (GOLDEN / "fig3.csv").read_text()
    rows = [row.split(",") for row in want.splitlines()]
    a = float(rows[1][4])
    for delta, ok in [(0.0, True), (4 * sys.float_info.epsilon * a, True), (1e-9 * a, False)]:
        rows[1][4] = repr(a + delta)
        moved = "\n".join(",".join(row) for row in rows)
        if ok:
            assert_values_match(moved, want)
        else:
            with pytest.raises(AssertionError):
                assert_values_match(moved, want)
    examples = (GOLDEN / "examples.csv").read_text()
    for moved in (examples.replace("wstate", "w_state"), examples + "extra,row\n"):
        with pytest.raises(AssertionError):
            assert_values_match(moved, examples)
