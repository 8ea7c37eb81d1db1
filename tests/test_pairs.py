"""The verdict and same-work rules of tools/pairs.py, and its reading of a
run's output, on made-up runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)

LOWER = {"unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "ratio", "better": "higher", "bound": 0.25}
WIDE = [10.0, 11.0, 12.0, 13.0, 14.0, 100.0, 200.0, 300.0, 400.0, 500.0]  # IQR 262.75 around 57


@pytest.mark.parametrize("metric, parent, change, verdict", [
    (LOWER, [10.0 + 0.01 * i for i in range(10)], [5.0 + 0.01 * i for i in range(10)], "gain"),
    # every change run beats every parent run, but by less than the
    # parent's spread: better, not a gain and not unresolved
    (LOWER, WIDE, [9.0] * 10, "better"),
    (HIGHER, [-v for v in WIDE], [-9.0] * 10, "better"),
    (LOWER, [10.0] * 10, [20.0] * 10, "worse"),
    (LOWER, [5.0, 15.0] * 5, [10.0] * 10, "unresolved"),
    (LOWER, [10.0] * 10, [10.1] * 10, "within bound"),
    (HIGHER, [1.0] * 10, [1.0] * 10, "within bound"),
])
def test_verdicts(metric, parent, change, verdict):
    summary = pairs.summarize(metric, parent, change)
    assert summary["verdict"] == verdict
    assert summary["pairs_change_better"] + summary["pairs_parent_better"] <= len(parent)


@pytest.mark.parametrize("parent, change, same", [
    (["a", "b"], ["a", "b"], True),
    # runs of different length compare over the rounds both ran
    (["a", "b", "c"], ["a", "b"], True),
    (["a"], ["a", "x"], True),
    (["a", "b"], ["a", "x"], False),
    (["a", "b"], [], False),
])
def test_same_work(parent, change, same):
    assert pairs.same_work(parent, change) is same


def test_run_keeps_the_round_digests(tmp_path):
    (tmp_path / "bench").mkdir()
    record = {"record": {"workload": "w", "rounds": 2, "round_digests": ["a", "b"], "env": {"numpy": "x"}}}
    result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
    (tmp_path / "bench" / "run.py").write_text(f"print('wall_s 0.5 s')\nprint({json.dumps(json.dumps(record))})\n"
                                               f"print({json.dumps(json.dumps(result))})\n")
    run = pairs.run_once(tmp_path, "w", 3, 1.0)
    assert run["round_digests"] == ["a", "b"] and run["env"] == {"numpy": "x"}
    assert run["metrics"] == {"wall_s": 0.5} and run["failed"] == 0
