"""Tests of the benchmark itself: span arithmetic, oracles, determinism,
hook removal and a one-op smoke run of every workload."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads
from rankgauge import measures, objective, optimizer, rank_param

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_self_times_subtracts_union_of_children():
    # root [0,10] with children [1,4] (holding [2,3]), [3,6] overlapping
    # it, and [9,12] running past the root's end.
    start = [0.0, 1.0, 2.0, 3.0, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert tracing.self_times(start, end, parent) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_oracles_reject_wrong_values():
    strip = workloads.WORKLOADS["strip-sweep"]
    sweeps = strip.build(0)
    op = strip.ops(sweeps, 0, 0)[0]
    _, params, _ = sweeps[0][0]
    exact = workloads.catalog.strip_e2_closed_form(params)
    assert op.check(exact, "e2")
    assert not op.check(exact + 1e-6, "e2")

    ces = workloads.WORKLOADS["ces-tripartite"]
    ces_op = ces.ops([((2, 2, 3), None)], 0, 0)[0]
    assert ces_op.check(0.01, ">=2")
    assert not ces_op.check(3.5e-7, "1")


@pytest.mark.xfail(strict=True, reason="E_2 of the maximal CES in 4x5x10 is ~3.5e-7, below "
                   "ZERO_THRESHOLD, so the scan certifies rank 1 for a subspace with no product vector")
def test_ces_4_5_10_is_not_certified_rank_1():
    dims = workloads.KNOWN_FALSE_CERTIFICATE
    ces = workloads.WORKLOADS["ces-tripartite"]
    (op,) = ces.ops([(dims, workloads.catalog.max_ces_subspace(*dims))], 0, 0)
    assert op.check(*op.run())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_one_op_per_workload(name):
    w = workloads.WORKLOADS[name]
    out = worker.run_rounds(w, w.build(5), 5, seconds=0.0, rounds=1, ops=1)
    (record,) = out["ops"]
    assert record["ok"], record
    assert len(out["round_digests"]) == len(out["round_walls"]) == 1


def test_same_seed_replays_and_new_seed_changes_angles_and_starts():
    w = workloads.WORKLOADS["strip-sweep"]

    def digests(seed):
        return worker.run_rounds(w, w.build(seed), seed, seconds=0.0, rounds=2, ops=2)["round_digests"]

    assert digests(3) == digests(3)
    assert digests(3) != digests(4)
    assert not (workloads.strip_angles(3) == workloads.strip_angles(4)).any()
    assert workloads.derive_seed(3, 1, 0, 0) != workloads.derive_seed(4, 1, 0, 0)


def test_traced_op_reports_layers_and_restores_package():
    original, original_fm = optimizer.run_certification, rank_param.forward_map
    w = workloads.WORKLOADS["strip-sweep"]
    rec = tracing.Recorder()
    with tracing.traced(rec) as installed:
        # re-imported names are rebound too
        assert measures.run_certification is optimizer.run_certification is not original
        assert objective.forward_map is rank_param.forward_map is not original_fm
        out = worker.run_rounds(w, w.build(1), 1, seconds=0.0, rounds=1, ops=1, recorder=rec)
    assert measures.run_certification is optimizer.run_certification is original
    assert objective.forward_map is original_fm
    assert installed == set(tracing.LAYERS)
    m = tracing.layer_metrics(rec, installed, import_s=0.1, ops_s=out["ops"][0]["latency_s"], span_cost_s=1e-6)
    assert m["certification.calls"][0] == 1
    assert m["lbfgs.calls"][0] == m["trial.calls"][0] == optimizer.OptimConfig().trials
    assert m["value_and_grad.calls"][0] >= m["line_search.evals"][0] > 0
    assert sum(m[f"lbfgs.stop.{r}"][0] for r in tracing.STOP_REASONS) == 3
    assert m["inputs.build_s"][0] > 0
    assert all(math.isfinite(v) for v, _ in m.values())
    assert set(m) == {metric["name"] for metric in SPEC["per_layer"]}


def test_missing_hook_leaves_its_metrics_absent():
    layers = {
        "two_loop": ("rankgauge.optimizer:_no_such_hook",),
        "lbfgs": tracing.LAYERS["lbfgs"],
        "certification": tracing.LAYERS["certification"],
    }
    w = workloads.WORKLOADS["strip-sweep"]
    rec = tracing.Recorder()
    with tracing.traced(rec, layers) as installed:
        worker.run_rounds(w, w.build(2), 2, seconds=0.0, rounds=1, ops=1, recorder=rec)
    assert installed == {"lbfgs", "certification"}
    m = tracing.layer_metrics(rec, installed, import_s=0.1, ops_s=1.0, span_cost_s=0.0)
    assert "two_loop.calls" not in m and "two_loop.self_s" not in m
    assert m["lbfgs.calls"][0] == 3


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "strip-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_end_to_end_metrics_match_spec():
    ops = [{"latency_s": 0.1 * (i + 1), "ok": i != 0} for i in range(10)]
    m = run.end_to_end({"ops": ops, "round_walls": [1.0, 2.0, 4.0], "peak_rss_mb": 40.0}, [0.3, 0.2, 0.4])
    assert [metric["name"] for metric in SPEC["end_to_end"]] == list(m)
    assert m["wall_s"][0] == 2.0 and m["setup_s"][0] == 0.3
    assert m["pass_ratio"][0] == 0.9
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
