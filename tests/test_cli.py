import dataclasses
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankgauge
from rankgauge import OptimConfig, haar_random_state, subspace_to_dict, from_spanning_set
from rankgauge.catalog import build_example, dicke_state
from rankgauge.cli import main
from rankgauge.optimizer import TRIAL_AMPLITUDES
from rankgauge.tensor_core import MAX_AMPLITUDES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_capped(tmp_path, *argv):
    """Run the CLI in a child capped at 2 GiB of address space, writing
    under tmp_path: an allocation the size checks should have refused
    fails there at once instead of exhausting the host's memory."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "rankgauge.cli", *argv, "--out", str(tmp_path)],
        env=env, preexec_fn=cap_memory, capture_output=True, text=True, timeout=60,
    )


def value_from_compute(out: str) -> float:
    for line in out.splitlines():
        if line.startswith("E_"):
            return float(line.split("=")[1])
    raise AssertionError(f"no E_r line in output:\n{out}")


class TestCompute:
    def test_strip_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--example", "strip:d=3,theta=pi/2", "--r", "2", "--seed", "5")
        assert code == 0
        assert abs(value_from_compute(out) - 0.25) < 1e-9

    def test_strip_r3_vanishes(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--example", "strip:d=3,theta=pi/2", "--r", "3", "--seed", "5")
        assert code == 0
        assert value_from_compute(out) < 1e-6

    def test_tiles_support_bound(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--example", "tiles", "--r", "2", "--seed", "5")
        assert code == 0
        assert abs(value_from_compute(out) - 0.0284) < 1e-3
        assert "support-space lower bound" in out

    def test_file_input(self, capsys, tmp_path, rng):
        sub = from_spanning_set([haar_random_state((2, 2), rng) for _ in range(2)])
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(subspace_to_dict(sub)))
        code, out, _ = run_cli(capsys, "compute", str(path), "--r", "2", "--seed", "1")
        assert code == 0
        assert 0.0 <= value_from_compute(out) <= 1.0

    def test_emit_closest(self, capsys, tmp_path):
        target = tmp_path / "closest.json"
        code, out, _ = run_cli(
            capsys, "compute", "--example", "dicke:n=3,k=1", "--r", "2",
            "--seed", "5", "--emit-closest", str(target),
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["dims"] == [2, 2, 2]
        amp = np.array([complex(re, im) for re, im in doc["vectors"][0]])
        # the emitted minimizer overlaps the W state at 1 - E_2 = 4/9
        w = dicke_state(3, 1)
        assert abs(np.vdot(amp, w.amp)) ** 2 == pytest.approx(4 / 9, abs=1e-6)

    @pytest.mark.parametrize("spec", ["strip:d=4,theta=1", "maxces:d1=2,d2=2,d3=3"])
    def test_emitted_state_attains_reported_value(self, capsys, tmp_path, spec):
        target = tmp_path / "closest.json"
        code, out, _ = run_cli(
            capsys, "compute", "--example", spec, "--r", "2", "--seed", "5", "--emit-closest", str(target),
        )
        assert code == 0
        amp = np.array([complex(re, im) for re, im in json.loads(target.read_text())["vectors"][0]])
        sub = build_example(spec)
        p_perp = np.eye(sub.dim_total) - sub.basis.T @ sub.basis.conj()
        assert abs(np.vdot(amp, p_perp @ amp).real - value_from_compute(out)) < 1e-12

    def test_writes_csv_and_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "res"
        code, _, _ = run_cli(
            capsys, "compute", "--example", "strip:d=3,theta=pi/2", "--r", "2",
            "--seed", "5", "--out", str(out_dir),
        )
        assert code == 0
        csv_text = (out_dir / "compute.csv").read_text()
        assert csv_text.startswith("trial,value,iterations,converged,termination,sweeps,grad_inf\n")
        assert "\r" not in csv_text
        manifest = json.loads((out_dir / "compute.manifest.json").read_text())
        assert manifest["command"] == "compute"
        assert manifest["seed"] == 5
        assert manifest["input_hash"].startswith("sha256:")
        assert manifest["artifact_version"]

class TestManifest:
    # argv without --out, CSV name, command-specific config keys
    CASES = {
        "compute": (["compute", "--example", "strip:d=4,theta=1.1", "--r", "2"], "compute", {"r", "source"}),
        "border-rank": (["border-rank", "--example", "dicke:n=3,k=1", "--r-max", "3"], "border_rank",
                        {"r_max", "source"}),
        "ges": (["ges", "--example", "ghz:n=3"], "ges", {"source"}),
        "reproduce": (["reproduce", "fig3", "--points", "3"], "fig3", {"points"}),
        "table2": (["reproduce", "table2"], "table2", {"rows", "full"}),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_manifest_replay_reproduces_values(self, capsys, tmp_path, command):
        args, name, extra = self.CASES[command]
        out_dir = tmp_path / "first"
        assert run_cli(capsys, *args, "--seed", "9", "--out", str(out_dir))[0] == 0
        manifest = json.loads((out_dir / f"{name}.manifest.json").read_text())
        replay_dir = tmp_path / "replay"
        argv = [a if a != str(out_dir) else str(replay_dir) for a in manifest["argv"]]
        assert main(argv) == 0
        capsys.readouterr()
        assert (out_dir / f"{name}.csv").read_bytes() == (replay_dir / f"{name}.csv").read_bytes()
        # the recorded config is the OptimConfig the run used, plus the command's own keys
        cfg = dataclasses.asdict(OptimConfig(seed=9))
        assert manifest.pop("seed") == cfg.pop("seed")
        assert set(manifest["config"]) == set(cfg) | extra | {"zero_threshold"}
        assert {k: manifest["config"][k] for k in cfg} == cfg

    def test_replay_does_not_read_the_environment(self, capsys, tmp_path, monkeypatch):
        """The argv is the whole input of a run: one made with RANKGAUGE_SEED
        set (a variable the seed was once read from when --seed was
        missing) replays byte for byte from its manifest in a clean
        environment."""
        out_dir = tmp_path / "first"
        monkeypatch.setenv("RANKGAUGE_SEED", "5")
        assert run_cli(capsys, "compute", "--example", "strip:d=4,theta=1.0", "--out", str(out_dir))[0] == 0
        monkeypatch.delenv("RANKGAUGE_SEED")
        manifest = json.loads((out_dir / "compute.manifest.json").read_text())
        replay_dir = tmp_path / "replay"
        assert main([a if a != str(out_dir) else str(replay_dir) for a in manifest["argv"]]) == 0
        capsys.readouterr()
        assert (out_dir / "compute.csv").read_bytes() == (replay_dir / "compute.csv").read_bytes()
        assert manifest["seed"] == 0

    def test_input_hash_is_sha256_of_file(self, capsys, tmp_path, rng):
        sub = from_spanning_set([haar_random_state((2, 2), rng) for _ in range(2)])
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(subspace_to_dict(sub), indent=1))
        out_dir = tmp_path / "res"
        assert run_cli(capsys, "compute", str(path), "--seed", "1", "--out", str(out_dir))[0] == 0
        manifest = json.loads((out_dir / "compute.manifest.json").read_text())
        assert manifest["input_hash"] == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


class TestBorderRank:
    def test_w_state(self, capsys, tmp_path):
        out_dir = tmp_path / "br"
        code, out, _ = run_cli(
            capsys, "border-rank", "--example", "dicke:n=3,k=1", "--r-max", "3",
            "--seed", "5", "--out", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "border_rank.csv").read_text().strip().splitlines()
        assert lines[0] == "r,value,termination"
        assert lines[-1].startswith("border_rank,2")
        assert "border_rank,2" in out

    @pytest.mark.parametrize("r_max", [[], ["--r-max", "100000000"]])
    def test_scan_stops_at_the_rank_bound(self, tmp_path, r_max):
        # every 2 x 2 state has tensor rank <= 2, so the Bell state's scan
        # ends at r = 3 whatever r_max is, the default 4 included
        proc = run_capped(tmp_path, "border-rank", "--example", "ghz:n=2", "--seed", "5", *r_max)
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "border_rank.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines] == ["r", "2", "3", "border_rank"]
        assert lines[-1] == "border_rank,2,"

    def test_requires_pure_state(self, capsys):
        code, _, err = run_cli(capsys, "border-rank", "--example", "strip:d=3,theta=pi/2")
        assert code == 4
        assert "pure state" in err


class TestGes:
    def test_ghz(self, capsys):
        code, out, _ = run_cli(capsys, "ges", "--example", "ghz:n=3", "--seed", "5")
        assert code == 0
        assert "genuinely_entangled,true" in out
        rows = [l for l in out.splitlines() if "|" in l and "," in l]
        assert len(rows) == 3
        for row in rows:
            assert abs(float(row.split(",")[1]) - 0.5) < 1e-8

    def test_not_genuinely_entangled(self, capsys, tmp_path):
        # |0> x Bell is product across the 1|23 cut
        bell = np.zeros(8)
        bell[[0, 3]] = 1 / math.sqrt(2)
        doc = {"dims": [2, 2, 2], "vectors": [[[float(v), 0.0] for v in bell]], "normalized": True}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "ges", str(path), "--seed", "5")
        assert code == 0
        assert "genuinely_entangled,false" in out

    @pytest.mark.parametrize("example", ["strip:d=3,theta=1", "ghz:n=2"])
    def test_two_parties_rejected_before_work(self, capsys, tmp_path, example):
        code, out, err = run_cli(capsys, "ges", "--example", example, "--out", str(tmp_path))
        assert code == 4
        assert "at least three parties" in err
        assert out == ""
        assert not list(tmp_path.iterdir())


class TestReproduce:
    def test_fig3_small(self, capsys, tmp_path):
        out_dir = tmp_path / "rep"
        code, _, _ = run_cli(
            capsys, "reproduce", "fig3", "--points", "5", "--seed", "5", "--out", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "fig3.csv").read_text().strip().splitlines()
        assert lines[0] == "a,b,c,analytic,computed,abs_error"
        assert len(lines) == 6
        for line in lines[1:]:
            assert float(line.split(",")[-1]) < 1e-8

    def test_examples_honour_zero_threshold(self, capsys, tmp_path):
        # E_2 of the W state is 5/9, so a threshold of 0.6 certifies rank 1
        code, out, _ = run_cli(
            capsys, "reproduce", "examples", "--zero-threshold", "0.6", "--seed", "5",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "wstate,border_rank,1,2" in out

    @pytest.mark.parametrize("target,flag,value", [
        ("fig3", "--points", "0"), ("fig3", "--points", "-3"), ("fig2", "--samples", "0"),
    ])
    def test_nonpositive_counts_rejected(self, capsys, tmp_path, target, flag, value):
        code, _, err = run_cli(capsys, "reproduce", target, flag, value, "--out", str(tmp_path))
        assert code == 4
        assert flag in err
        assert not list(tmp_path.iterdir())

    def test_unknown_target_rejected(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "fig9")
        assert code == 4


class TestErrorsAndExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--nope")
        assert code == 4
        assert "usage error" in err

    @pytest.mark.parametrize("flag", ["--zero-threshold"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_bad_tolerance_rejected_before_work(self, capsys, tmp_path, flag, value):
        code, out, err = run_cli(capsys, "compute", "--example", "strip:d=3,theta=pi/2", flag, value,
                                 "--out", str(tmp_path))
        assert code == 4
        assert flag in err
        assert out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--tol-grad", "--tol-loss"])
    @pytest.mark.parametrize("command", [
        ["compute", "--example", "strip:d=3,theta=pi/2"], ["border-rank", "--example", "dicke:n=3,k=1"],
        ["ges", "--example", "ghz:n=3"], ["reproduce", "fig1"],
    ], ids=lambda command: command[0])
    def test_stop_tolerance_flag_is_unknown(self, capsys, tmp_path, command, flag):
        # the stop tolerances are constants, not options: a run recorded
        # with either flag is refused before any work, and help omits them
        code, out, err = run_cli(capsys, *command, flag, "1e-9", "--out", str(tmp_path))
        assert code == 4
        assert "unrecognized arguments" in err and flag in err
        assert out == ""
        assert not list(tmp_path.iterdir())
        with pytest.raises(SystemExit):
            main([command[0], "--help"])
        assert flag not in capsys.readouterr().out

    @pytest.mark.parametrize("example", [
        "maxces:d1=nan,d2=2,d3=2", "maxces:d1=inf,d2=2,d3=2", "dicke:n=3,k=1e400",
        "strip:d=3,theta=pi/0", "strip:d=3,theta=.pi",
    ])
    def test_bad_catalog_number_rejected(self, capsys, tmp_path, example):
        code, out, err = run_cli(capsys, "compute", "--example", example, "--out", str(tmp_path))
        assert code == 4
        assert "usage error" in err and "number" in err
        assert out == ""
        assert not list(tmp_path.iterdir())

    def test_oversized_rank_budget_rejected_before_allocation(self, tmp_path):
        # without the level check, the parameter layout of 1e8 terms fails
        # to allocate under the cap
        proc = run_capped(tmp_path, "compute", "--example", "strip:d=3,theta=1", "--r", "100000000")
        assert proc.returncode == 4, proc.stderr
        assert "usage error" in proc.stderr and "tensor rank" in proc.stderr
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("example, trials", [
        ("strip:d=3,theta=1", "100000000"),  # their streams and draws would fill the cap
        ("strip:d=1000,theta=1", "300"),  # so would the sweep's 300 lanes of 999 x 1000 rows
    ])
    def test_oversized_trials_rejected_before_allocation(self, tmp_path, example, trials):
        proc = run_capped(tmp_path, "compute", "--example", example, "--trials", trials)
        assert proc.returncode == 4, proc.stderr
        assert "usage error" in proc.stderr and "budget" in proc.stderr
        assert not list(tmp_path.iterdir())

    def test_most_trials_the_budget_admits_fit_the_cap(self, tmp_path):
        # over 2 x 3 each trial is charged its 3 x 3 Gram matrix plus
        # TRIAL_AMPLITUDES for its records
        most = MAX_AMPLITUDES // (9 + TRIAL_AMPLITUDES)
        proc = run_capped(tmp_path, "compute", "--example", "strip:d=3,theta=1", "--trials", str(most))
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "compute.csv").read_text().splitlines()
        assert len(rows) == most + 2  # header, one row per trial, best

    @pytest.mark.parametrize("vectors", [
        [[[1e200, 0], [1e200, 0], [0, 0], [0, 0]]],  # |0>|+>, whose squared norm overflows
        [[[3e-320, 0], [3e-320, 0], [0, 0], [0, 0]]],  # and underflows
        [[[1e308, 0], [1e308, 0], [0, 0], [0, 0]], [[0, 0], [1e308, 0], [1e308, 0], [0, 0]]],
    ])
    def test_inputs_at_extreme_scales(self, capsys, tmp_path, vectors):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"dims": [2, 2], "vectors": vectors}))
        code, out, err = run_cli(capsys, "compute", str(path), "--seed", "1")
        assert code == 0, err
        assert 0.0 <= value_from_compute(out) <= 1.0
        if len(vectors) == 1:
            assert value_from_compute(out) < 1e-12  # a product state

    def test_non_integer_dims_rejected(self, capsys, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"dims": [2.5, 2], "vectors": [[[1, 0]] * 4]}))
        code, out, err = run_cli(capsys, "compute", str(path))
        assert (code, out) == (2, "")
        assert "integers" in err

    @pytest.mark.parametrize("example", [
        "ghz:n=30","ghz:n=3,d=1000", "dicke:n=30,k=1", "mmul:n=20", "maxces:d1=1000,d2=1000,d3=1000",
        "maxces:d1=256,d2=256,d3=256", "strip:d=20000,theta=1", "ges:d=300,theta=1",
    ])
    def test_oversized_example_rejected_before_allocation(self, tmp_path, example):
        # without the size budget the builder's allocation fails under the cap
        proc = run_capped(tmp_path, "compute", "--example", example)
        assert proc.returncode == 4, proc.stderr
        assert "budget" in proc.stderr
        assert not list(tmp_path.iterdir())

    def test_oversized_input_file_rejected_before_allocation(self, tmp_path):
        # 100 empty vectors over 4096 x 4096: a file of a few hundred bytes
        # whose rows would take 25 GiB, refused before any row is made
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"dims": [4096, 4096], "vectors": [[]] * 100}))
        proc = run_capped(tmp_path, "compute", str(path))
        assert proc.returncode == 2, proc.stderr
        assert "budget" in proc.stderr and "Traceback" not in proc.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["in.json"]

    @pytest.mark.parametrize("argv", [
        ["compute", "--example", "strip:d=3,theta=1", "--out", "{file}"],
        ["compute", "--example", "strip:d=3,theta=1", "--out", "{file}/sub"],
        ["compute", "--example", "strip:d=3,theta=1", "--emit-closest", "{dir}"],
        ["reproduce", "fig1", "--out", "{file}"],
        ["border-rank", "--example", "ghz:n=2", "--out", "{taken}"],
    ])
    def test_unwritable_output_rejected_before_work(self, capsys, tmp_path, argv):
        # each path fails to be written, which would end the finished run
        # in a traceback: it is refused before anything runs or prints
        (tmp_path / "file").write_text("kept")
        (tmp_path / "dir").mkdir()
        (tmp_path / "taken" / "border_rank.manifest.json").mkdir(parents=True)
        paths = {name: tmp_path / name for name in ("file", "dir", "taken")}
        code, out, err = run_cli(capsys, *[arg.format(**paths) for arg in argv])
        assert (code, out) == (4, "")
        assert "usage error: cannot write" in err
        assert (tmp_path / "file").read_text() == "kept"
        assert not list((tmp_path / "dir").iterdir())
        assert [p.name for p in (tmp_path / "taken").iterdir()] == ["border_rank.manifest.json"]

    @pytest.mark.parametrize("entry", [True, "0.5", None])
    def test_non_numeric_amplitude_rejected(self, capsys, tmp_path, entry):
        # a boolean or numeric string is not read as a number
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"dims": [2, 2], "vectors": [[[1, 0], [entry, 0], [0, 0], [0, 0]]]}))
        code, out, err = run_cli(capsys, "compute", str(path))
        assert (code, out) == (2, "")
        assert "vectors[0][1]': non-numeric entry" in err

    def test_integer_amplitude_beyond_float_range_rejected(self, capsys, tmp_path):
        path = tmp_path / "in.json"
        path.write_text('{"dims": [2, 2], "vectors": [[[1%s, 0], [0, 0], [0, 0], [0, 0]]]}' % ("0" * 400))
        code, out, err = run_cli(capsys, "compute", str(path))
        assert (code, out) == (2, "")
        assert "entries must be finite" in err

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "rankgauge", "--version"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"rankgauge {rankgauge.__version__}"

    def test_usage_error_no_input(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--r", "2")
        assert code == 4

    def test_usage_error_both_inputs(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        code, _, _ = run_cli(capsys, "compute", str(path), "--example", "ghz")
        assert code == 4

    def test_input_error_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "compute", "/nonexistent/file.json", "--r", "2")
        assert code == 2
        assert "input error" in err

    def test_input_error_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "compute", str(path), "--r", "2")
        assert code == 2
        assert "line 1, column 2" in err

    def test_input_error_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dims": [2], "note": "\xe9"}')
        code, _, err = run_cli(capsys, "compute", str(path), "--r", "2")
        assert code == 2
        assert "UTF-8" in err

    def test_negative_seed_rejected_before_input(self, capsys):
        # a missing input file would exit 2: the seed is checked first
        code, out, err = run_cli(capsys, "compute", "/nonexistent/file.json", "--seed", "-1")
        assert (code, out) == (4, "")
        assert "seed must be >= 0" in err

    @pytest.mark.parametrize("example", ["strip:d=3,theta=pi/2,zi=1", "strip:d=3,d=4,theta=pi/2"])
    def test_bad_catalog_key_rejected(self, capsys, tmp_path, example):
        code, out, err = run_cli(capsys, "compute", "--example", example, "--out", str(tmp_path))
        assert code == 4
        assert "usage error" in err and "(its keys: d, theta, xi)" in err
        assert out == ""
        assert not list(tmp_path.iterdir())
