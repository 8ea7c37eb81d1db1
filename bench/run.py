"""rankgauge benchmark: time to verdict on two certification workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in fresh Python
processes (bench/worker.py) with the user's defaults: OptimConfig()
and one worker thread. BLAS runs one thread unless the caller sets
OPENBLAS_NUM_THREADS / OMP_NUM_THREADS: on a shared 2-vCPU VM,
ces-tripartite rounds took 0.99-2.22 s with two BLAS threads against
1.01-1.53 s with one, at no gain in the median. With --trace 0 the
end-to-end metrics of BENCHMARK.json are reported; set-up is timed in
SETUP_SAMPLES fresh processes (all but the measuring one stop after
building the inputs; half of them start before it and half after it, so
the median spans the run) and its median is reported. With --trace 1 one
traced process runs a fixed number of rounds and reports the per-layer
metrics; its spans are saved under .bench_trace/. Every verdict is
checked against an oracle; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
DEADLINE_S = 170.0


def _worker(args, extra, deadline):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    env = {var: "1" for var in BLAS_THREAD_VARS} | dict(os.environ)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.exit(f"worker {' '.join(extra) or 'run'} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(main, setups) -> dict:
    latencies = [r["latency_s"] for r in main["ops"]]
    passed = sum(r["ok"] for r in main["ops"])
    return {
        "wall_s": (statistics.median(main["round_walls"]), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_p90_s": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "s"),
        "pass_ratio": (passed / len(latencies), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rankgauge" / "__init__.py").is_file():
        sys.exit(f"no rankgauge sources under {ROOT / 'src'}; run from a checkout")
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        main_run = _worker(args, ["--trace"], deadline)
        metrics = {k: (v["value"], v["unit"]) for k, v in main_run["layers"].items()}
    else:
        def setup_only():
            return _worker(args, ["--setup-only"], deadline)["setup_s"]

        setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
        main_run = _worker(args, [], deadline)
        setups.append(main_run["setup_s"])
        setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
        metrics = end_to_end(main_run, setups)

    ops = main_run["ops"]
    failed = sum(not r["ok"] for r in ops)
    digests = main_run["round_digests"]
    for r in ops:
        if not r["ok"]:
            print(f"FAILED round {r['round']} {r['op']}: verdict {r['verdict']} value {r['value']!r}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    record = {
        "workload": args.workload,
        "rounds": len(digests),
        "digest": digests[0],
        "round_digests": digests,
        "env": main_run["env"],
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
