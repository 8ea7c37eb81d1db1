"""One workload in a fresh Python process; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

Set-up is timed from the first statement, so it covers the numpy and
rankgauge imports and the construction of the workload's inputs. The
rankgauge package is imported from the checkout's `src/`, never from an
installed copy.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# Untraced runs repeat rounds until --seconds have passed, but never fewer
# than this; traced runs do exactly this many, so their counts repeat.
MIN_ROUNDS = 3


def run_rounds(workload, inputs, seed: int, *, seconds: float, rounds=None, recorder=None, ops=None):
    """Run whole rounds of the workload's ops and check every verdict.

    `rounds` fixes the round count (else rounds repeat until `seconds`
    have passed and at least MIN_ROUNDS are done); `ops` optionally keeps
    only the first ops of each round.
    """
    records, walls, digests = [], [], []
    begin = time.perf_counter()
    k = 0
    while (k < rounds) if rounds is not None else (k < MIN_ROUNDS or time.perf_counter() - begin < seconds):
        todo = workload.ops(inputs, seed, k)[:ops]
        digest = hashlib.sha256()
        start = time.perf_counter()
        for op in todo:
            if recorder is not None:
                recorder.op = len(records)
            t = time.perf_counter()
            try:
                value, verdict = op.run()
                latency = time.perf_counter() - t
                ok = op.check(value, verdict)
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                latency = time.perf_counter() - t
                traceback.print_exc(file=sys.stderr)
                value, verdict, ok = math.nan, f"error:{type(exc).__name__}", False
            digest.update(f"{op.name}|{float(value).hex()}|{verdict}\n".encode())
            records.append({"round": k, "op": op.name, "latency_s": latency,
                            "value": value, "verdict": verdict, "ok": ok})
        walls.append(time.perf_counter() - start)
        digests.append(digest.hexdigest())
        k += 1
    return {"ops": records, "round_walls": walls, "round_digests": digests}


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def _import_program():
    src = ROOT / "src"
    if not (src / "rankgauge" / "__init__.py").is_file():
        sys.exit(f"no rankgauge sources under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import rankgauge

    if Path(rankgauge.__file__).resolve().parent != src / "rankgauge":
        sys.exit(f"imported rankgauge from {rankgauge.__file__}, not from {src}")
    import workloads

    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workloads = _import_program()
    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    if not args.trace:
        inputs = workload.build(args.seed)
        setup_s = time.perf_counter() - _T0
        out = {"setup_s": setup_s, "import_s": import_s}
        if not args.setup_only:
            out.update(run_rounds(workload, inputs, args.seed, seconds=args.seconds))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["env"] = environment(args.seed)
        print(json.dumps(out))
        return 0

    import tracing

    rec = tracing.Recorder()
    with tracing.traced(rec) as installed:
        inputs = workload.build(args.seed)
        out = run_rounds(workload, inputs, args.seed, seconds=args.seconds,
                         rounds=MIN_ROUNDS, recorder=rec)
    trace_dir = ROOT / ".bench_trace"
    trace_dir.mkdir(exist_ok=True)
    rec.save(trace_dir / f"{args.workload}-seed{args.seed}.npz")
    ops_s = sum(r["latency_s"] for r in out["ops"])
    metrics = tracing.layer_metrics(rec, installed, import_s=import_s, ops_s=ops_s,
                                    span_cost_s=tracing.span_cost())
    out["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    out["env"] = environment(args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
