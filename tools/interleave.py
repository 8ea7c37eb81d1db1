"""Interleaved in-process timing of one benchmark workload on two checkouts.

    python3 tools/interleave.py DIR_A DIR_B --workload W --rounds N --seed S

Both checkouts' rankgauge packages are loaded into this one process, each
with its own `bench/workloads.py` loaded under a distinct module name, so
each side's ops call only its own package. Every op of a round runs on
both sides back to back, the side that goes first alternating from op to
op, so drift of the machine's speed reaches both sides alike: timing
pairs this way resolves differences of about 1%, where separate
benchmark processes on a shared machine spread by tens of percent. The
seed and the round index give the ops' inputs, as in `bench/worker.py`.

Prints each side's p50 and p90 op latency and their B / A ratios, the
median of the per-op ratios, the ops in which B was faster, each side's
median round wall (the sum of its op latencies in a round; the
benchmark's wall_s is the median of its round walls) with their B / A
ratio and the rounds in which B was faster, the ops whose value and
verdict are identical on both sides (values compared as float64 bits),
and each side's count of failed checks. BLAS runs one thread unless the
caller sets OPENBLAS_NUM_THREADS / OMP_NUM_THREADS. No op's failure is
forgiven: every op's result is checked by its own side's oracle
(`Op.check`), and the first op that fails its check on either side, or
raises, stops the run; a failed check exits nonzero naming the op and the
side.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def load_side(checkout: Path, name: str):
    """`bench/workloads.py` of `checkout` as module `name`, bound to the
    checkout's own rankgauge. The package's modules leave sys.modules
    afterwards, so the next side imports its own; the loaded ones stay
    reachable through the workloads module."""
    src = str(checkout.resolve() / "src")
    sys.path.insert(0, src)
    try:
        package = importlib.import_module("rankgauge")
        if Path(package.__file__).resolve().parent != Path(src) / "rankgauge":
            raise SystemExit(f"imported rankgauge from {package.__file__}, not from {src}")
        spec = importlib.util.spec_from_file_location(name, checkout / "bench" / "workloads.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(src)
        for key in [k for k in sys.modules if k == "rankgauge" or k.startswith("rankgauge.")]:
            del sys.modules[key]
    return module


def timed(op) -> tuple[float, float, str]:
    t = time.perf_counter()
    value, verdict = op.run()
    return time.perf_counter() - t, float(value), verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = [load_side(args.a, "workloads_a"), load_side(args.b, "workloads_b")]
    workloads = [side.WORKLOADS[args.workload] for side in sides]
    inputs = [w.build(args.seed) for w in workloads]
    lat, walls, same, failed = ([], []), ([], []), 0, [0, 0]
    for k in range(args.rounds):
        rounds = [w.ops(x, args.seed, k) for w, x in zip(workloads, inputs)]
        for j, pair in enumerate(zip(*rounds)):
            order = (0, 1) if (k + j) % 2 == 0 else (1, 0)
            out = [None, None]
            for s in order:
                out[s] = timed(pair[s])
            for s in (0, 1):
                lat[s].append(out[s][0])
                failed[s] += not pair[s].check(out[s][1], out[s][2])
            if any(failed):
                print(f"failed checks  A {failed[0]}  B {failed[1]}")
                bad = " and ".join(label for label, n in zip("AB", failed) if n)
                raise SystemExit(f"op {pair[0].name} of round {k} failed its check on side {bad}")
            same += out[0][2] == out[1][2] and out[0][1].hex() == out[1][1].hex()
        for s in (0, 1):
            walls[s].append(sum(lat[s][-len(rounds[s]):]))
    n = len(lat[0])
    p50 = [statistics.median(x) for x in lat]
    p90 = [statistics.quantiles(x, n=10, method="inclusive")[8] if n > 1 else x[0] for x in lat]
    ratios = [b / a for a, b in zip(*lat)]
    wall = [statistics.median(x) for x in walls]
    for label, side in zip("AB", sides):
        print(f"{label}: {Path(side.optimizer.__file__).parent}")
    print(f"ops {n} ({args.rounds} rounds of {args.workload}, seed {args.seed})")
    print(f"p50 s    A {p50[0]:.6g}  B {p50[1]:.6g}  B/A {p50[1] / p50[0]:.4f}")
    print(f"p90 s    A {p90[0]:.6g}  B {p90[1]:.6g}  B/A {p90[1] / p90[0]:.4f}")
    print(f"per-op B/A median {statistics.median(ratios):.4f}")
    print(f"B faster in {sum(r < 1.0 for r in ratios)} of {n} ops")
    print(f"round wall s  A {wall[0]:.6g}  B {wall[1]:.6g}  B/A {wall[1] / wall[0]:.4f}")
    print(f"B faster in {sum(b < a for a, b in zip(*walls))} of {args.rounds} rounds")
    print(f"identical values and verdicts in {same} of {n} ops")
    print(f"failed checks  A {failed[0]}  B {failed[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
