"""Alternating parent/change pairs of the benchmark, with the verdict
rule for a claimed gain.

    python3 tools/pairs.py DIR_PARENT DIR_CHANGE --workload W --pairs N \
        --seconds S --seed S0 [--json OUT]

DIR_PARENT and DIR_CHANGE are two checkouts. Pair i runs
`python3 bench/run.py --workload W --seed S0+i --seconds S --trace 0` in
each of them, one run at a time: the parent first on even pairs, the
change first on odd ones. For every end-to-end metric of the parent's
BENCHMARK.json it prints each side's median and quartiles, the pairs each
side won (ties count for neither) and a verdict:

- `gain`: the change won at least 9 of every 10 pairs and its median is
  better than the parent's by more than the parent's interquartile range;
- `better`: not a gain, but every run of the change is better than every
  run of the parent, however widely the runs spread;
- `worse`: the change's median is worse than the parent's by more than
  the metric's bound, relative to the parent's median;
- `unresolved`: none of these, and the parent's interquartile range
  exceeds the bound, so the runs spread too widely to tell;
- `within bound`: none of these, and the runs resolve the bound.

It also prints in how many pairs the two runs' round digests (the hashes
of each round's op values and verdicts in the `record` line of
`bench/run.py`) agree over the rounds both ran, which shows whether
parent and change did the same work.

Both checkouts should be in the same state: where only one holds
compiled bytecode under src/, its imports skip compilation and setup_s
compares cached against uncached imports, so the tool warns.

--json writes every run, its round digests included, and every summary.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in `checkout`: its result, round digests and
    environment."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    result = lines[-1]
    record = next((line["record"] for line in lines if "record" in line), {})
    return {"seed": seed, "correct": result["correct"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "round_digests": record.get("round_digests", []), "env": record.get("env", {})}


def same_work(a: list[str], b: list[str]) -> bool:
    """Whether two runs' round digests agree over the rounds both ran."""
    n = min(len(a), len(b))
    return n > 0 and a[:n] == b[:n]


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, wins and verdict of one metric over the pairs."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    gain = sign * (med_p - med_c)
    if 10 * wins >= 9 * len(parent) and gain > iqr:
        verdict = "gain"
    elif all(sign * (p - c) > 0 for p in parent for c in change):
        verdict = "better"
    elif -gain > metric["bound"] * abs(med_p):
        verdict = "worse"
    elif iqr > metric["bound"] * abs(med_p):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent_runs": parent, "change_runs": change,
        "parent_median": med_p, "parent_q1_q3": [q1, q3],
        "change_median": med_c, "change_q1_q3": list(quartiles(change)),
        "change_vs_parent_median": (med_c - med_p) / med_p if med_p else None,
        "pairs_change_better": wins, "pairs_parent_better": losses, "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    cached = {side: any((getattr(args, side) / "src").rglob("__pycache__")) for side in ("parent", "change")}
    if cached["parent"] != cached["change"]:
        print(f"warning: only the {'parent' if cached['parent'] else 'change'} holds compiled bytecode "
              "under src/, so setup_s compares cached against uncached imports", file=sys.stderr)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(getattr(args, side), args.workload, args.seed + i, args.seconds)
            run["first"] = side == order[0]
            runs[side].append(run)
            print(f"pair {i} seed {args.seed + i} {side}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()), flush=True)
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        summary[name] = summarize(metric, [r["metrics"][name] for r in runs["parent"]],
                                  [r["metrics"][name] for r in runs["change"]])
    print(f"\n{'metric':12s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} "
          f"{'change':>8s} wins  verdict")
    for name, s in summary.items():
        (p1, p3), (c1, c3) = s["parent_q1_q3"], s["change_q1_q3"]
        rel = s["change_vs_parent_median"]
        print(f"{name:12s} {s['parent_median']:.4g} [{p1:.4g}, {p3:.4g}]".ljust(47)
              + f" {s['change_median']:.4g} [{c1:.4g}, {c3:.4g}]".ljust(35)
              + f" {'' if rel is None else f'{100 * rel:+.1f}%':>8s} "
              + f"{s['pairs_change_better']:2d}/{args.pairs}  {s['verdict']}")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"failed ops: parent {failed['parent']}, change {failed['change']}")
    same = sum(same_work(p["round_digests"], c["round_digests"]) for p, c in zip(runs["parent"], runs["change"]))
    print(f"round digests match in {same} of {args.pairs} pairs")
    if args.json:
        args.json.write_text(json.dumps({
            "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
            "seeds": [args.seed, args.seed + args.pairs - 1], "failed_ops": failed, "digests_match": same,
            "env": runs["parent"][0]["env"], "runs": runs, "end_to_end": summary,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
