"""Command-line front end.

Subcommands: `compute` (E_r of a subspace, state or mixed-state support),
`border-rank` (transition scan for pure states), `ges` (per-bipartition
scan), and `reproduce` (regenerate the validation data sets as CSV).
Every result file gets a sibling `<name>.manifest.json` recording the
exact invocation; re-running the recorded argv reproduces the values bit
for bit.

Exit codes: 0 success, 2 input error, 3 optimization failure, 4 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .catalog import (
    StripParams,
    build_example,
    catalog_help,
    dicke_state,
    example3_state,
    matrix_mult_tensor,
    max_ces_subspace,
    strip_e2_closed_form,
    strip_subspace,
    tiles_bound_entangled_state,
    upb_3qubit_e2_closed_form,
    upb_3qubit_subspace,
    w_type_e2_closed_form,
    w_type_state,
    WTypeCoeffs,
)
from .errors import InputError, OptimizationError, RankgaugeError, UsageError
from .measures import (
    ZERO_THRESHOLD,
    clamp01,
    er_pure,
    er_subspace,
    genuine_entanglement_scan,
    is_genuinely_entangled,
    minimal_rank_scan,
    robustness_experiment,
    support_bound_er,
)
from .optimizer import OptimConfig, run_certification
from .subspace import (
    MixedState,
    Subspace,
    complement_basis,
    read_json,
    span_of,
    state_from_dict,
    state_to_dict,
    subspace_from_dict,
    support_space,
)
from .tensor_core import PureState

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through our codes
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _int_at_least(low: int):
    """argparse type: an integer >= low, so a bad count fails before any input is read."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0, so a bad threshold fails before any input is read."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _sha256(data: bytes) -> str:
    return f"sha256:{hashlib.sha256(data).hexdigest()}"


class _Outcome(NamedTuple):
    """What one subcommand body produced; `main` times, prints and records it."""

    lines: list[str]      # CSV rows, header first
    extra: dict           # command-specific manifest config
    shown: list[str]      # printed before the wall time
    trailer: list[str]    # printed after the wall time


def _as_subspace_for_compute(obj):
    """Normalize a catalog/file object for compute: (subspace, note)."""
    if isinstance(obj, Subspace):
        return obj, None
    if isinstance(obj, PureState):
        return span_of(obj), None
    if isinstance(obj, MixedState):
        return support_space(obj), "support-space lower bound for the mixed state"
    raise UsageError(f"cannot compute on object of type {type(obj).__name__}")


def _compute(args, cfg: OptimConfig, obj) -> _Outcome:
    sub, note = _as_subspace_for_compute(obj)
    report = run_certification(sub, args.r, cfg)
    value = clamp01(report.best_value)
    best = report.per_trial[report.best_trial]
    shown = [f"E_{args.r} = {_fmt(value)}"]
    if note:
        shown.append(f"note: {note}")
    shown.append(f"termination = {best.reason} (best trial {report.best_trial})")
    lines = ["trial,value,iterations,converged,termination,sweeps,grad_inf"]
    for i, d in enumerate(report.per_trial):
        finite = math.isfinite(d.value)
        converged = str(d.converged).lower()
        grad_inf = _fmt(d.grad_inf)  # inf for a failed trial
        shown.append(f"trial {i}: value={_fmt(d.value) if finite else 'failed'} "
                     f"iterations={d.iterations} converged={converged} reason={d.reason} "
                     f"sweeps={d.sweeps} grad_inf={grad_inf}")
        lines.append(f"{i},{_fmt(d.value) if finite else 'inf'},{d.iterations},{converged},{d.reason},"
                     f"{d.sweeps},{grad_inf}")
    lines.append(f"best,{_fmt(value)},,,,,")
    trailer = []
    if args.emit_closest:
        _write_lines(Path(args.emit_closest), [json.dumps(state_to_dict(report.best_state))])
        trailer.append(f"closest state written to {args.emit_closest}")
    return _Outcome(lines, {"r": args.r}, shown, trailer)


def _border_rank(args, cfg: OptimConfig, obj) -> _Outcome:
    if isinstance(obj, Subspace) and obj.dim == 1:
        obj = PureState(obj.dims, obj.basis[0])
    if not isinstance(obj, PureState):
        raise UsageError("border-rank requires a pure state (single-vector input)")
    scan = minimal_rank_scan(span_of(obj), args.r_max, args.zero_threshold, cfg)
    lines = ["r,value,termination"]
    lines += [f"{e.r},{_fmt(e.value)},{e.termination}" for e in scan.entries]
    lines.append(f"border_rank,{scan.rank_label()},")
    return _Outcome(lines, {"r_max": args.r_max}, lines, [])


def _ges(args, cfg: OptimConfig, obj) -> _Outcome:
    if isinstance(obj, PureState):
        sub = span_of(obj)
    elif isinstance(obj, Subspace):
        sub = obj
    else:
        raise UsageError("ges requires a subspace or pure state input")
    values = genuine_entanglement_scan(sub, cfg)
    verdict = is_genuinely_entangled(values, args.zero_threshold)
    lines = ["bipartition,value"]
    lines += [f"{cut},{_fmt(val)}" for cut, val in values.items()]
    lines.append(f"genuinely_entangled,{str(verdict).lower()}")
    return _Outcome(lines, {}, lines, [])


def _reproduce_fig1(args, cfg: OptimConfig):
    lines = ["d,theta,analytic,computed"]
    for d in (3, 4, 5, 6):
        for j in range(1, 26):
            theta = math.pi * j / 26.0
            params = StripParams(d, theta)
            computed = er_subspace(strip_subspace(params), 2, cfg)
            lines.append(f"{d},{_fmt(theta)},{_fmt(strip_e2_closed_form(params))},{_fmt(computed)}")
    return lines, {"d_values": [3, 4, 5, 6], "theta_points": 25}, lines


def _reproduce_fig2(args, cfg: OptimConfig):
    grid = [0.1 * i for i in range(7)]
    lines = ["theta,trace_norm,min_e2,samples"]
    for label, theta in (("pi/2", math.pi / 2), ("pi/4", math.pi / 4), ("pi/6", math.pi / 6)):
        sub = strip_subspace(StripParams(3, theta))
        result = robustness_experiment(sub, 2, grid, args.samples, cfg)
        for t, v in zip(result.trace_norm_grid, result.min_values):
            lines.append(f"{label},{_fmt(t)},{_fmt(v)},{args.samples}")
    return lines, {"d": 3, "grid": grid, "samples": args.samples}, lines


def _reproduce_fig3(args, cfg: OptimConfig):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(3,)))
    lines = ["a,b,c,analytic,computed,abs_error"]
    for _ in range(args.points):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        coeffs = WTypeCoeffs(*v)
        analytic = w_type_e2_closed_form(coeffs)
        computed = er_pure(w_type_state(coeffs), 2, cfg)
        lines.append(
            f"{_fmt(v[0])},{_fmt(v[1])},{_fmt(v[2])},{_fmt(analytic)},"
            f"{_fmt(computed)},{_fmt(abs(computed - analytic))}"
        )
    return lines, {"points": args.points}, lines


TABLE2_DIMS = [(2, 2, 2), (2, 2, 4), (2, 2, 6), (2, 3, 4), (2, 3, 6), (3, 3, 6)]
TABLE2_DIMS_FULL = [(2, 3, 8), (3, 3, 8), (3, 4, 7), (4, 4, 7), (4, 5, 10)]


def _reproduce_table2(args, cfg: OptimConfig):
    rows = TABLE2_DIMS + (TABLE2_DIMS_FULL if args.full else [])
    lines = ["d1,d2,d3,e2"]
    # per-row times go to stdout only, so a replayed manifest rewrites the CSV byte for byte
    shown = ["d1,d2,d3,e2,wall_time_s"]
    for d1, d2, d3 in rows:
        sub = max_ces_subspace(d1, d2, d3)
        start = time.perf_counter()
        value = er_subspace(sub, 2, cfg)
        wall = time.perf_counter() - start
        lines.append(f"{d1},{d2},{d3},{_fmt(value)}")
        shown.append(f"{lines[-1]},{wall:.3f}")
    return lines, {"rows": [list(r) for r in rows], "full": args.full}, shown


def _reproduce_examples(args, cfg: OptimConfig):
    lines = ["name,quantity,computed,reference"]

    tiles = support_bound_er(tiles_bound_entangled_state(), 2, cfg)
    lines.append(f"tiles,e2_support_bound,{_fmt(tiles)},0.0284")

    e3 = support_bound_er(example3_state(), 3, cfg)
    lines.append(f"example3,e3_support_bound,{_fmt(e3)},0.06558")

    upb3 = er_subspace(complement_basis(upb_3qubit_subspace()), 2, cfg)
    lines.append(f"upb3_complement,e2,{_fmt(upb3)},{_fmt(upb_3qubit_e2_closed_form())}")

    strip = er_subspace(strip_subspace(StripParams(3, math.pi / 2)), 2, cfg)
    lines.append(f"strip_d3,e2,{_fmt(strip)},0.25")

    w_scan = minimal_rank_scan(span_of(dicke_state(3, 1)), 3, args.zero_threshold, cfg)
    lines.append(f"wstate,border_rank,{w_scan.rank_label()},2")

    if args.full:
        hard = dataclasses.replace(cfg, max_iters=30000, trials=10)
        scan = minimal_rank_scan(span_of(matrix_mult_tensor(2)), 8, args.zero_threshold, hard)
        e7 = next(e.value for e in scan.entries if e.r == 7)
        e8 = next(e.value for e in scan.entries if e.r == 8)
        lines.append(f"mmul2,e7,{_fmt(e7)},0.125")
        lines.append(f"mmul2,e8,{_fmt(e8)},0")
        lines.append(f"mmul2,border_rank,{scan.rank_label()},7")
    return lines, {"full": args.full}, lines


REPRODUCE = {
    "fig1": _reproduce_fig1,
    "fig2": _reproduce_fig2,
    "fig3": _reproduce_fig3,
    "table2": _reproduce_table2,
    "examples": _reproduce_examples,
}


def _reproduce(args, cfg: OptimConfig, obj) -> _Outcome:
    lines, extra, shown = REPRODUCE[args.target](args, cfg)
    return _Outcome(lines, extra, shown, [f"wrote {args.out}/{args.target}.csv"])


def _build_parser() -> _Parser:
    parser = _Parser(prog="rankgauge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rankgauge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, body, with_input=True):
        p.set_defaults(body=body)
        if with_input:
            p.add_argument("input", nargs="?", default=None, help="subspace/state JSON file")
            p.add_argument("--example", default=None, metavar="SPEC",
                           help="catalog entry, e.g. strip:d=3,theta=pi/2 (see --list-examples)")
        p.add_argument("--trials", type=int, default=OptimConfig.trials,
                       help="independent restarts (default %(default)s)")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed (default %(default)s)")
        p.add_argument("--max-iters", type=int, default=OptimConfig.max_iters, help="iteration cap per trial")
        p.add_argument("--zero-threshold", type=_positive_float, default=ZERO_THRESHOLD,
                       help="values below this certify as zero")
        p.add_argument("--out", default=None, metavar="DIR", help="write CSV + manifest here")

    p_compute = sub.add_parser("compute", help="geometric measure of r-bounded rank")
    add_common(p_compute, _compute)
    p_compute.add_argument("--r", type=_int_at_least(2), default=2,
                           help="entanglement level r >= 2 (default 2)")
    p_compute.add_argument("--emit-closest", default=None, metavar="PATH",
                           help="write the minimizing bounded-rank state as JSON")
    p_compute.add_argument("--list-examples", action="store_true", help="list catalog entries and exit")

    p_border = sub.add_parser("border-rank", help="zero/nonzero transition scan of a pure state")
    add_common(p_border, _border_rank)
    p_border.add_argument("--r-max", type=_int_at_least(2), default=4,
                          help="largest level scanned (default 4; at most D / max(dims) + 1)")

    p_ges = sub.add_parser("ges", help="E_2 across every bipartition of a multipartite subspace")
    add_common(p_ges, _ges)

    p_rep = sub.add_parser("reproduce", help="regenerate validation data sets")
    p_rep.add_argument("target", choices=list(REPRODUCE))
    add_common(p_rep, _reproduce, with_input=False)
    p_rep.set_defaults(out="out")
    p_rep.add_argument("--samples", type=_int_at_least(1), default=200,
                       help="perturbation samples per grid point for fig2 (default 200)")
    p_rep.add_argument("--points", type=_int_at_least(1), default=1000,
                       help="random coefficient triples for fig3 (default 1000)")
    p_rep.add_argument("--full", action="store_true",
                       help="include the large optional rows/cases")
    return parser


def _load_input(args):
    """The command's input as (object, content hash, source): the reproduce
    target, a catalog entry or a JSON file. A file is hashed and parsed from
    the same bytes."""
    if args.command == "reproduce":
        return None, _sha256(args.target.encode()), None
    if args.example is not None and args.input is not None:
        raise UsageError("pass either an input file or --example, not both")
    if args.example is not None:
        obj = build_example(args.example)
        return obj, _sha256(args.example.strip().encode()), f"example:{args.example}"
    if args.input is None:
        raise UsageError("an input file or --example is required")
    raw, payload = read_json(args.input)
    vectors = payload.get("vectors") if isinstance(payload, dict) else None
    if isinstance(vectors, list) and len(vectors) == 1:
        obj = state_from_dict(payload)
    else:
        obj = subspace_from_dict(payload)
    return obj, _sha256(raw), str(Path(args.input))


def _result_name(args) -> str:
    """Base name of the CSV and its manifest."""
    return args.target if args.command == "reproduce" else args.command.replace("-", "_")


def _output_files(args) -> list[Path]:
    """Every file the command will write: the CSV and manifest under --out
    and the --emit-closest state."""
    paths = [Path(args.emit_closest)] if getattr(args, "emit_closest", None) else []
    if args.out is not None:
        paths += [Path(args.out) / f"{_result_name(args)}{ext}" for ext in (".csv", ".manifest.json")]
    return paths


def _check_writable(path: Path) -> None:
    """Refuse a file that cannot be written, before any work: a directory
    in its place, or a nearest existing ancestor that is not a writable
    directory."""
    if path.is_dir():
        raise UsageError(f"cannot write {path}: it is a directory")
    ancestor = path.parent
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise UsageError(f"cannot write {path}: {ancestor} is not a writable directory")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def main(argv=None) -> int:
    """The one pipeline every subcommand shares: parse -> config ->
    output paths -> input -> timed body -> print -> CSV + manifest."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "list_examples", False):
            print(catalog_help())
            return 0
        cfg = OptimConfig(max_iters=args.max_iters, trials=args.trials, seed=args.seed)
        for path in _output_files(args):
            _check_writable(path)
        obj, input_hash, source = _load_input(args)
        start = time.perf_counter()
        outcome = args.body(args, cfg, obj)
        wall = time.perf_counter() - start
        print("\n".join(outcome.shown))
        print(f"wall_time_s = {wall:.3f}")
        for line in outcome.trailer:
            print(line)
        if args.out is not None:
            config = {**dataclasses.asdict(cfg), **outcome.extra, "zero_threshold": args.zero_threshold}
            if source is not None:
                config["source"] = source
            seed = config.pop("seed")
            manifest = {
                "artifact_version": __version__,
                "command": args.command,
                "argv": argv,
                "config": config,
                "seed": seed,
                "input_hash": input_hash,
                "wall_time_s": wall,
            }
            out, name = Path(args.out), _result_name(args)
            _write_lines(out / f"{name}.csv", outcome.lines)
            _write_lines(out / f"{name}.manifest.json", [json.dumps(manifest, indent=2, sort_keys=True)])
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 4
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OptimizationError as exc:
        print(f"optimization failure: {exc}", file=sys.stderr)
        return 3
    except RankgaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
