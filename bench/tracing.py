"""Per-layer spans for rankgauge, recorded from outside the package.

`traced(recorder)` replaces each layer function, in every loaded
rankgauge module that binds it (re-imports included), by a wrapper that
records one span: layer, start, end, parent span and op id. Spans stay in
memory until `Recorder.save`. A hook that the package no longer has is
skipped; a layer left with no hook has its metrics absent instead of
failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from array import array
from collections import Counter

# Layer name -> "module:attribute" targets (attribute may be Class.method).
LAYERS = {
    "inputs": (
        "rankgauge.catalog:strip_subspace",
        "rankgauge.catalog:max_ces_subspace",
        "rankgauge.subspace:from_spanning_set",
    ),
    "forward_map": ("rankgauge.rank_param:forward_map",),
    "value_and_grad": (
        "rankgauge.objective:LossKernel.value_and_grad",
        "rankgauge.objective:LossKernel.value",
    ),
    "two_loop": ("rankgauge.optimizer:_two_loop",),
    "line_search": ("rankgauge.optimizer:_wolfe_line_search",),
    "lbfgs": ("rankgauge.optimizer:lbfgs_minimize",),
    "trial": ("rankgauge.optimizer:_minimize_kernel",),
    "certification": ("rankgauge.optimizer:run_certification",),
    "scan": (
        "rankgauge.measures:minimal_rank_scan",
        "rankgauge.measures:border_rank_scan",
    ),
}
STOP_REASONS = ("gradient-tolerance", "loss-floor", "loss-plateau", "iteration-cap")
# Trials whose value lies this close to the best one count as agreeing.
AGREE_TOL = 1e-9


class Recorder:
    """Spans in start order, plus counts observed at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.op = -1             # set by the caller before each op
        self._stack: list[int] = []
        self.kernel_calls: Counter = Counter()  # (method, dims, r, k) -> calls
        self.trials: list[tuple[int, str, int]] = []  # (iterations, stop reason, reinits)
        self.agreeing = 0

    def layer_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, layer: int) -> int:
        i = len(self.start)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            layer=np.frombuffer(self.layer, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op_id, dtype=np.int64),
        )


def self_times(start, end, parent) -> list[float]:
    """Span duration minus the part of it covered by its child spans.

    Spans must be indexed in start order. Overlapping children count once
    and a child's time outside its parent is ignored.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [-math.inf] * n  # furthest child end seen so far, per parent
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p], start[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], min(end[i], end[p]))
    return [end[i] - start[i] - covered[i] for i in range(n)]


def _span_wrapper(rec: Recorder, layer: int, fn, observe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if observe is not None:
            observe(rec, args, result)
        return result

    return wrapper


def _observe_kernel(method):
    def observe(rec, args, result):
        kernel = args[0]
        rec.kernel_calls[(method, kernel.dims, kernel.r, kernel.basis.shape[0])] += 1

    return observe


def _observe_certification(rec, args, report):
    best = report.best_value
    for d in report.per_trial:
        rec.trials.append((d.iterations, d.reason, d.reinits))
        rec.agreeing += abs(d.value - best) <= AGREE_TOL


def _resolve(target):
    module_name, attr = target.split(":")
    try:
        obj = importlib.import_module(module_name)
        owner = obj
        for part in attr.split("."):
            owner, obj = obj, getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return owner, attr.split(".")[-1], obj


@contextlib.contextmanager
def traced(rec: Recorder, layers=None):
    """Install span wrappers for `layers` (default LAYERS); restore on exit.

    Yields the set of layer names with at least one hook found.
    """
    layers = LAYERS if layers is None else layers
    undo = []
    installed = set()
    try:
        for name, targets in layers.items():
            layer = rec.layer_id(name)
            for target in targets:
                hit = _resolve(target)
                if hit is None:
                    continue
                owner, attr, original = hit
                installed.add(name)
                observe = None
                if name == "value_and_grad":
                    observe = _observe_kernel(attr)
                elif name == "certification":
                    observe = _observe_certification
                wrapper = _span_wrapper(rec, layer, original, observe)
                if isinstance(owner, type):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                # rebind the function wherever a rankgauge module imported it
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "rankgauge" or mod_name.startswith("rankgauge.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
        yield installed
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def kernel_flop(method: str, dims, r: int, k: int) -> int:
    """Floating-point operations of one kernel call, computed from array
    shapes: 8 per complex multiply-add, 6 per complex product, 4 per
    real-by-complex multiply-add. Terms of order r * d per party are left
    out. `k` is the subspace dimension."""
    D = math.prod(dims)
    n = len(dims)
    flop = sum(6 * r * math.prod(dims[:j + 1]) for j in range(n)) + 4 * r * D  # forward map
    flop += 8 * D + 8 * k * D + 8 * k                  # <T|T>, projection, G
    if method == "value":
        return flop
    tails = [math.prod(dims[j:]) for j in range(n)]
    flop += 8 * k * D + 8 * D + 8 * r * D              # P_S T, adjoint, theta
    flop += sum(6 * r * t for t in tails)              # suffix products
    flop += sum(8 * r * D + 8 * r * t for t in tails)  # factor cotangents
    return flop


def layer_metrics(rec: Recorder, installed, *, import_s: float, ops_s: float, span_cost_s: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}; layers not installed are
    left out."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    n = len(rec)
    calls = Counter()
    self_s = Counter()
    total_s = Counter()
    for i in range(n):
        name = rec.names[rec.layer[i]]
        calls[name] += 1
        self_s[name] += selfs[i]
        total_s[name] += rec.end[i] - rec.start[i]
    out = {}
    for layer in ("forward_map", "value_and_grad", "two_loop", "line_search",
                  "lbfgs", "trial", "certification", "scan"):
        if layer in installed:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
    if "value_and_grad" in installed:
        vg_calls = calls["value_and_grad"]
        flop = sum(c * kernel_flop(*key) for key, c in rec.kernel_calls.items())
        out["value_and_grad.us_per_call"] = (1e6 * total_s["value_and_grad"] / max(vg_calls, 1), "us")
        out["value_and_grad.computed_flop"] = (flop, "flop")
        out["value_and_grad.achieved_gflops"] = (flop / max(total_s["value_and_grad"], 1e-300) / 1e9, "GFLOP/s")
        if "line_search" in installed:
            vg = rec.names.index("value_and_grad")
            ls = rec.names.index("line_search")
            evals = sum(1 for i in range(n) if rec.layer[i] == vg and rec.parent[i] >= 0
                        and rec.layer[rec.parent[i]] == ls)
            out["line_search.evals"] = (evals, "count")
            out["line_search.accept_ratio"] = (calls["line_search"] / max(evals, 1), "ratio")
    if "certification" in installed:
        reasons = Counter(reason for _, reason, _ in rec.trials)
        out["lbfgs.iters"] = (sum(iters for iters, _, _ in rec.trials), "count")
        for reason in STOP_REASONS:
            out[f"lbfgs.stop.{reason}"] = (reasons[reason], "count")
        out["certification.reinits"] = (sum(reinits for _, _, reinits in rec.trials), "count")
        out["certification.agree_ratio"] = (rec.agreeing / max(len(rec.trials), 1), "ratio")
    if "inputs" in installed:
        inputs = rec.names.index("inputs")
        build = sum(rec.end[i] - rec.start[i] for i in range(n)
                    if rec.layer[i] == inputs and rec.parent[i] < 0)
        out["inputs.build_s"] = (build, "s")
    out["import_s"] = (import_s, "s")
    out["trace.overhead_ratio"] = (n * span_cost_s / max(ops_s, 1e-300), "ratio")
    return out


def span_cost(samples: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a no-op function."""
    def noop():
        return None

    best = math.inf
    for _ in range(3):
        rec = Recorder()
        wrapped = _span_wrapper(rec, rec.layer_id("noop"), noop)
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)
