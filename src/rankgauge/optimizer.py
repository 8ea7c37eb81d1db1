"""Limited-memory BFGS with a Wolfe line search, plus the multi-trial
driver that turns random restarts into a certified minimum.

The accepted-iterate loss sequence is strictly nonincreasing (the line
search only accepts sufficient decrease). Trials are independent given
their (seed, trial index) substream, so the driver's min-reduction is
order independent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import OptimizationError, SingularParameterError, UsageError
from .objective import LossKernel
from .rank_param import RankParams, build_state, trial_rng
from .subspace import Subspace
from .tensor_core import PureState

# Consecutive small relative-decrease iterations required to declare a plateau.
PLATEAU_WINDOW = 5
# Armijo and curvature constants of the line search.
ARMIJO_C1 = 1e-4
CURVATURE_C2 = 0.9
# Trial steps of one line search. A search at the float64 floor, where no
# step gives a representable decrease, bisects through all of them.
LINE_SEARCH_STEPS = 60
# In-trial reinitializations allowed after singular starting parameters.
MAX_REINITS = 3
# Curvature pairs kept by L-BFGS. The short history of large-scale L-BFGS
# saves memory that desk-scale problems (10-100 parameters) do not need,
# and here a pair costs far less than an evaluation. In a sweep of
# 10/20/40/60/100 pairs (BENCH_6.json) the benchmark's CES trials (29-35
# parameters) took 10040/6635/4006/3735/3827 iterations and their wall
# time stopped falling at 40.
MEMORY = 40
# Standard deviation of the i.i.d. normal starting parameters.
INIT_SCALE = 1.0
# Loss at or below which a trial stops as a zero witness. The residual-form
# loss keeps relative accuracy down to here, and this is five orders below
# the smallest nonzero minimum seen (E_2 ~ 3.5e-7 of the maximal CES in
# 4 x 5 x 10); without the stop a non-attained zero, such as the W state at
# r = 3, is chased down towards 1e-15 for no change of verdict.
ZERO_LEVEL = 1e-12


@dataclass(frozen=True)
class OptimConfig:
    """Knobs of one certification run (defaults suit desk-scale problems)."""

    tol_grad: float = 1e-10       # l-infinity gradient norm
    tol_loss_rel: float = 1e-14   # relative loss decrease per iteration
    max_iters: int = 10000
    trials: int = 3
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0 for t in (self.tol_grad, self.tol_loss_rel)):
            raise UsageError("tolerances must be finite and positive")
        if self.max_iters < 1 or self.trials < 1:
            raise UsageError("max_iters and trials must be >= 1")


@dataclass(frozen=True)
class LbfgsResult:
    x: np.ndarray
    value: float
    grad_inf: float
    iterations: int
    converged: bool
    reason: str
    values: tuple[float, ...]  # accepted-iterate loss sequence, x0 included


def _wolfe_line_search(value, value_and_grad, x, f0, g0, direction, t0):
    """Weak-Wolfe search along `direction` by bisection/doubling.

    `value` returns the loss, or inf for points it cannot evaluate;
    `value_and_grad` returns (loss, gradient). Every new trial point gets
    a value; only points that pass the Armijo test also get a gradient,
    since a rejected point's gradient is never read. Returns
    (t, x_t, f_t, g_t) or None if no acceptable point with sufficient
    decrease was found within LINE_SEARCH_STEPS trial steps. Near the
    float floor distinct steps round to the same point; both oracles are
    deterministic, so each point is evaluated once and looked up after
    that, x itself included.
    """
    slope0 = float(np.dot(g0, direction))
    lo, hi = 0.0, math.inf
    t = t0
    best = None  # lowest-value point satisfying sufficient decrease
    seen = {x.tobytes(): (f0, g0)}  # point -> (value, gradient or None)
    for _ in range(LINE_SEARCH_STEPS):
        xt = x + t * direction
        key = xt.tobytes()
        if key not in seen:
            seen[key] = (value(xt), None)
        ft, gt = seen[key]
        if not math.isfinite(ft) or ft > f0 + ARMIJO_C1 * t * slope0:
            hi = t
            t = 0.5 * (lo + hi)
            continue
        if gt is None:
            gt = value_and_grad(xt)[1]
            seen[key] = (ft, gt)
        if best is None or ft < best[2]:
            best = (t, xt, ft, gt)
        if float(np.dot(gt, direction)) < CURVATURE_C2 * slope0:
            lo = t
            t = 2.0 * lo if math.isinf(hi) else 0.5 * (lo + hi)
            continue
        return t, xt, ft, gt
    if best is not None and best[2] < f0:
        return best
    return None


class _History:
    """The last MEMORY accepted curvature pairs (s_i, y_i), kept for the
    compact representation of the L-BFGS inverse Hessian (Byrd, Nocedal
    and Schnabel 1994). Besides the pairs it holds Y Y^T, d_i = s_i . y_i
    and R^-1, the inverse of the upper triangle R of S Y^T
    (R_ij = s_i . y_j for pair i no newer than pair j).

    Pairs sit in a ring of MEMORY slots. An empty slot has zero rows
    everywhere, R^-1 included, so every product runs over all slots and
    the empty ones add nothing. R^-1 is triangular in time order, so the
    column of the oldest pair holds only its diagonal entry: zeroing that
    pair's row drops it and leaves the inverse of the remaining R.

    Slots may outnumber the n parameters. Pairs beyond n are then linearly
    dependent, but R stays triangular with the positive diagonal
    s_i . y_i, so R^-1 exists for any slot count.
    """

    def __init__(self, n: int):
        self.count = 0  # pairs accepted so far
        self.s = np.zeros((MEMORY, n))
        self.y = np.zeros((MEMORY, n))
        self.rinv = np.zeros((MEMORY, MEMORY))
        self.yy = np.zeros((MEMORY, MEMORY))
        self.d = np.zeros(MEMORY)
        self.gamma = 1.0  # s . y / y . y of the newest pair

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        """Add the pair unless s . y is too small for positive definiteness,
        dropping the oldest one when all slots are taken."""
        sy, yy = float(np.dot(s, y)), float(np.dot(y, y))
        if not sy > 1e-10 * math.sqrt(float(np.dot(s, s)) * yy):
            return
        j = self.count % MEMORY
        self.s[j], self.y[j] = s, y
        self.rinv[j] = 0.0
        # R gains the column s_i . y; its inverse gains -R^-1 (S y) / sy
        self.rinv[:, j] = (self.rinv @ (self.s @ y)) / -sy
        self.rinv[j, j] = 1.0 / sy
        self.yy[j] = self.yy[:, j] = self.y @ y
        self.d[j] = sy
        self.gamma = sy / yy
        self.count += 1


def _two_loop(grad, hist: _History):
    """The L-BFGS direction -H grad from the compact form

        H g = gamma g + S^T p - gamma Y^T u,   u = R^-1 S g,
        p = R^-T ((D + gamma Y Y^T) u - gamma Y g),

    with D = diag(d). It equals the classic two-loop recursion in exact
    arithmetic, in seven matrix-vector products with MEMORY rows each,
    whether MEMORY is below or above the number of parameters.
    """
    u = hist.rinv @ (hist.s @ grad)
    p = (hist.d * u + hist.gamma * (hist.yy @ u - hist.y @ grad)) @ hist.rinv
    return hist.gamma * (u @ hist.y - grad) - p @ hist.s


def lbfgs_minimize(
    value,
    value_and_grad,
    x0: np.ndarray,
    *,
    tol_grad: float = OptimConfig.tol_grad,
    tol_loss_rel: float = OptimConfig.tol_loss_rel,
    max_iters: int = OptimConfig.max_iters,
    zero_level: float = 0.0,
) -> LbfgsResult:
    """Minimize a smooth function given two exact oracles: `value(x)`
    returns the loss and `value_and_grad(x)` returns (loss, gradient),
    the same loss bit for bit. x0 gets both; each line search gets a value
    at every new trial point and a gradient only where the Armijo test
    passes, so a rejected point costs one value.

    Termination reasons: `gradient-tolerance` (l-inf below tol_grad),
    `zero-witness` (the loss is at or below zero_level, tested after the
    gradient; meant for losses bounded below by 0, where the default 0.0
    stops only at an exact zero), `loss-plateau` (relative decrease
    below tol_loss_rel for PLATEAU_WINDOW consecutive accepted steps),
    `loss-floor` (no representable decrease exists along the model
    direction, i.e. the relative-decrease criterion holds vacuously at the
    float64 floor; the last line search bisected through all
    LINE_SEARCH_STEPS trial steps, evaluating each distinct point once;
    values alone decide it, so leaving rejected points without gradients
    does not move it), or `iteration-cap`. A SingularParameterError from
    the initial evaluation propagates to the caller; trial points whose
    value raises it during the line search are treated as +inf and
    backtracked over.
    """
    x = np.array(x0, dtype=np.float64)
    f, g = value_and_grad(x)

    def evaluate(xt):
        try:
            return value(xt)
        except SingularParameterError:
            return math.inf

    hist = _History(x.size)
    values = [float(f)]
    plateau = 0
    reason, converged = "iteration-cap", False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        g_inf = float(np.max(np.abs(g))) if g.size else 0.0
        if g_inf < tol_grad:
            reason, converged = "gradient-tolerance", True
            iterations -= 1
            break
        if f <= zero_level:
            reason, converged = "zero-witness", True
            iterations -= 1
            break
        d = _two_loop(g, hist)
        slope = float(np.dot(d, g))
        # a non-finite entry of d makes the slope non-finite too
        if not -math.inf < slope < 0.0:
            # fall back to steepest descent when the model direction degrades
            d = -g
            slope = -float(np.dot(g, g))
        t0 = 1.0 if hist.count else min(1.0, 1.0 / max(1e-12, float(np.linalg.norm(g))))
        hit = _wolfe_line_search(evaluate, value_and_grad, x, f, g, d, t0)
        if hit is None:
            reason, converged = "loss-floor", True
            iterations -= 1
            break
        _, xt, ft, gt = hit
        hist.push(xt - x, gt - g)
        rel = (f - ft) / max(abs(f), abs(ft), 1e-300)
        plateau = plateau + 1 if rel < tol_loss_rel else 0
        x, f, g = xt, ft, gt
        values.append(float(f))
        if plateau >= PLATEAU_WINDOW:
            reason, converged = "loss-plateau", True
            break
    g_inf = float(np.max(np.abs(g))) if g.size else 0.0
    return LbfgsResult(x, float(f), g_inf, iterations, converged, reason, tuple(values))


@dataclass(frozen=True)
class TrialDiagnostics:
    value: float
    iterations: int
    converged: bool
    reason: str
    reinits: int
    failed: bool


@dataclass(frozen=True)
class OptimReport:
    """Best trial of a certification run plus per-trial diagnostics."""

    best_value: float
    best_params: RankParams
    best_state: PureState
    best_trial: int
    per_trial: tuple[TrialDiagnostics, ...]
    wall_time: float


def _minimize_kernel(kernel, rng, cfg: OptimConfig):
    """One trial against a prepared kernel: draw, minimize, reinit on
    singular starts (at most MAX_REINITS times)."""
    for reinit in range(MAX_REINITS + 1):
        x0 = rng.standard_normal(kernel.n_params) * INIT_SCALE
        try:
            res = lbfgs_minimize(
                kernel.value,
                kernel.value_and_grad,
                x0,
                tol_grad=cfg.tol_grad,
                tol_loss_rel=cfg.tol_loss_rel,
                max_iters=cfg.max_iters,
                zero_level=ZERO_LEVEL,
            )
        except SingularParameterError:
            continue
        diag = TrialDiagnostics(res.value, res.iterations, res.converged, res.reason, reinit, False)
        return res.x, diag
    diag = TrialDiagnostics(math.inf, 0, False, "singular-parameters", MAX_REINITS, True)
    return None, diag


def run_certification(sub: Subspace, r: int, cfg: OptimConfig) -> OptimReport:
    """Geometric measure of r-bounded rank of a subspace: minimum of the
    complement-overlap loss over rank budget r - 1, across cfg.trials
    independent restarts."""
    if r < 2:
        raise UsageError(f"entanglement level r must be >= 2, got {r}")
    if sub.dim >= sub.dim_total:
        raise UsageError("the full space is trivially reachable; pass a proper subspace")
    start = time.perf_counter()
    kernel = LossKernel(sub.dims, r - 1, sub)
    outcomes = [_minimize_kernel(kernel, trial_rng(cfg.seed, i), cfg) for i in range(cfg.trials)]
    diagnostics = tuple(d for _, d in outcomes)
    best_idx = -1
    for i, (x, d) in enumerate(outcomes):
        if x is None:
            continue
        if best_idx < 0 or d.value < diagnostics[best_idx].value:
            best_idx = i
    if best_idx < 0:
        raise OptimizationError("all optimization trials failed")
    # at rank budget 1 the kernel ignores one party's block of x: fill it
    # in, so that the reported state is the one whose loss is best_value
    best_params = RankParams(sub.dims, r - 1, kernel.completed(outcomes[best_idx][0]))
    return OptimReport(
        best_value=diagnostics[best_idx].value,
        best_params=best_params,
        best_state=build_state(best_params),
        best_trial=best_idx,
        per_trial=diagnostics,
        wall_time=time.perf_counter() - start,
    )
