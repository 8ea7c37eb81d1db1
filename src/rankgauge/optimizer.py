"""Limited-memory BFGS with a Wolfe line search, plus the multi-trial
driver that turns random restarts into a certified minimum.

A certification draws each trial's start from the trial's own stream and
sweeps all draws as one stack with `LossKernel.sweep` (exact one-party
solves in lockstep at rank budget 1, the draws as they are at budgets
>= 2), which hands each trial its start with the start's value and
gradient, and at budget 1 the secant pair of the start's last sweep.
L-BFGS then runs once per trial from there, with that pair as its first
curvature pair where it passes the curvature test, and the trial reports
its stop reason. A trial whose draw is singular redraws it from
its own stream and sweeps it alone, so no other trial sees it. L-BFGS
either finishes the trial or, where the sweeps already reached the
gradient tolerance, certifies the swept point with `gradient-tolerance`
after no iteration. Each accepted iterate's loss is at most FLOOR_BAND
times the previous loss's magnitude above it (the line search accepts
sufficient decrease, or a point of the floor band by its slope); such a
rise counts toward the plateau window, so a run stops at `loss-plateau`
after PLATEAU_WINDOW rises in a row. Trials are independent given their
(seed, trial index) substream, so the driver's min-reduction is order
independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OptimizationError, SingularParameterError, UsageError
from .objective import TOL_GRAD, ZERO_LEVEL, LossKernel
from .rank_param import RankParams, build_state, trial_rng
from .subspace import Subspace
from .tensor_core import MAX_AMPLITUDES, PureState, as_int

# A plateau: PLATEAU_WINDOW consecutive iterations that each lower the loss
# by less than TOL_LOSS_REL of its value.
PLATEAU_WINDOW = 5
TOL_LOSS_REL = 1e-14
# Armijo and curvature constants of the line search.
ARMIJO_C1 = 1e-4
CURVATURE_C2 = 0.9
# The approximate Wolfe rule (Hager and Zhang 2005): a trial point that
# fails Armijo but lies at most FLOOR_BAND |f0| above f0, where a good
# step's loss change is rounding noise, is decided by its slope, with
# delta WOLFE_DELTA.
FLOOR_BAND = 1e-14
WOLFE_DELTA = 0.1
# Trial steps of one line search. A search at the float64 floor, where no
# step gives a representable decrease and no point of the floor band meets
# the slope test, bisects through all of them.
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
# Amplitudes each trial is charged for its own records, whatever the dims:
# its random stream, start, L-BFGS result and diagnostics take about 3 KB
# over 2 x 3, and 2**10 complex amplitudes are 16 KiB.
TRIAL_AMPLITUDES = 1 << 10


@dataclass(frozen=True)
class OptimConfig:
    """Knobs of one certification run (defaults suit desk-scale problems)."""

    max_iters: int = 10000
    trials: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iters", "trials", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        for name in ("max_iters", "trials"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class LbfgsResult:
    x: np.ndarray
    value: float
    grad_inf: float
    iterations: int
    reason: str
    values: tuple[float, ...]  # accepted-iterate loss sequence, x0 included

    @property
    def converged(self) -> bool:
        return self.reason != "iteration-cap"


def _wolfe_line_search(value, value_and_grad, x, f0, g0, direction, t0):
    """Weak-Wolfe search along `direction` by bisection/doubling, with the
    approximate Wolfe rule of Hager and Zhang (SIAM J. Optim. 16, 2005)
    in the floor band.

    `value` returns the loss, or inf for points it cannot evaluate;
    `value_and_grad` returns (loss, gradient). Every new trial point gets
    a value. A point that passes the Armijo test also gets a gradient and
    is accepted if it meets the curvature condition, else the next step is
    longer.
    A finite point that fails Armijo but lies in the floor band,
    f_t <= f0 + FLOOR_BAND |f0|, where the loss change of a good step is
    rounding noise, also gets a gradient and is accepted if
    CURVATURE_C2 phi'(0) <= phi'(t) <= (2 WOLFE_DELTA - 1) phi'(0); so an
    accepted point lies at most FLOOR_BAND |f0| above f0. Every other
    point halves the step. Returns (t, x_t, f_t, g_t); after
    LINE_SEARCH_STEPS trial steps with no point accepted, the lowest point
    that passed Armijo below f0, or None if there is none. Near the float
    floor distinct steps round to the same point; both oracles are
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
        armijo = ft <= f0 + ARMIJO_C1 * t * slope0
        if armijo or ft <= f0 + FLOOR_BAND * abs(f0):  # inf and nan fail both
            if gt is None:
                gt = value_and_grad(xt)[1]
                seen[key] = (ft, gt)
            slope = float(np.dot(gt, direction))
            if armijo:
                if best is None or ft < best[2]:
                    best = (t, xt, ft, gt)
                if slope < CURVATURE_C2 * slope0:
                    lo = t
                    t = 2.0 * lo if math.isinf(hi) else 0.5 * (lo + hi)
                    continue
                return t, xt, ft, gt
            if CURVATURE_C2 * slope0 <= slope <= (2.0 * WOLFE_DELTA - 1.0) * slope0:
                return t, xt, ft, gt
        hi = t
        t = 0.5 * (lo + hi)
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
    the empty ones add nothing; with no pair at all the direction is
    -grad, which `_two_loop` returns without a product. R^-1 is triangular
    in time order, so the column of the oldest pair holds only its
    diagonal entry: zeroing that pair's row drops it and leaves the
    inverse of the remaining R.

    `lbfgs_minimize` pushes an accepted step's pair, or the pair its start
    came with, just before the next direction, the first thing that reads
    it, so a run that stops after its last step never pays for that
    step's push.

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
    whether MEMORY is below or above the number of parameters. An empty
    history gives -grad, the steepest descent the products would give.
    """
    if not hist.count:
        return -grad
    u = hist.rinv @ (hist.s @ grad)
    p = (hist.d * u + hist.gamma * (hist.yy @ u - hist.y @ grad)) @ hist.rinv
    return hist.gamma * (u @ hist.y - grad) - p @ hist.s


def lbfgs_minimize(
    value,
    value_and_grad,
    x0: np.ndarray,
    f0: float,
    g0: np.ndarray,
    *,
    pair: tuple[np.ndarray, np.ndarray] | None = None,
    max_iters: int = OptimConfig.max_iters,
    zero_level: float = 0.0,
) -> LbfgsResult:
    """Minimize a smooth function from x0, given its loss f0 and gradient
    g0 there and two exact oracles: `value(x)` returns the loss and
    `value_and_grad(x)` returns (loss, gradient), the same loss bit for
    bit. `pair` is an optional curvature pair (s, y) that ends at x0, such
    as the secant pair of the step that reached it: it goes through the
    history's curvature test before the first direction, like the pair of
    an accepted step, so a pair that passes makes the first step
    quasi-Newton (of unit length), and one that fails leaves the run as
    without it. x0 itself is not evaluated; each line search gets a value
    at every new trial point and a gradient only where the Armijo test
    passes or the point lies in the floor band, so a rejected point costs
    one value. An accepted step's curvature pair, like x0's, enters the
    history only after the stop tests at its point, when the next
    direction needs it, and the l-inf gradient norm is taken once per
    accepted point, for the stop test and the result. The gradient and
    zero-level tests run at x0 and at every accepted point, the one after
    the last allowed iteration included.

    Termination reasons: `gradient-tolerance` (l-inf below TOL_GRAD),
    `zero-witness` (the loss is at or below zero_level, tested after the
    gradient; meant for losses bounded below by 0, where the default 0.0
    stops only at an exact zero), `loss-plateau` (relative decrease
    below TOL_LOSS_REL for PLATEAU_WINDOW consecutive accepted steps),
    `loss-floor` (the last line search returned nothing: no representable
    decrease exists along the model direction and no point of the floor
    band met the slope test, so it bisected through all LINE_SEARCH_STEPS
    trial steps, evaluating each distinct point once), or `iteration-cap`.
    Trial points whose value raises SingularParameterError are treated as
    +inf and backtracked over.
    """
    x, f, g = np.array(x0, dtype=np.float64), f0, g0

    def evaluate(xt):
        try:
            return value(xt)
        except SingularParameterError:
            return math.inf

    hist = _History(x.size)
    # pair: the last accepted step's (s, y), or the start's, pushed once the next direction needs it
    values = [float(f)]
    g_inf = float(np.abs(g).max(initial=0.0))
    plateau = 0
    reason = "iteration-cap"
    for it in range(max_iters + 1):
        if g_inf < TOL_GRAD:
            reason = "gradient-tolerance"
            break
        if f <= zero_level:
            reason = "zero-witness"
            break
        if it == max_iters:
            break
        if pair is not None:
            hist.push(*pair)
        d = _two_loop(g, hist)
        slope = float(np.dot(d, g))
        # a non-finite entry of d makes the slope non-finite too
        if not -math.inf < slope < 0.0:
            # fall back to steepest descent when the model direction degrades
            d = -g
            slope = -float(np.dot(g, g))
        t0 = 1.0 if hist.count else min(1.0, 1.0 / max(1e-12, math.sqrt(g @ g)))
        hit = _wolfe_line_search(evaluate, value_and_grad, x, f, g, d, t0)
        if hit is None:
            reason = "loss-floor"
            break
        _, xt, ft, gt = hit
        pair = (xt - x, gt - g)
        rel = (f - ft) / max(abs(f), abs(ft), 1e-300)
        plateau = plateau + 1 if rel < TOL_LOSS_REL else 0
        x, f, g = xt, ft, gt
        g_inf = float(np.abs(g).max(initial=0.0))
        values.append(float(f))
        if plateau >= PLATEAU_WINDOW:
            reason = "loss-plateau"
            break
    # values holds x0's loss, then one per completed iteration
    return LbfgsResult(x, float(f), g_inf, len(values) - 1, reason, tuple(values))


@dataclass(frozen=True)
class TrialDiagnostics:
    value: float
    iterations: int
    reason: str
    reinits: int
    sweeps: int = 0  # budget-1 sweeps before L-BFGS (LossKernel.sweep)
    grad_inf: float = math.inf  # final l-inf gradient; inf for a failed trial

    @property
    def failed(self) -> bool:
        return self.reason == "singular-parameters"

    @property
    def converged(self) -> bool:
        return self.reason not in ("iteration-cap", "singular-parameters")


@dataclass(frozen=True)
class OptimReport:
    """Best trial of a certification run plus per-trial diagnostics. The
    witness is built on first read: `best_params` from the run's kernel
    and the best trial's point, `best_state` from `best_params`. The
    report holds the kernel, and so its constants, while it lives."""

    best_value: float
    best_trial: int
    per_trial: tuple[TrialDiagnostics, ...]
    kernel: LossKernel = field(repr=False, compare=False)
    best_x: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def best_params(self) -> RankParams:
        # at rank budget 1 x holds all factors but the solved party's: insert
        # it, so that the reported state is the one whose loss is best_value
        return RankParams(self.kernel.dims, self.kernel.r, self.kernel.completed(self.best_x))

    @functools.cached_property
    def best_state(self) -> PureState:
        return build_state(self.best_params)


def _minimize_kernel(kernel, rng, cfg: OptimConfig, start):
    """One trial against a prepared kernel: L-BFGS from `start`, the
    (point, value, gradient, sweeps, pair) that `kernel.sweep` handed over
    for the trial's first draw from `rng`, or None where that draw was
    singular. A singular draw is redrawn from `rng` and swept alone, at
    most MAX_REINITS times."""
    for reinit in range(MAX_REINITS + 1):
        if reinit:
            (start,) = kernel.sweep(rng.standard_normal(kernel.n_params)[None])
        if start is None:
            continue
        x0, f0, g0, sweeps, pair = start
        res = lbfgs_minimize(kernel.value, kernel.value_and_grad, x0, f0, g0, pair=pair,
                             max_iters=cfg.max_iters, zero_level=ZERO_LEVEL)
        return res.x, TrialDiagnostics(res.value, res.iterations, res.reason, reinit, sweeps, res.grad_inf)
    return None, TrialDiagnostics(math.inf, 0, "singular-parameters", MAX_REINITS)


def as_level(r) -> int:
    """The entanglement level r as a Python int; UsageError unless it is an
    integer >= 2."""
    r = as_int(r, "entanglement level r")
    if r < 2:
        raise UsageError(f"entanglement level r must be >= 2, got {r}")
    return r


def level_bound(dims: tuple[int, ...]) -> int:
    """D / max(dims) + 1, the first level r with E_r = 0 for every state over
    `dims`: in a basis of all parties but the largest one, each such state
    is a sum of D / max(dims) products."""
    return math.prod(dims) // max(dims) + 1


def run_certification(sub: Subspace, r: int, cfg: OptimConfig) -> OptimReport:
    """Geometric measure of r-bounded rank of a subspace: minimum of the
    complement-overlap loss over rank budget r - 1, across cfg.trials
    independent restarts. Refuses with UsageError, before any draw, a level
    above `level_bound(sub.dims)`, a full space, and trials charged more
    than MAX_AMPLITUDES amplitudes: each trial's lane of the kernel's
    stacks plus TRIAL_AMPLITUDES for its records. A lane holds r - 1
    states at budgets >= 2. At budget 1 it holds the largest of a state,
    the sweep's min(k, D - k) rows contracted with the other parties'
    product, d_max amplitudes each, and their d_max x d_max Gram matrix
    (not formed for a subspace of one vector)."""
    r = as_level(r)
    limit = level_bound(sub.dims)
    if r > limit:  # refused before anything of size r is made
        raise UsageError(f"entanglement level r must be <= {limit}, since every state over dims "
                         f"{sub.dims} has tensor rank <= {limit - 1}; got {r}")
    if sub.dim >= sub.dim_total:
        raise UsageError("the full space is trivially reachable; pass a proper subspace")
    rows, d_max = min(sub.dim, sub.dim_total - sub.dim), max(sub.dims)
    lane = max(sub.dim_total, rows * d_max, d_max * d_max * (sub.dim > 1)) if r == 2 else (r - 1) * sub.dim_total
    if cfg.trials * (lane + TRIAL_AMPLITUDES) > MAX_AMPLITUDES:
        raise UsageError(f"{cfg.trials} trials at rank budget {r - 1} over dims {sub.dims}, charged "
                         f"{lane + TRIAL_AMPLITUDES} amplitudes each, exceed the budget of {MAX_AMPLITUDES}")
    kernel = LossKernel(sub.dims, r - 1, sub)
    rngs = [trial_rng(cfg.seed, i) for i in range(cfg.trials)]
    starts = kernel.sweep(np.array([rng.standard_normal(kernel.n_params) for rng in rngs]))
    outcomes = [_minimize_kernel(kernel, rng, cfg, start) for rng, start in zip(rngs, starts)]
    diagnostics = tuple(d for _, d in outcomes)
    finished = [i for i, d in enumerate(diagnostics) if not d.failed]
    if not finished:
        raise OptimizationError("all optimization trials failed")
    best_idx = min(finished, key=lambda i: diagnostics[i].value)  # the first of equal values
    return OptimReport(diagnostics[best_idx].value, best_idx, diagnostics, kernel, outcomes[best_idx][0])
