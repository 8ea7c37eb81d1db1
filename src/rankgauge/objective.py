"""Complement-overlap loss over the bounded-rank parametrization, with an
exact analytic gradient.

For parameters x mapping to the unnormalized sum T(x) and a subspace S of
dimension k in a D-dimensional space, the loss is the squared distance of
the normalized state from S,

    L(x) = ||P_perp T||^2 / N,   N = <T|T>,

computed on the smaller side of the projection. When 2k > D the D - k
orthonormal complement rows q_j (`Subspace.complement_rows`) are used:
c_j = <q_j|T>, so L = ||c||^2 / N and P_perp T = sum_j c_j q_j. Otherwise
the basis rows e_j of S are used and P_perp T = T - sum_j <e_j|T> e_j.
Either way L is a sum of squares that keeps its relative accuracy as it
approaches zero; nothing is subtracted from 1. Differentiating through
the product sum and the final quotient gives, for any real parameter x_p
with dT/dx_p = T_p,

    dL/dx_p = Re( y^dag T_p ),    y = (2/N) (P_perp T - L T),

which is assembled below for all terms at once. The kernel forms conj(y)
from conj(P_perp T), which is sum_j conj(c_j) conj(q_j) or conj(T) -
sum_j conj(<e_j|T>) conj(e_j), so it holds only the conjugated rows.
conj(y) is contracted with the factors party by party, from the last one
inwards, and the cotangents h of all factors land in one (r, sum(dims))
complex array, the shape of x's complex view: the gradient is the
float64 view of conj(h). The factors are not normalized, so there is no
radial component to project out. No clamping happens here; [0, 1]
clamping is reporting-level only.

At rank budget 1 the candidate is one product state, and the factor of
party e, the largest party (the last of them on ties), is solved exactly,
the variable projection of Golub and Pereyra (SIAM J. Numer. Anal. 1973).
So x holds only the other parties' raw factors, 2 sum_{q != e} d_q
floats: the parameters of one product state over their dimensions, in
party order, whose `forward_map` gives their product p, of size
P = D / d_e (p = [1] and x is empty when e is the only party).
It works in the frame with e's axis first: the rows reordered as R, of
shape (m, d_e, P), B = conj(R) p of shape (m, d_e), and T = c (x) p,
whose coefficients are w = B c. The minimizer c* of the loss over c is
the lowest (complement side) or the highest (basis side) eigenvector of
the d_e x d_e matrix B^dag B, which every evaluation computes; with one
basis row b, as for the span of a state, it is conj(b) / ||b|| without an
eigenproblem. From T = c* (x) p and w = B c* on, the loss, N and y are
those above, in this frame, so the value is the exact loss of a product
state and a true upper bound, and N = ||p||^2 ||c*||^2 divides out the
scale of every factor. c* is stationary on the unit sphere, so by the
envelope theorem the gradient in the other factors is taken at fixed c*:
since dT = c* (x) dp, conj(y) contracted with c* on e's axis is the
cotangent of p, and the same loop as at budgets >= 2 contracts it with
the other parties' factors. As there, p = 0 raises
SingularParameterError, and the factors' scales must keep p and N within
the float range: two blocks scaled by 1e-100 raise, and two scaled by
1e100 overflow. Starts are standard normal, the sweeps hand over unit
factors, and L-BFGS steps are orthogonal to each block to first order,
so no run comes near those scales.
c* lives only in a forward pass: `LossKernel.completed(x)` inserts it at
party e's columns, which gives the full-length parameters, of
`params_length(dims, 1)` floats, whose state is the witness of the value.

The forward pass, the exact solves and the gradient take a leading lane
axis: a stack of L points, one per lane, is evaluated by the same numpy
calls as one point. The lanes' terms are the terms of one `forward_map`:
at budgets >= 2 lane l's r terms are its rows l r to l r + r - 1, summed
per lane to T, and `_cotangents` takes lane l's conj(y) once for each of
them; at budget 1 each lane is one term, whose (L, P) last prefixes are
the lanes' products p, and `_cotangents` takes one cotangent of p per
term. Every contraction is a batched `matmul` or `matvec` over the lane
axis, which multiplies each lane on its own and never folds lanes into
one product, and the eigenproblems are one stacked eigh. So a lane's bits do not depend on how many lanes share its stack or
which of them remain, as long as the lane's arrays keep their memory
layout: slicing keeps it, while gathering a subset of lanes copies them
into another layout and may move their last bits, which is why the
sweeps take gradients of their whole stack.
`LossKernel.value` and `value_and_grad` evaluate a batch of one.

Before L-BFGS, `LossKernel.sweep` moves budget-1 starts into basins by
exact one-party solves, a block-coordinate descent that for a single
state is the alternating eigen-update of Streltsov, Kampermann and Bruss
(PRA 2011). It sweeps a stack of starts in lockstep, one solve per party
and sweep for all lanes, applies the rules below to each lane, and drops
a lane from the stack once they stop it. Each sweep visits the other
parties in order and then party e: party q's factor becomes the lowest
(complement side) or highest (basis side) eigenvector of B_q^dag B_q,
where B_q contracts the rows, reordered around q's axis, with the
product of the other factors.
Party e's solve is the kernel's forward pass of the swept point, which
gives c*; the sweep keeps the lanes' c* as a stack next to x, for the
other parties' solves of the next sweep. With one basis row every solve
is conj(b) / ||b||. Every
solve is an exact minimum over one factor, so no sweep raises the loss.
The sweeps hand over to L-BFGS after a sweep that lowers the
residual-form loss by less than SWEEP_TOL of its value, or by less than
SLOW_GATE of it and more than SLOW_RATE times the sweep before (a linear
rate too slow to be worth more sweeps), after MAX_SWEEPS sweeps, or once
the loss is at or below ZERO_LEVEL. The decrease is tested on the
residual form because 1 - lambda_max cancels near zero.

Where the free factors span more than two real dimensions, n_free =
2 sum_{q != e} (d_q - 1), the sweeps may go on past a handover above
ZERO_LEVEL. Near a minimum they converge linearly: per sweep the loss gap
falls by the ratio of the last two drops and the gradient by about its
square root. So they go on iff the l-inf gradient g at the handover point
has g sqrt(ratio)^n_free < TOL_GRAD <= g, n_free sweeps being about what
L-BFGS needs to build its model. They stop at the first point whose
gradient is below TOL_GRAD, which L-BFGS then only certifies, or at a
stall: a sweep that shrinks the gradient by less than FINISH_RATE, or
MAX_FINISH_SWEEPS sweeps in all. One free qubit (every 2 x d strip and
the 2 x 3 subspaces of fig2) keeps the handover alone and takes no
gradient in the sweeps but those of the handoff: L-BFGS finishes those
trials in about one iteration.

The handoff to L-BFGS is explicit: `LossKernel.sweep` returns each
lane's start with its value and gradient, from the stacked passes it ran,
and L-BFGS does not evaluate its start. At budgets >= 2 that is the
stack's first forward pass and one backward pass; at budget 1 the
backward pass of the sweep in which the lane left the stack. At budget 1
a lane that L-BFGS will step from (gradient at or above TOL_GRAD, loss
above ZERO_LEVEL) also gets the secant pair of its last sweep, s = x_k -
x_{k-1} and y = g_k - g_{k-1}, which L-BFGS puts through its curvature
test before its first direction, so that its first step is quasi-Newton
rather than steepest descent. g_{k-1} is the gradient of the sweep
before where that sweep took one (the continuation's); otherwise the
sweep in which the lane leaves runs one more backward pass, of the whole
stack of the sweep before, from the forward pass it kept, and picks the
lane's row through the compaction between the two sweeps, so no lane's
arrays are gathered. Budgets >= 2 have no sweeps and hand over no pair.
The singular lanes are masked in the first forward pass, at every budget.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import SingularParameterError, UsageError
from .rank_param import ForwardMap, _row_kron, forward_map, params_length, party_columns
from .subspace import Subspace
from .tensor_core import as_int

# Loss at or below which a trial stops as a zero witness. The residual-form
# loss keeps relative accuracy down to here, and this is five orders below
# the smallest nonzero minimum seen (E_2 ~ 3.5e-7 of the maximal CES in
# 4 x 5 x 10); without the stop a non-attained zero, such as the W state at
# r = 3, is chased down towards 1e-15 for no change of verdict.
ZERO_LEVEL = 1e-12
# The l-inf gradient norm below which a point is stationary: L-BFGS stops
# there with `gradient-tolerance`, and the sweeps' continuation aims at it.
TOL_GRAD = 1e-10
# Handover from the budget-1 sweeps to L-BFGS (BENCH_11.json, measured
# with no continuation): after a sweep that lowers the loss by less than
# SWEEP_TOL of its value, or after MAX_SWEEPS sweeps. SWEEP_TOL = 1e-4 /
# 1e-6 / 1e-7 / 1e-8 gave strip-sweep wall_s 0.041 / 0.044 / 0.046 / 0.053
# s and ces-tripartite 0.031 / 0.030 / 0.030 / 0.030 s: a tight rule hands
# strip trials to L-BFGS on the float floor, where more of them stop at
# `loss-floor`, and sweeps run to convergence leave L-BFGS no superlinear
# finish at all. ces-tripartite trials take a median of 11 sweeps, and a
# cap of 6 cost it a quarter of its gain; the cap of 12 stops 13 of 36 of
# them (seed 1) 5-8 sweeps short of TOL_GRAD, which the continuation then
# covers. The sweeps also stop once a sweep lowers the loss by less than
# SLOW_GATE of its value but by more than SLOW_RATE times the sweep
# before: at so slow a linear rate SWEEP_TOL lies many sweeps away. The
# perturbed 2 x 3 subspaces of fig2 crawl so (rates of 0.5-1 per sweep),
# and without this stop fig2 ran 10% slower than with no sweeps; the
# benchmark workloads, whose rates are about 0.1 or less once below
# SLOW_GATE, run the same with or without it.
SWEEP_TOL = 1e-6
MAX_SWEEPS = 12
SLOW_GATE = 1e-2
SLOW_RATE = 0.5
# The continuation stalls once a sweep shrinks the l-inf gradient by less
# than FINISH_RATE; MAX_FINISH_SWEEPS bounds the sweeps in all (BENCH_12.json
# `continuation_study`). On the maximal CES of ces-tripartite the drop-ratio
# estimate sqrt(ratio) read 0.24-0.38 per sweep where the gradient fell by
# 0.28-0.57, and 0.64 on the local minimum 2.29e-4 of 3 x 3 x 8, where it
# fell by 0.64: the estimate rules those trials out, and L-BFGS is the
# cheaper finish. FINISH_RATE = 0.6 / 0.7 / 0.8 and a cap of 24 or
# 40 did the same ces-tripartite work (33 of 36 trials finished in the
# sweeps, seed 201) and the same fig3 work (65 of 900 trials, 300 points)
# within timing noise; a budget of n_free / 2 sweeps instead of n_free
# finished 17 of 36 and ran 14% slower, and one of 2 n_free finished 217
# fig3 trials instead of 65 at no measured gain. Stalls are rare: 3 of
# about 3,800 trials on such kernels (BENCH_14.json `traffic`).
FINISH_RATE = 0.7
MAX_FINISH_SWEEPS = 40


class _Pass(NamedTuple):
    """Forward intermediates of a stack of lanes, every array with the lane
    axis first, in the frame of `LossKernel._conj_rows`."""

    fw: ForwardMap | None  # the forward map of the factors the loss reads (None: p = [1])
    t: np.ndarray  # T, (L, D)
    best: np.ndarray | None  # budget 1: c*, party e's exact best unit factors, (L, d_e)
    w: np.ndarray  # <row_j|T>, (L, m)
    resid: np.ndarray | None  # conj(T - P_S T) on the basis side, (L, D)
    nsq: np.ndarray  # N = <T|T>, (L,)
    value: np.ndarray  # (L,)


class LossKernel:
    """Loss/gradient evaluator bound to fixed (dims, rank budget, subspace).

    `value` and `value_and_grad` take the bare parameter vector, which
    keeps the optimizer's inner loop free of object construction. The
    kernel projects onto the complement rows of the subspace when they
    are fewer than its basis rows (2k > D) and onto the basis rows
    otherwise; a full space has no complement and raises UsageError.
    At rank budget 1 the factor of party `eliminated` (the last of the
    largest parties) is the exact minimizer for the other factors, as the
    module docstring derives: x holds only the other parties' raw factors,
    `n_params` = 2 sum_{q != e} d_q floats, the kernel reads their product
    p through `forward_map`, and `completed(x)` inserts the minimizer at
    e's columns, which gives the full-length parameters. Only p = 0 is
    singular; the module docstring gives the scale range of the factors.
    Every entry point refuses a point whose length is not `n_params`
    with UsageError. T and the conjugated rows are held in
    one frame per kernel: the party order at budgets >= 2, and e's axis
    first, then the other parties in order, at budget 1.

    The forward pass, the exact solves and the gradient work on a stack of
    lanes, one point per lane (module docstring): `value` and
    `value_and_grad` are their batch of one, and `sweep(x)`
    turns a stack of drawn points into L-BFGS starts, each with its value
    and gradient, at every budget. At budget 1 it sweeps them in
    lockstep, each lane by the handover and continuation rules of the
    module docstring; the kernel holds the rows reordered around every
    party's axis for that. A lane's bits do not depend on the other lanes
    of its stack.

    Apart from precomputed constants the kernel holds a memo of the last
    point evaluated, keyed by the bytes of x, with its forward pass and,
    once `value_and_grad` asked for it, its gradient. The line search and
    `completed` read it. `value` and `value_and_grad` share the forward
    pass, so their values agree bit for bit; `value_and_grad(x)` right
    after `value(x)` runs only the backward pass, a repeat runs neither,
    and a point mutated in place is evaluated afresh. Results do not
    depend on the memo, but one kernel must not be shared between threads.
    """

    def __init__(self, dims, r: int, sub: Subspace):
        if tuple(dims) != sub.dims:
            raise UsageError(f"dims mismatch: {tuple(dims)} vs subspace {sub.dims}")
        self.dims = sub.dims
        self.r = as_int(r, "rank budget")
        if self.r < 1:
            raise UsageError(f"rank budget must be >= 1, got {r}")
        self.basis = sub.basis
        # rows spanning the complement (True) or the subspace (False); a
        # full space takes the complement side, whose rows raise UsageError
        self.complement = 2 * sub.dim > sub.dim_total
        self.rows = sub.complement_rows if self.complement else sub.basis
        self._memo = (None, None, None)  # (key, forward pass, gradient or None)
        conj_rows = self.rows.conj()
        if self.r > 1:
            self.eliminated = None
            self.n_params = params_length(self.dims, self.r)
            self._conj_rows = conj_rows
            return
        e = self.eliminated = len(self.dims) - 1 - self.dims[::-1].index(max(self.dims))
        # conj(rows) as (m, d_q, D / d_q) for every party q: q's axis, then
        # the other parties' product in party order, so that B_q = rows_q @ p
        m = self.rows.shape[0]
        self._party_rows = [
            conj_rows.reshape(m, math.prod(self.dims[:q]), d, -1).transpose(0, 2, 1, 3).reshape(m, d, -1)
            for q, d in enumerate(self.dims)
        ]
        self._conj_rows = self._party_rows[e].reshape(m, -1)  # a view, in the frame c (x) p
        self._one_row = m == 1 and not self.complement
        # x holds the other parties' factors only: one product state over
        # `_other_dims`
        self._others = [k for k in range(len(self.dims)) if k != e]
        self._other_dims = tuple(self.dims[k] for k in self._others)
        self.n_params = 2 * sum(self._other_dims)
        self._free_dims = 2 * sum(d - 1 for d in self._other_dims)  # real dims of the free factors' manifold

    def _forward(self, x: np.ndarray) -> _Pass:
        """The forward pass of the point x, a batch of one, through the memo."""
        x = np.asarray(x, dtype=np.float64)
        key = x.tobytes()
        if key != self._memo[0]:
            self._memo = (key, self._pass(x[None]), None)
        return self._memo[1]

    def _pass(self, x: np.ndarray) -> _Pass:
        """The forward pass of a stack x of points, one row per lane: T and
        its coefficients w on the rows, then the loss. The lanes' terms are
        the terms of one `forward_map`. At budgets >= 2 each row's r terms
        sum to T(x). At budget 1 each row holds the other parties' raw
        factors, one product state whose tensor is p, the last prefix of
        its term, and T = c* (x) p for party e's exact best factor c*. On
        the basis side it also returns conj(T - P_S T). Raises
        SingularParameterError, with the mask of the lanes whose T
        vanished, before dividing, and UsageError unless x has two axes,
        the last of length n_params."""
        if x.shape[1:] != (self.n_params,):
            raise UsageError(f"expected points of {self.n_params} parameters for dims {self.dims} "
                             f"and rank budget {self.r}, got points of shape {x.shape[1:]}")
        lanes, best = len(x), None
        if self.eliminated is None:
            fw = forward_map(x, self.dims, lanes * self.r)
            t = fw.prefixes[-1].reshape(lanes, self.r, -1).sum(axis=1)
            w = np.matvec(self._conj_rows, t)
        else:
            fw = forward_map(x, self._other_dims, lanes) if self._others else None
            p = np.ones((lanes, 1), dtype=np.complex128) if fw is None else fw.prefixes[-1]
            b, best = self._solve(self.eliminated, p)
            t = (best[:, :, None] * p[:, None, :]).reshape(lanes, -1)
            w = np.matvec(b, best)
        nsq = np.vecdot(t, t).real
        if not nsq.min() > 0.0:
            raise SingularParameterError("the product sum vanished", ~(nsq > 0.0))
        if self.complement:
            resid = None  # conj(P_perp T) = conj(w) @ conj rows, formed only for the gradient
            rsq = np.vecdot(w, w).real
        else:
            resid = t.conj() - (w.conj()[:, None, :] @ self._conj_rows)[:, 0]
            rsq = np.vecdot(resid, resid).real
        return _Pass(fw, t, best, w, resid, nsq, rsq / nsq)

    def _solve(self, q: int, p: np.ndarray):
        """Budget 1, for a stack p of the other parties' products, (L, D / d_q):
        B = conj(rows) contracted with p, (L, m, d_q), and party q's exact
        best unit factors for p, (L, d_q): the lowest (complement side) or
        highest (basis side) eigenvector of each lane's B^dag B."""
        b = np.matvec(self._party_rows[q], p[:, None, :])
        if self._one_row:
            # one basis row, as for the span of a state: B^dag B = b^dag b
            # has the top eigenvector conj(b). Where b vanishes every factor
            # attains the loss; eigh of 0 would give the last unit vector
            c = b[:, 0].conj()
            nrm = np.sqrt(np.vecdot(c.real, c.real) + np.vecdot(c.imag, c.imag))[:, None]
            if not nrm.all():
                zero = nrm[:, 0] == 0.0
                c[zero, -1], nrm[zero] = 1.0, 1.0
            return b, c / nrm
        vecs = np.linalg.eigh(b.conj().mT @ b)[1]
        return b, vecs[..., 0] if self.complement else vecs[..., -1]

    def completed(self, x: np.ndarray) -> np.ndarray:
        """The full-length parameters of x's state, of length
        `params_length(dims, r)`, which attains `value(x)`: at budget 1 x
        with party e's exact best factor c* inserted at e's columns, at
        budgets >= 2 a copy of x."""
        best = self._forward(x).best
        x = np.array(x, dtype=np.float64)
        if best is None:
            return x
        return np.insert(x.view(np.complex128), sum(self.dims[:self.eliminated]), best[0]).view(np.float64)

    def sweep(self, x: np.ndarray) -> list[tuple[np.ndarray, float, np.ndarray, int, tuple | None] | None]:
        """The L-BFGS starts of a stack x of drawn points, shape (lanes,
        n_params): per lane (point, value, gradient, sweeps, pair), or None
        where the drawn point is singular (where `value` would raise). The
        value and gradient are those `value_and_grad(point)` returns, bit
        for bit. The pair is the secant pair (s, y) of the lane's last
        sweep, s = x_k - x_{k-1} and y = g_k - g_{k-1}, with g_{k-1} the
        gradient `value_and_grad(x_{k-1})` returns; it is None at budgets
        >= 2, which have no sweeps, and for a lane whose start L-BFGS only
        certifies (gradient below TOL_GRAD or value at or below ZERO_LEVEL).

        Works on a copy of x, whose first forward pass masks the singular
        lanes. At budgets >= 2 each point is its draw, and one backward pass
        of the stack gives the gradients; there are no sweeps. At budget 1
        the draws are swept in lockstep from the c* of that first pass,
        which the sweep keeps as a stack next to x: each sweep sets every
        lane's other factors, party by party in party order, to their exact
        best for the rest, then party e's to c* of the forward pass of the
        swept points. The handover and continuation rules of the module
        docstring run per lane, and a lane leaves the stack when they stop
        it, with its last swept point, whose factors are unit vectors, and
        the number of sweeps that made it; x and the c* stack are compacted
        together. A sweep in which some lane reads its gradient or leaves
        the stack runs one backward pass of the whole stack. Each sweep
        keeps one copy of the stack's points from before it, for s. Where
        the sweep before took a backward pass, g_{k-1} is read from it;
        otherwise, once a leaving lane needs a pair, one backward pass of
        the sweep before's whole stack, from the forward pass it kept,
        gives g_{k-1}, and the lane's row is picked through the compaction
        between the two sweeps. There is no rollback."""
        x = np.array(x, dtype=np.float64, order="C")
        out = [None] * len(x)
        lanes = np.arange(len(x))  # the lane of each row of x
        try:
            forward = self._pass(x)
        except SingularParameterError as err:
            lanes = lanes[~err.lanes]
            if not len(lanes):
                return out
            x = x[lanes]
            forward = self._pass(x)
        if self.eliminated is None:
            for lane, point, value, grad in zip(lanes, x, forward.value.tolist(), self._grad(forward)):
                out[lane] = (point, value, grad, 0, None)
            return out
        best = forward.best  # party e's factor of each row, c* of its last pass
        # per row: the rules' state; grad_inf is set once the row reads gradients
        value, drop, ratio = forward.value.tolist(), [math.inf] * len(x), [0.0] * len(x)
        sweeps, grad_inf = [0] * len(x), [None] * len(x)
        grads = keep = None
        while len(lanes):
            # the sweep before: its forward pass of its own stack, its
            # gradients if it took them, and the row there of each row of x
            # (None: the same row); and the points before this sweep
            back, back_grads, back_rows = forward, grads, keep
            grads = keep = None
            before = x.copy()
            forward = self._sweep_once(x, best)
            best = forward.best
            done, reads = set(), []  # rows that leave the stack; rows that read their gradient
            for i, swept in enumerate(forward.value.tolist()):
                sweeps[i] += 1
                if grad_inf[i] is None:
                    gain = value[i] - swept
                    slow = gain < SLOW_GATE * value[i] and gain > SLOW_RATE * drop[i]
                    ratio[i] = max(gain, 0.0) / drop[i]
                    handover = swept <= ZERO_LEVEL or gain < SWEEP_TOL * value[i] or slow
                    if not (handover or sweeps[i] == MAX_SWEEPS):
                        value[i], drop[i] = swept, gain
                        continue
                    if self._free_dims <= 2 or swept <= ZERO_LEVEL:
                        done.add(i)
                        continue
                reads.append(i)
            if not (done or reads):
                continue
            grads = self._grad(forward)  # the whole stack: a subset of lanes would move their bits
            norms = np.abs(grads).max(axis=1, initial=0.0).tolist()  # x is empty where e is the only party
            for i in reads:
                last, grad_inf[i] = grad_inf[i], norms[i]
                # At the handover the loss gap falls by `ratio` per sweep and
                # the gradient by about its square root: go on where that
                # reaches TOL_GRAD within as many sweeps as there are free
                # real dimensions, about what L-BFGS takes.
                if last is None:
                    go_on = grad_inf[i] * math.sqrt(ratio[i]) ** self._free_dims < TOL_GRAD <= grad_inf[i]
                else:
                    go_on = TOL_GRAD <= grad_inf[i] <= FINISH_RATE * last
                if not go_on or sweeps[i] >= MAX_FINISH_SWEEPS:
                    done.add(i)
            for i in done:
                pair = None
                if norms[i] >= TOL_GRAD and forward.value[i] > ZERO_LEVEL:  # L-BFGS will step
                    if back_grads is None:
                        back_grads = self._grad(back)  # the whole stack again, for the same bits
                    j = i if back_rows is None else back_rows[i]
                    pair = (x[i] - before[i], grads[i] - back_grads[j])
                out[lanes[i]] = (x[i].copy(), float(forward.value[i]), grads[i], sweeps[i], pair)
            if done:
                keep = [i for i in range(len(lanes)) if i not in done]
                x, best, lanes = x[keep], best[keep], lanes[keep]
                value, drop, ratio, sweeps, grad_inf = (
                    [state[i] for i in keep] for state in (value, drop, ratio, sweeps, grad_inf))
        return out

    def _sweep_once(self, x: np.ndarray, best: np.ndarray) -> _Pass:
        """One sweep of the stack x in place, from party e's factors `best`:
        every other party's solve, then party e's, which is the forward
        pass of the swept points and is returned."""
        factors = [x.view(np.complex128)[:, cols] for cols in party_columns(self._other_dims)]
        factors.insert(self.eliminated, best)
        for q in self._others:
            factors[q][:] = self._solve(q, self._product(factors, q))[1]
        return self._pass(x)

    def _product(self, factors: list[np.ndarray], q: int) -> np.ndarray:
        """The product of every party's factor but q's, in party order, one
        row per lane."""
        return functools.reduce(_row_kron, factors[:q] + factors[q + 1:])

    def value(self, x: np.ndarray) -> float:
        return float(self._forward(x).value[0])

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        forward = self._forward(x)
        key, _, grad = self._memo
        if grad is None:
            grad = self._grad(forward)[0]
            self._memo = (key, forward, grad)
        return float(forward.value[0]), grad.copy()

    def _grad(self, forward: _Pass) -> np.ndarray:
        """The gradient of each lane's loss in its x, (L, n_params). At
        budget 1 it reaches the other parties' factors through the
        cotangent of p."""
        fw, t, best, w, resid, nsq, value = forward
        if fw is None:  # budget 1 with party e alone: x is empty
            return np.zeros((len(t), 0))
        if resid is None:
            resid = (w.conj()[:, None, :] @ self._conj_rows)[:, 0]
        acc = (2.0 / nsq)[:, None] * (resid - value[:, None] * t.conj())  # conj(y), y the adjoint of the quotient
        if best is None:  # term i of lane l is row l r + i of fw
            acc = np.repeat(acc, self.r, axis=0)
        else:  # the cotangents of p
            acc = np.matvec(acc.reshape(best.shape + (-1,)).mT, best)
        return _cotangents(acc, fw).conj().view(np.float64).reshape(len(t), -1)


def _cotangents(acc: np.ndarray, fw: ForwardMap) -> np.ndarray:
    """The cotangents h, shape (r, sum of widths), of all factors of `fw`:
    h[i, j] is the derivative of sum(acc_i * term i's product), holomorphic
    in the factors, in entry j of term i's factors, so the float64 view of
    conj(h) is the gradient of its real part in x. acc_i is row i of the
    (r, D) input, one row per term. Sizes are read off fw's shapes.
    The loop runs from the last party inwards, with the invariant: before
    party k, acc[i] holds input row i summed against term i's factors
    after k, shape (left_k, d_k), and party k's h is acc[i] summed against
    term i's prefix over the parties before k. The first party has no
    prefix: its h is the final acc (the input, when it is the only
    party)."""
    end = sum(f.shape[1] for f in fw.factors)
    h = np.empty((len(acc), end), dtype=np.complex128)
    for k in range(len(fw.factors) - 1, 0, -1):
        prefix, factor = fw.prefixes[k - 1], fw.factors[k]
        start = end - factor.shape[1]
        acc = acc.reshape(-1, prefix.shape[1], factor.shape[1])
        h[:, start:end] = (prefix[:, None, :] @ acc)[:, 0, :]
        acc = acc @ factor[:, :, None]
        end = start
    h[:, :end] = acc.reshape(-1, end)
    return h
