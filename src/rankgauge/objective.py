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
softplus weights, factor normalization, the product sum and the final
quotient gives, for any real parameter x_p with dT/dx_p = T_p,

    dL/dx_p = Re( y^dag T_p ),    y = (2/N) (P_perp T - L T),

which is assembled below for all terms at once. conj(y) is contracted
with the unit factors party by party, from the last one inwards, and the
cotangents of all factor blocks land in one (r, sum(dims)) array; the
projection that removes each block's radial component and the writes into
the alpha/beta entries then cover every party in one step each, through
the cached `rank_param.layout`. `LossKernel.value` and
`LossKernel.value_and_grad` share one forward pass, so their values agree
bit-for-bit, and the kernel keeps the forward pass of the last point it
evaluated: `value_and_grad(x)` right after `value(x)` runs only the
backward pass. No clamping happens here; [0, 1] clamping is
reporting-level only.

At rank budget 1 the candidate is one product state, and the factor of
party e, the largest party (the last of them on ties), is solved exactly.
With the other parties' unit factors fixed, contracting them into the
rows gives B of shape (m, d_e) with coefficients c = lambda B u for e's
unit factor u, so the loss is ||B u||^2 on the complement side and
1 - ||B u||^2 on the basis side. Its minimizer c* is the lowest or the
highest eigenvector of the d_e x d_e matrix B^dag B, which every
evaluation computes; with one basis row b, as for the span of a state,
it is conj(b) / ||b|| without an eigenproblem. The kernel writes c* into
the forward intermediates and evaluates the residual form above at
(others) x c*, so the value is the exact loss of a product state and a
true upper bound. Party e's block of x is ignored, and so is theta, on
which no budget-1 loss depends; their gradient entries are zero. c* is
stationary on the unit sphere, so by the envelope theorem the backward
pass at (others) x c* is the exact gradient in the other factors.
`LossKernel.completed(x)` fills party e's block with c*, so that the
state of the returned parameters is the witness of the value.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularParameterError, UsageError
from .rank_param import _row_kron, forward_map, layout, logistic_vec, params_length
from .subspace import Subspace


class LossKernel:
    """Loss/gradient evaluator bound to fixed (dims, rank budget, subspace).

    `value` and `value_and_grad` take the bare parameter vector, which
    keeps the optimizer's inner loop free of object construction. The
    kernel projects onto the complement rows of the subspace when they
    are fewer than its basis rows (2k > D) and onto the basis rows
    otherwise; a full space has no complement and raises UsageError.
    At rank budget 1 the factor of party `eliminated` (the last of the
    largest parties) is the exact minimizer for the other factors, as the
    module docstring derives: that block of x and theta are ignored, get
    zero gradient, and `completed(x)` writes the minimizer into x.
    Apart from precomputed constants the kernel holds a one-entry memo:
    the forward intermediates of the last point evaluated, keyed by the
    bytes of x, so a point mutated in place is evaluated afresh. Results
    do not depend on the memo, but one kernel must not be shared between
    threads.
    """

    def __init__(self, dims, r: int, sub: Subspace):
        if tuple(dims) != sub.dims:
            raise UsageError(f"dims mismatch: {tuple(dims)} vs subspace {sub.dims}")
        self.dims = sub.dims
        self.r = int(r)
        if self.r < 1:
            raise UsageError(f"rank budget must be >= 1, got {r}")
        self.n_params = params_length(self.dims, self.r)
        self.basis = sub.basis
        # rows spanning the complement (True) or the subspace (False); a
        # full space takes the complement side, whose rows raise UsageError
        self.complement = 2 * sub.dim > sub.dim_total
        self.rows = sub.complement_rows if self.complement else sub.basis
        self.layout = layout(self.dims, self.r)
        self.left_sizes = [math.prod(self.dims[:k]) for k in range(len(self.dims))]
        self._memo_key = None
        self._memo = None
        if self.r > 1:
            self.eliminated = None
            self.rows_conj = self.rows.conj()
            return
        e = self.eliminated = len(self.dims) - 1 - self.dims[::-1].index(max(self.dims))
        # conj(rows) as (m * d_e, other parties), so that B is one product
        m, d_e = self.rows.shape[0], self.dims[e]
        self.rows_party = (
            self.rows.conj()
            .reshape(m, self.left_sizes[e], d_e, -1)
            .transpose(0, 2, 1, 3)
            .reshape(m * d_e, -1)
        )
        self._one_row = m == 1 and not self.complement
        lay, blk = self.layout, self.layout.blocks[e]
        self._ignored = np.concatenate([lay.theta, lay.alpha[0, blk], lay.beta[0, blk]])

    def _forward(self, x: np.ndarray):
        key = x.tobytes()
        if key == self._memo_key:
            return self._memo
        fw = forward_map(x, self.dims, self.r)
        if self.eliminated is None:
            c = self.rows_conj @ fw.tensor
        else:
            c = self._eliminate(fw)
        t = fw.tensor
        nsq = float(np.real(np.vdot(t, t)))
        if not math.sqrt(nsq) > 1e-300:
            raise SingularParameterError("the weighted product sum vanished")
        if self.complement:
            resid = None  # P_perp T = c @ rows, formed only for the gradient
            rsq = float(np.real(np.vdot(c, c)))
        else:
            resid = t - c @ self.rows
            rsq = float(np.real(np.vdot(resid, resid)))
        value = rsq / nsq
        self._memo_key, self._memo = key, (fw, t, nsq, c, resid, value)
        return self._memo

    def _eliminate(self, fw):
        """Budget 1: write party e's exact best unit factor c* into the
        forward intermediates, in place, and return the coefficients of
        the new T."""
        e = self.eliminated
        others = fw.prefixes[e][0]
        for f in fw.unit_factors[e + 1:]:
            others = np.multiply.outer(others, f[0]).ravel()
        b = (self.rows_party @ others).reshape(-1, self.dims[e])
        # one basis row, as for the span of a state: B^dag B = b^dag b has
        # the top eigenvector conj(b), unless b vanishes
        nrm = np.linalg.norm(b) if self._one_row else 0.0
        if nrm > 0.0:
            best = b[0].conj() / nrm
        else:
            vecs = np.linalg.eigh(b.conj().T @ b)[1]
            best = vecs[:, 0] if self.complement else vecs[:, -1]
        fw.units[0, self.layout.blocks[e]] = best  # unit_factors[e] views it
        for k in range(e, len(self.dims)):
            fw.prefixes[k + 1] = _row_kron(fw.prefixes[k], fw.unit_factors[k])
        lam = fw.lam[0]
        np.multiply(lam, fw.prefixes[-1][0], out=fw.tensor)
        return lam * (b @ best)

    def completed(self, x: np.ndarray) -> np.ndarray:
        """A copy of x whose eliminated block holds the exact best factor
        c*, so that its state attains `value(x)`; a plain copy of x at
        budgets >= 2."""
        out = np.array(x, dtype=np.float64)
        if self.eliminated is not None:
            blk = self.layout.blocks[self.eliminated]
            best = self._forward(out)[0].units[0, blk]
            out[self.layout.alpha[0, blk]] = best.real
            out[self.layout.beta[0, blk]] = best.imag
        return out

    def value(self, x: np.ndarray) -> float:
        return self._forward(x)[-1]

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        fw, t, nsq, c, resid, value = self._forward(x)
        lay = self.layout

        if resid is None:
            resid = c @ self.rows
        y = (2.0 / nsq) * (resid - value * t)  # adjoint of the quotient

        # Contract conj(y) with the factors from the last party inwards.
        # Before party k is contracted, acc[i] holds conj(y) summed against
        # term i's factors of parties > k, shape (left_k, d_k); h[i, j] is
        # then the sum over the parties < k against term i's prefix.
        h = np.empty_like(fw.units)
        acc = y.conj()
        for k in range(len(self.dims) - 1, -1, -1):
            acc = acc.reshape(-1, self.left_sizes[k], self.dims[k])
            h[:, lay.blocks[k]] = (fw.prefixes[k][:, None, :] @ acc)[:, 0, :]
            acc = acc @ fw.unit_factors[k][:, :, None]
        # z_i = <term i's unit product|conj(y)>, with every party contracted
        z = acc.reshape(self.r).real

        grad = np.empty(self.n_params, dtype=np.float64)
        grad[lay.theta] = z * logistic_vec(fw.theta)
        # Chain through v / ||v||: drop the radial component of each block.
        # Summed over a block, h times the unit factor gives z for every
        # party, so the radial coefficient is lam * z throughout.
        h *= fw.lam[:, None]
        radial = (fw.lam * z)[:, None]
        f = fw.units
        grad[lay.alpha] = (h.real - radial * f.real) / fw.col_norms
        grad[lay.beta] = (-h.imag - radial * f.imag) / fw.col_norms
        if self.eliminated is not None:
            grad[self._ignored] = 0.0
        return value, grad
