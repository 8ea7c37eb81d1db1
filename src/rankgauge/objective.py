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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularParameterError, UsageError
from .rank_param import forward_map, layout, logistic_vec, params_length
from .subspace import Subspace


class LossKernel:
    """Loss/gradient evaluator bound to fixed (dims, rank budget, subspace).

    `value` and `value_and_grad` take the bare parameter vector, which
    keeps the optimizer's inner loop free of object construction. The
    kernel projects onto the complement rows of the subspace when they
    are fewer than its basis rows (2k > D) and onto the basis rows
    otherwise; a full space has no complement and raises UsageError.
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
        self.rows_conj = self.rows.conj()
        self.layout = layout(self.dims, self.r)
        self.left_sizes = [math.prod(self.dims[:k]) for k in range(len(self.dims))]
        self._memo_key = None
        self._memo = None

    def _forward(self, x: np.ndarray):
        key = x.tobytes()
        if key == self._memo_key:
            return self._memo
        fw = forward_map(x, self.dims, self.r)
        t = fw.tensor
        nsq = float(np.real(np.vdot(t, t)))
        if not math.sqrt(nsq) > 1e-300:
            raise SingularParameterError("the weighted product sum vanished")
        c = self.rows_conj @ t
        if self.complement:
            resid = None  # P_perp T = c @ rows, formed only for the gradient
            rsq = float(np.real(np.vdot(c, c)))
        else:
            resid = t - c @ self.rows
            rsq = float(np.real(np.vdot(resid, resid)))
        value = rsq / nsq
        self._memo_key, self._memo = key, (fw, t, nsq, c, resid, value)
        return self._memo

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
        return value, grad
