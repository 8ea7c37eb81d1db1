"""Complement-overlap loss over the bounded-rank parametrization, with an
exact analytic gradient.

For parameters x mapping to the unnormalized sum T(x), a subspace with
orthonormal basis rows e_j, and

    N = <T|T>,   c_j = <e_j|T>,   G = sum_j |c_j|^2,

the loss is L(x) = 1 - G / N, i.e. the squared complement overlap of the
normalized state. Differentiating through softplus weights, factor
normalization, the product sum and the final quotient gives, for any real
parameter x_p with dT/dx_p = T_p,

    dL/dx_p = Re( y^dag T_p ),    y = (2/N) ((G/N) T - P_S T),

which is assembled per term and party below. `LossKernel.value` and
`LossKernel.value_and_grad` share one forward pass, so their values agree
bit-for-bit. No clamping happens here; [0, 1] clamping is reporting-level
only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularParameterError, UsageError
from .rank_param import _row_kron, forward_map, logistic_vec, params_length
from .subspace import Subspace


class LossKernel:
    """Loss/gradient evaluator bound to fixed (dims, rank budget, subspace).

    Stateless apart from precomputed constants. `value` and
    `value_and_grad` take the bare parameter vector, which keeps the
    optimizer's inner loop free of object construction.
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
        self.basis_conj = sub.basis.conj()
        n = len(self.dims)
        self.left_sizes = [math.prod(self.dims[:k]) for k in range(n)]
        self.right_sizes = [math.prod(self.dims[k + 1:]) for k in range(n)]

    def _forward(self, x: np.ndarray):
        fw = forward_map(x, self.dims, self.r)
        t = fw.tensor
        nsq = float(np.real(np.vdot(t, t)))
        if not math.sqrt(nsq) > 1e-300:
            raise SingularParameterError("the weighted product sum vanished")
        c = self.basis_conj @ t
        gsq = float(np.real(np.vdot(c, c)))
        value = 1.0 - gsq / nsq
        return fw, t, nsq, c, gsq, value

    def value(self, x: np.ndarray) -> float:
        return self._forward(x)[-1]

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        fw, t, nsq, c, gsq, value = self._forward(x)
        r, dims = self.r, self.dims
        n = len(dims)

        w = c @ self.basis                      # P_S T
        y = (2.0 / nsq) * ((gsq / nsq) * t - w)  # adjoint of the quotient
        yc = y.conj()

        grad = np.empty((r, 2 * sum(dims) + 1), dtype=np.float64)
        # theta: dT/dtheta_i = logistic(theta_i) * (product of unit factors)
        grad[:, 0] = np.real(fw.prefixes[-1] @ yc) * logistic_vec(fw.theta)

        # suffix products over parties k..n-1
        suffixes = [None] * (n + 1)
        suffixes[n] = np.ones((r, 1), dtype=np.complex128)
        for k in range(n - 1, -1, -1):
            suffixes[k] = _row_kron(fw.unit_factors[k], suffixes[k + 1])

        off = 1
        for k, d in enumerate(dims):
            y3 = y.reshape(self.left_sizes[k], d, self.right_sizes[k])
            # cotangent of the unit factor rows: contract y with the
            # conjugated context (all other parties) of each term
            t1 = np.tensordot(fw.prefixes[k].conj(), y3, axes=([1], [0]))
            g = (t1 * suffixes[k + 1].conj()[:, None, :]).sum(axis=2)
            g *= fw.lam[:, None]
            f = fw.unit_factors[k]
            # chain through v / ||v||: remove the radial component
            radial = np.real((g.conj() * f).sum(axis=1))
            inv_norm = 1.0 / fw.factor_norms[k][:, None]
            grad[:, off:off + d] = (g.real - radial[:, None] * f.real) * inv_norm
            grad[:, off + d:off + 2 * d] = (g.imag - radial[:, None] * f.imag) * inv_norm
            off += 2 * d

        return value, grad.ravel()


def central_difference(func, x: np.ndarray, step: float) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    if not step > 0:
        raise UsageError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    e = np.zeros_like(x)
    for j in range(x.size):
        e[j] = step
        out[j] = (func(x + e) - func(x - e)) / (2.0 * step)
        e[j] = 0.0
    return out

