"""Trivialization of the bounded-rank manifold.

A free real vector x of length (2D + 1) * r, with D = sum of party
dimensions, is mapped to a normalized state of tensor rank <= r:

    term i  ->  lambda_i * |phi_i^(1)> x ... x |phi_i^(n)>,

where lambda_i = softplus(theta_i) > 0 and each single-party factor is a
complex vector (alpha + i beta) normalized to unit length; the weighted
sum of the r product terms is normalized at the end. Layout per term:
one theta, then for each party k the pair (alpha^(k), beta^(k)), each of
length d_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularParameterError, UsageError
from .tensor_core import PureState, as_dims


def params_length(dims, r: int) -> int:
    dims = as_dims(dims)
    return (2 * sum(dims) + 1) * int(r)


@dataclass(frozen=True)
class RankParams:
    """Parameter vector for the rank-r trivialization over `dims`."""

    dims: tuple[int, ...]
    r: int
    x: np.ndarray

    def __post_init__(self):
        dims = as_dims(self.dims)
        r = int(self.r)
        if r < 1:
            raise UsageError(f"rank budget must be >= 1, got {r}")
        x = np.array(self.x, dtype=np.float64).ravel()
        expected = (2 * sum(dims) + 1) * r
        if x.size != expected:
            raise UsageError(
                f"parameter vector has length {x.size}, expected {expected} "
                f"for dims {dims} and rank budget {r}"
            )
        if not np.all(np.isfinite(x)):
            raise UsageError("parameters must be finite")
        x.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "x", x)


def softplus_vec(t: np.ndarray) -> np.ndarray:
    """log(1 + e^t) elementwise, overflow-safe for any finite t."""
    return np.logaddexp(0.0, t)


def logistic_vec(t: np.ndarray) -> np.ndarray:
    """Derivative of softplus; the tanh form saturates without overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def trial_rng(seed: int, trial_index: int = 0) -> np.random.Generator:
    """Deterministic per-trial substream of the base seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial_index),))
    return np.random.default_rng(ss)


def split_blocks(x: np.ndarray, dims, r: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Views into x: theta (r,) and per-party unnormalized complex factors (r, d_k)."""
    dims = as_dims(dims)
    xm = x.reshape(int(r), 2 * sum(dims) + 1)
    theta = xm[:, 0]
    factors = []
    off = 1
    for d in dims:
        a = xm[:, off:off + d]
        b = xm[:, off + d:off + 2 * d]
        factors.append(a + 1j * b)
        off += 2 * d
    return theta, factors


def _row_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product: (r, p), (r, q) -> (r, p*q)."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


class ForwardMap(NamedTuple):
    """Intermediates of the trivialization, reused by the gradient."""

    theta: np.ndarray            # (r,)
    lam: np.ndarray              # (r,) softplus(theta)
    factor_norms: list[np.ndarray]  # per party, (r,)
    unit_factors: list[np.ndarray]  # per party, (r, d_k), unit rows
    prefixes: list[np.ndarray]   # prefixes[k]: products over parties < k, (r, prod)
    tensor: np.ndarray           # unnormalized weighted sum, (D_total,)


def forward_map(x: np.ndarray, dims, r: int) -> ForwardMap:
    """Evaluate the trivialization at x, keeping intermediates.

    Raises SingularParameterError if any factor block is exactly zero.
    """
    theta, raw = split_blocks(x, dims, r)
    lam = softplus_vec(theta)
    norms = []
    units = []
    for k, v in enumerate(raw):
        n = np.linalg.norm(v, axis=1)
        if np.any(n == 0.0):
            raise SingularParameterError(
                f"zero factor block for party {k + 1} (term {int(np.argmin(n)) + 1})"
            )
        norms.append(n)
        units.append(v / n[:, None])
    prefixes = [np.ones((int(r), 1), dtype=np.complex128)]
    for f in units:
        prefixes.append(_row_kron(prefixes[-1], f))
    tensor = lam @ prefixes[-1]
    return ForwardMap(theta, lam, norms, units, prefixes, tensor)


def build_state(p: RankParams) -> PureState:
    """Normalized state of tensor rank <= r at the given parameters."""
    fw = forward_map(p.x, p.dims, p.r)
    norm = np.linalg.norm(fw.tensor)
    if not norm > 1e-300:
        raise SingularParameterError("the weighted product sum vanished")
    return PureState(p.dims, fw.tensor / norm)
