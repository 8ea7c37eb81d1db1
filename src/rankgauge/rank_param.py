"""Trivialization of the bounded-rank manifold.

A free real vector x of length (2D + 1) * r, with D = sum of party
dimensions, is mapped to a normalized state of tensor rank <= r:

    term i  ->  lambda_i * |phi_i^(1)> x ... x |phi_i^(n)>,

where lambda_i = softplus(theta_i) > 0 and each single-party factor is a
complex vector (alpha + i beta) normalized to unit length; the weighted
sum of the r product terms is normalized at the end. Layout per term:
one theta, then for each party k the pair (alpha^(k), beta^(k)), each of
length d_k. `layout(dims, r)` holds this layout as index arrays, built
once per shape, so that the forward map gathers, normalizes and checks the
factor blocks of every party and term in one step each.
"""

from __future__ import annotations

import functools
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


class Layout(NamedTuple):
    """Where each block of a parameter vector sits, for one (dims, r).

    `theta`, `alpha` and `beta` are flat positions into x. Column j of
    the (r, sum(dims)) arrays runs over the parties' local indices side by
    side; `party[j]` says whose block it belongs to, `starts[k]` where
    party k's block begins, and `blocks[k]` is the matching slice.
    """

    theta: np.ndarray   # (r,)
    alpha: np.ndarray   # (r, sum(dims)) real parts of the factors
    beta: np.ndarray    # (r, sum(dims)) imaginary parts
    starts: np.ndarray  # (n,)
    party: np.ndarray   # (sum(dims),)
    ones: np.ndarray    # (r, 1) complex ones, the product over no parties
    blocks: tuple[slice, ...]


@functools.lru_cache(maxsize=64)
def layout(dims: tuple[int, ...], r: int) -> Layout:
    """The cached Layout of the parameter vector for `dims` and budget r."""
    dims = as_dims(dims)
    width = 2 * sum(dims) + 1
    rows = width * np.arange(int(r))[:, None]
    alpha, beta, starts, blocks = [], [], [], []
    off, col = 1, 0
    for d in dims:
        alpha.extend(range(off, off + d))
        beta.extend(range(off + d, off + 2 * d))
        starts.append(col)
        blocks.append(slice(col, col + d))
        off += 2 * d
        col += d
    arrays = (
        rows[:, 0],
        rows + np.array(alpha),
        rows + np.array(beta),
        np.array(starts),
        np.repeat(np.arange(len(dims)), dims),
        np.ones((int(r), 1), dtype=np.complex128),
    )
    for a in arrays:
        a.setflags(write=False)
    return Layout(*arrays, tuple(blocks))


def _row_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product: (r, p), (r, q) -> (r, p*q)."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


class ForwardMap(NamedTuple):
    """Intermediates of the trivialization, reused by the gradient."""

    theta: np.ndarray            # (r,)
    lam: np.ndarray              # (r,) softplus(theta)
    col_norms: np.ndarray        # (r, sum(dims)) norm of the raw block holding each column
    units: np.ndarray            # (r, sum(dims)) unit factors of all parties side by side
    unit_factors: list[np.ndarray]  # per party, (r, d_k) views into units
    prefixes: list[np.ndarray]   # prefixes[k]: products over parties < k, (r, prod)
    tensor: np.ndarray           # unnormalized weighted sum, (D_total,)


def forward_map(x: np.ndarray, dims: tuple[int, ...], r: int) -> ForwardMap:
    """Evaluate the trivialization at x, keeping intermediates.

    Raises SingularParameterError if any factor block is exactly zero.
    """
    lay = layout(dims, r)
    theta = x[lay.theta]
    v = x[lay.alpha] + 1j * x[lay.beta]
    norms = np.sqrt(np.add.reduceat((v.conj() * v).real, lay.starts, axis=1))
    if np.count_nonzero(norms) < norms.size:
        k, i = np.argwhere(norms.T == 0.0)[0]
        raise SingularParameterError(f"zero factor block for party {k + 1} (term {i + 1})")
    col_norms = norms[:, lay.party]
    units = v / col_norms
    unit_factors = [units[:, blk] for blk in lay.blocks]
    prefixes = [lay.ones, unit_factors[0]]
    for f in unit_factors[1:]:
        prefixes.append(_row_kron(prefixes[-1], f))
    lam = softplus_vec(theta)
    tensor = lam @ prefixes[-1]
    return ForwardMap(theta, lam, col_norms, units, unit_factors, prefixes, tensor)


def build_state(p: RankParams) -> PureState:
    """Normalized state of tensor rank <= r at the given parameters."""
    fw = forward_map(p.x, p.dims, p.r)
    norm = np.linalg.norm(fw.tensor)
    if not norm > 1e-300:
        raise SingularParameterError("the weighted product sum vanished")
    return PureState(p.dims, fw.tensor / norm)
