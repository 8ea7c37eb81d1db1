"""Bounded-rank states as plain sums of products.

A free real vector x of length 2 D r, with D = sum of party dimensions,
is mapped to a state of tensor rank <= r, the CP sum

    T(x) = sum_i  v_i^(1) x ... x v_i^(n),   v_i^(k) = alpha_i^(k) + i beta_i^(k),

normalized at the end. Layout per term: for each party k the pair
(alpha^(k), beta^(k)), each of length d_k. There are no weights and no
factor normalization: the product of a term's block norms is its weight,
and the final normalization absorbs the common scale. A zero block only
drops its term; only T = 0 itself is singular. `layout(dims, r)` holds
the layout as index arrays, built once per shape, so that the forward map
gathers the factor blocks of every party and term in one step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularParameterError, UsageError
from .tensor_core import PureState, as_dims


def params_length(dims, r: int) -> int:
    return 2 * sum(as_dims(dims)) * int(r)


@dataclass(frozen=True)
class RankParams:
    """Parameter vector of a sum of r products over `dims`."""

    dims: tuple[int, ...]
    r: int
    x: np.ndarray

    def __post_init__(self):
        dims = as_dims(self.dims)
        r = int(self.r)
        if r < 1:
            raise UsageError(f"rank budget must be >= 1, got {r}")
        x = np.array(self.x, dtype=np.float64).ravel()
        expected = params_length(dims, r)
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


def trial_rng(seed: int, trial_index: int = 0) -> np.random.Generator:
    """Deterministic per-trial substream of the base seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial_index),))
    return np.random.default_rng(ss)


class Layout(NamedTuple):
    """Where each block of a parameter vector sits, for one (dims, r).

    `alpha` and `beta` are flat positions into x. Column j of these
    (r, sum(dims)) arrays runs over the parties' local indices side by
    side; `party[j]` says whose block it belongs to, and `blocks[k]` is
    party k's slice of the columns.
    """

    alpha: np.ndarray   # (r, sum(dims)) real parts of the factors
    beta: np.ndarray    # (r, sum(dims)) imaginary parts
    party: np.ndarray   # (sum(dims),)
    ones: np.ndarray    # (r, 1) complex ones, the product over no parties
    blocks: tuple[slice, ...]


@functools.lru_cache(maxsize=64)
def layout(dims: tuple[int, ...], r: int) -> Layout:
    """The cached Layout of the parameter vector for `dims` and budget r."""
    dims = as_dims(dims)
    rows = 2 * sum(dims) * np.arange(int(r))[:, None]
    alpha, beta, blocks = [], [], []
    off, col = 0, 0
    for d in dims:
        alpha.extend(range(off, off + d))
        beta.extend(range(off + d, off + 2 * d))
        blocks.append(slice(col, col + d))
        off += 2 * d
        col += d
    arrays = (
        rows + np.array(alpha),
        rows + np.array(beta),
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
    """Intermediates of the forward map, reused by the gradient."""

    factors: list[np.ndarray]    # per party, (r, d_k) raw factors of all terms
    prefixes: list[np.ndarray]   # prefixes[k]: products over parties < k, (r, prod)
    tensor: np.ndarray           # unnormalized sum T(x), (D_total,)


def forward_map(x: np.ndarray, dims: tuple[int, ...], r: int) -> ForwardMap:
    """Evaluate T(x), keeping intermediates."""
    lay = layout(dims, r)
    v = x[lay.alpha] + 1j * x[lay.beta]
    factors = [v[:, blk] for blk in lay.blocks]
    prefixes = [lay.ones, factors[0]]
    for f in factors[1:]:
        prefixes.append(_row_kron(prefixes[-1], f))
    return ForwardMap(factors, prefixes, prefixes[-1].sum(axis=0))


def build_state(p: RankParams) -> PureState:
    """Normalized state of tensor rank <= r at the given parameters."""
    tensor = forward_map(p.x, p.dims, p.r).tensor
    norm = np.linalg.norm(tensor)
    if not norm > 1e-300:
        raise SingularParameterError("the product sum vanished")
    return PureState(p.dims, tensor / norm)
