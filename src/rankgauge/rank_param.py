"""Bounded-rank states as plain sums of products.

A free real vector x of length 2 D r, with D = sum of party dimensions,
is mapped to a state of tensor rank <= r, the CP sum

    T(x) = sum_i  v_i^(1) x ... x v_i^(n),

normalized at the end. x is the float64 view of the (r, D) complex
factors: x.view(complex128).reshape(r, D) holds term i's factors in row
i, party k's in its d_k columns after those of the parties before it, so
each entry of a factor is a (real, imaginary) pair of x. There are no
weights and no factor normalization: the product of a term's factor norms
is its weight, and the final normalization absorbs the common scale. A
zero factor only drops its term; only T = 0 itself is singular.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularParameterError, UsageError
from .tensor_core import PureState, as_dims, as_int


def params_length(dims, r: int) -> int:
    return 2 * sum(as_dims(dims)) * as_int(r, "rank budget")


@dataclass(frozen=True)
class RankParams:
    """Parameter vector of a sum of r products over `dims`."""

    dims: tuple[int, ...]
    r: int
    x: np.ndarray

    def __post_init__(self):
        dims = as_dims(self.dims)
        r = as_int(self.r, "rank budget")
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


@functools.cache
def party_columns(dims: tuple[int, ...]) -> tuple[slice, ...]:
    """Party k's columns of the (r, sum(dims)) complex factors."""
    ends = itertools.accumulate(dims)
    return tuple(slice(end - d, end) for d, end in zip(dims, ends))


def _row_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product: (r, p), (r, q) -> (r, p*q)."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


class ForwardMap(NamedTuple):
    """Intermediates of the forward map, reused by the gradient."""

    factors: list[np.ndarray]    # per party, (r, d_k) factors of all terms
    prefixes: list[np.ndarray]   # prefixes[k]: products over parties <= k, (r, prod)

    @property
    def tensor(self) -> np.ndarray:
        """The unnormalized sum T(x), (D_total,): the last prefix of its
        one term, or the sum of the terms' last prefixes."""
        last = self.prefixes[-1]
        return last[0] if len(last) == 1 else last.sum(axis=0)


def forward_map(x: np.ndarray, dims: tuple[int, ...], r: int) -> ForwardMap:
    """Evaluate T(x), keeping intermediates. They are views of a copy of
    x, never of x itself: callers keep them, as the loss kernel's memo
    does, while the caller of x may mutate it in place."""
    v = np.array(x, dtype=np.float64).view(np.complex128).reshape(r, -1)
    factors = [v[:, cols] for cols in party_columns(dims)]
    prefixes = factors[:1]
    for f in factors[1:]:
        prefixes.append(_row_kron(prefixes[-1], f))
    return ForwardMap(factors, prefixes)


def build_state(p: RankParams) -> PureState:
    """Normalized state of tensor rank <= r at the given parameters."""
    tensor = forward_map(p.x, p.dims, p.r).tensor
    norm = np.linalg.norm(tensor)
    if not norm > 1e-300:
        raise SingularParameterError("the product sum vanished")
    return PureState(p.dims, tensor / norm)
