"""Dense complex multilinear algebra for multipartite pure states.

Amplitudes are stored as flat complex vectors, row-major over party
indices with party 1 slowest, so ``amp.reshape(dims)`` recovers the
natural tensor layout. All types are immutable after construction and
every operation is a pure function.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

# |norm - 1| bound for a state to carry the `normalized` flag.
NORM_ATOL = 1e-12
# Largest state space, in amplitudes, that any object may span: one
# complex128 vector of this length is 256 MiB, so larger inputs are
# refused before anything of their size is allocated.
MAX_AMPLITUDES = 1 << 24
# Largest accepted asymmetry max|M - M^dag| when ingesting a Hermitian operator.
HERMITIAN_ATOL = 1e-8


def as_dims(dims) -> tuple[int, ...]:
    """Validate and freeze a list of party dimensions (integers, each >= 2,
    n >= 1, product at most MAX_AMPLITUDES). Python and numpy integers are
    accepted; floats and strings are refused, not truncated or parsed.

    `dims` may be any iterable, a lazy one included: it is read only up
    to the first party that takes the product over the budget, so callers
    can pass `itertools.repeat(d, n)` for any n.
    """
    out = []
    total = 1
    try:
        for d in dims:
            d = operator.index(d)
            if d < 2:
                raise UsageError(f"every party dimension must be >= 2, got {d} for party {len(out) + 1}")
            total *= d
            if total > MAX_AMPLITUDES:
                raise UsageError(
                    f"the product of the party dimensions exceeds the budget of "
                    f"{MAX_AMPLITUDES} amplitudes (256 MiB per state vector)"
                )
            out.append(d)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"party dimensions must be integers, got {dims!r}") from exc
    if not out:
        raise UsageError("at least one party is required")
    return tuple(out)


def as_int(value, what: str) -> int:
    """`value` as a Python int. Python and numpy integers are accepted;
    floats and strings are refused with UsageError, not truncated."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise UsageError(f"{what} must be an integer, got {value!r}") from exc


def as_real(value, what: str) -> float:
    """`value` as a Python float. Python and numpy real numbers are
    accepted; booleans, strings and other non-numbers are refused with
    UsageError, not parsed or read as 0 and 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UsageError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise UsageError(f"{what} must be finite, got {value!r}") from exc


def peak_scaled(amp: np.ndarray) -> tuple[np.ndarray, float]:
    """(amp / p, p) for p the largest |entry| of the complex array amp, or
    (amp, 0.0) if every entry is zero. Norms of amp / p neither overflow
    (entries near 1e308) nor underflow (subnormal entries). The division
    runs on the real and imaginary parts: a complex quotient by a
    subnormal p would overflow."""
    peak = float(np.max(np.abs(amp)))
    if peak == 0.0:
        return amp, peak
    return (np.ascontiguousarray(amp).view(np.float64) / peak).view(np.complex128), peak


@dataclass(frozen=True)
class PureState:
    """A pure state |psi> over a fixed list of party dimensions.

    `normalized` is derived on construction: True iff the 2-norm of the
    amplitude vector is 1 within NORM_ATOL.
    """

    dims: tuple[int, ...]
    amp: np.ndarray
    normalized: bool = field(init=False)

    def __post_init__(self):
        dims = as_dims(self.dims)
        amp = np.array(self.amp, dtype=np.complex128).ravel()
        if amp.size != math.prod(dims):
            raise UsageError(
                f"amplitude length {amp.size} does not match dims {dims} "
                f"(expected {math.prod(dims)})"
            )
        if not np.all(np.isfinite(amp.real)) or not np.all(np.isfinite(amp.imag)):
            raise UsageError("amplitudes must be finite")
        amp.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amp", amp)
        with np.errstate(over="ignore"):  # an overflowing norm is inf: not normalized
            object.__setattr__(self, "normalized", abs(np.linalg.norm(amp) - 1.0) <= NORM_ATOL)

    @property
    def dim_total(self) -> int:
        return self.amp.size

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        amp, peak = peak_scaled(self.amp)
        return peak * float(np.linalg.norm(amp))

    def normalize(self) -> "PureState":
        amp, peak = peak_scaled(self.amp)
        if peak == 0.0:
            raise UsageError("cannot normalize a zero state")
        return PureState(self.dims, amp / np.linalg.norm(amp))

    def as_tensor(self) -> np.ndarray:
        return self.amp.reshape(self.dims)


def basis_state(dims, indices) -> PureState:
    """Computational basis state |i_1 i_2 ... i_n> for the given dims: one
    integer index per party, 0 <= i_k < d_k, else UsageError."""
    dims = as_dims(dims)
    indices = tuple(as_int(i, "basis index") for i in indices)
    if len(indices) != len(dims):
        raise UsageError(f"expected {len(dims)} basis indices for dims {dims}, got {len(indices)}")
    for k, (i, d) in enumerate(zip(indices, dims)):
        if not 0 <= i < d:
            raise UsageError(f"basis index of party {k + 1} must be in 0..{d - 1}, got {i}")
    idx = np.ravel_multi_index(indices, dims)
    amp = np.zeros(math.prod(dims), dtype=np.complex128)
    amp[idx] = 1.0
    return PureState(dims, amp)


def haar_random_state(dims, rng: np.random.Generator) -> PureState:
    """Normalized state with amplitudes drawn from the complex Gaussian
    ensemble (Haar distributed on the unit sphere)."""
    dims = as_dims(dims)
    d = math.prod(dims)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(dims, z / np.linalg.norm(z))


def kron_chain(factors: list[PureState]) -> PureState:
    """Tensor product of single-party states, party order = list order."""
    if not factors:
        raise UsageError("kron_chain requires at least one factor")
    for f in factors:
        if f.n_parties != 1:
            raise UsageError("every kron_chain factor must be a single-party state")
    amp = factors[0].amp
    for f in factors[1:]:
        amp = np.kron(amp, f.amp)
    dims = tuple(f.dims[0] for f in factors)
    return PureState(dims, amp)


@dataclass(frozen=True)
class Bipartition:
    """A cut K | K^c of the parties, with 1-based party indices."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        left = tuple(sorted(as_int(p, "party index") for p in self.left))
        right = tuple(sorted(as_int(p, "party index") for p in self.right))
        n = len(left) + len(right)
        if not left or not right:
            raise UsageError("both sides of a bipartition must be nonempty")
        if sorted(left + right) != list(range(1, n + 1)):
            raise UsageError(
                f"bipartition sides must partition parties 1..{n}, got {left} | {right}"
            )
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @classmethod
    def of(cls, left, n_parties: int) -> "Bipartition":
        left = [as_int(p, "party index") for p in left]
        return cls(left, [p for p in range(1, as_int(n_parties, "number of parties") + 1) if p not in left])

    @property
    def n_parties(self) -> int:
        return len(self.left) + len(self.right)

    def __str__(self) -> str:
        return "+".join(map(str, self.left)) + "|" + "+".join(map(str, self.right))


def canonical_bipartitions(n_parties: int) -> list[Bipartition]:
    """All 2^(n-1) - 1 nontrivial bipartitions, canonicalized so party 1
    is on the left, in deterministic order."""
    n_parties = as_int(n_parties, "number of parties")
    if n_parties < 2:
        raise UsageError("bipartitions require at least two parties")
    cuts = []
    others = list(range(2, n_parties + 1))
    for mask in range(2 ** len(others)):
        left = (1,) + tuple(p for i, p in enumerate(others) if mask >> i & 1)
        if len(left) == n_parties:
            continue
        cuts.append(Bipartition.of(left, n_parties))
    cuts.sort(key=lambda c: (len(c.left), c.left))
    return cuts


def reshape_bipartite(s: PureState, cut: Bipartition) -> np.ndarray:
    """Coefficient matrix of `s` across the cut, shape (prod d_K, prod d_K^c).

    A pure axis permutation + reshape: bijective on amplitudes, so the
    Frobenius norm equals the state norm.
    """
    if cut.n_parties != s.n_parties:
        raise UsageError(
            f"cut covers {cut.n_parties} parties but state has {s.n_parties}"
        )
    axes = [p - 1 for p in cut.left] + [p - 1 for p in cut.right]
    d_left = math.prod(s.dims[p - 1] for p in cut.left)
    d_right = math.prod(s.dims[p - 1] for p in cut.right)
    return s.as_tensor().transpose(axes).reshape(d_left, d_right)


def schmidt_coefficients(s: PureState, cut: Bipartition) -> np.ndarray:
    """Descending Schmidt coefficients of a normalized state across `cut`."""
    if abs(s.norm() - 1.0) > 1e-10:
        raise UsageError("schmidt_coefficients requires a normalized state")
    return np.linalg.svd(reshape_bipartite(s, cut), compute_uv=False)


def unitary_from_hamiltonian(h) -> np.ndarray:
    """U = exp(-iH) via the eigendecomposition of the Hermitian part of H,
    eigenpairs descending. UsageError unless H is a square, finite matrix
    that is Hermitian within HERMITIAN_ATOL."""
    m = np.array(h, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise UsageError("a Hamiltonian must be a square matrix")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise UsageError("a Hamiltonian must have finite entries")
    asym = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if asym > HERMITIAN_ATOL:
        raise UsageError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    return (v * np.exp(-1j * w)) @ v.conj().T
