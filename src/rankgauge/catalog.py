"""Named example states and subspaces with closed-form oracles.

Every constructor is addressable from the CLI catalog via
``name:key=val,...`` (angles accept pi literals such as ``pi/2``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations, product, repeat

import numpy as np

from .errors import UsageError
from .subspace import MixedState, Subspace, complement_basis, from_spanning_set
from .tensor_core import MAX_AMPLITUDES, PureState, as_dims, basis_state, kron_chain


@dataclass(frozen=True)
class StripParams:
    """Parameters of the maximal entangled 2 x d strip of subspaces."""

    d: int
    theta: float
    xi: float = 0.0

    def __post_init__(self):
        if int(self.d) < 2:
            raise UsageError(f"d must be >= 2, got {self.d}")
        if not 0.0 < self.theta < math.pi:
            raise UsageError(f"theta must lie in (0, pi), got {self.theta}")
        if not 0.0 <= self.xi < 2.0 * math.pi:
            raise UsageError(f"xi must lie in [0, 2pi), got {self.xi}")
        object.__setattr__(self, "d", int(self.d))

    @property
    def a(self) -> complex:
        return complex(math.cos(self.theta / 2.0))

    @property
    def b(self) -> complex:
        return np.exp(1j * self.xi) * math.sin(self.theta / 2.0)


def _basis_dims(k: int, dims) -> tuple[int, ...]:
    """Validated `dims` for a spanning set of k vectors, refused before
    any vector is built when its k * prod(dims) amplitudes exceed
    MAX_AMPLITUDES."""
    dims = as_dims(dims)
    total = k * math.prod(dims)
    if total > MAX_AMPLITUDES:
        raise UsageError(
            f"{k} spanning vectors over dims {dims} hold {total} amplitudes, "
            f"over the budget of {MAX_AMPLITUDES}"
        )
    return dims


def strip_subspace(p: StripParams) -> Subspace:
    """Span of a|0>|i> + b|1>|i+1> for i = 0..d-2: the maximal entangled
    subspace of a 2 x d system, of dimension d - 1."""
    _basis_dims(p.d - 1, (2, p.d))
    vectors = []
    for i in range(p.d - 1):
        amp = np.zeros(2 * p.d, dtype=np.complex128)
        amp[i] = p.a            # |0>|i>
        amp[p.d + i + 1] = p.b  # |1>|i+1>
        vectors.append(PureState((2, p.d), amp))
    return from_spanning_set(vectors)


def strip_e2_closed_form(p: StripParams) -> float:
    """Known E_2 of the strip subspace; independent of xi."""
    s = math.sin(p.theta) ** 2 * math.sin(math.pi / p.d) ** 2
    return 0.5 * (1.0 - math.sqrt(1.0 - s))


def ges_subspace(d: int, theta: float, xi: float = 0.0) -> Subspace:
    """Genuinely entangled generalization in 2 x d x d: span of
    a|0>|i1>|i2> + b|1>|i1+1>|i2+1>, of dimension (d-1)^2."""
    p = StripParams(d, theta, xi)
    dims = _basis_dims((p.d - 1) ** 2, (2, p.d, p.d))
    vectors = []
    for i1 in range(d - 1):
        for i2 in range(d - 1):
            amp = np.zeros(2 * d * d, dtype=np.complex128)
            amp[np.ravel_multi_index((0, i1, i2), dims)] = p.a
            amp[np.ravel_multi_index((1, i1 + 1, i2 + 1), dims)] = p.b
            vectors.append(PureState(dims, amp))
    return from_spanning_set(vectors)


def ges_e2_closed_form(d: int, theta: float) -> float:
    """Known E_2 across every bipartition; same formula as the strip."""
    return strip_e2_closed_form(StripParams(d, theta))


def _single_party(d: int, entries) -> PureState:
    amp = np.zeros(d, dtype=np.complex128)
    for idx, val in entries:
        amp[idx] = val
    return PureState((d,), amp / np.linalg.norm(amp))


def tiles_upb_subspace() -> Subspace:
    """The five-state Tiles unextendible product basis in 3 x 3."""
    zero = _single_party(3, [(0, 1)])
    two = _single_party(3, [(2, 1)])
    m01 = _single_party(3, [(0, 1), (1, -1)])
    m12 = _single_party(3, [(1, 1), (2, -1)])
    flat = _single_party(3, [(0, 1), (1, 1), (2, 1)])
    vectors = [
        kron_chain([zero, m01]),
        kron_chain([two, m12]),
        kron_chain([m01, two]),
        kron_chain([m12, zero]),
        kron_chain([flat, flat]),
    ]
    return from_spanning_set(vectors)


def tiles_bound_entangled_state() -> MixedState:
    """Normalized projector onto the Tiles complement: a bound entangled
    state whose support is the complement subspace."""
    sub = tiles_upb_subspace()
    comp = complement_basis(sub)
    matrix = comp.basis.T @ comp.basis.conj() / comp.dim
    return MixedState(sub.dims, matrix)


def example3_state() -> MixedState:
    """Uniform mixture of three orthogonal highly entangled 4 x 4 states."""
    dims = (4, 4)
    pairs = [
        [(0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)],
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)],
        [(0, 2, 1), (1, 3, 1), (2, 0, 1), (3, 1, -1)],
    ]
    matrix = np.zeros((16, 16), dtype=np.complex128)
    for spec in pairs:
        amp = np.zeros(16, dtype=np.complex128)
        for i, j, v in spec:
            amp[np.ravel_multi_index((i, j), dims)] = v
        amp /= np.linalg.norm(amp)
        matrix += np.outer(amp, amp.conj()) / 3.0
    return MixedState(dims, matrix)


def upb_3qubit_subspace() -> Subspace:
    """Four-state three-qubit UPB {|000>, |1+->, |-1+>, |+-1>}; its
    complement is a completely entangled subspace."""
    zero = _single_party(2, [(0, 1)])
    one = _single_party(2, [(1, 1)])
    plus = _single_party(2, [(0, 1), (1, 1)])
    minus = _single_party(2, [(0, 1), (1, -1)])
    vectors = [
        kron_chain([zero, zero, zero]),
        kron_chain([one, plus, minus]),
        kron_chain([minus, one, plus]),
        kron_chain([plus, minus, one]),
    ]
    return from_spanning_set(vectors)


def upb_3qubit_e2_closed_form() -> float:
    """Known E_2 of the three-qubit UPB complement."""
    return 1.0 - 3.0 * math.sqrt(6.0) / 8.0


def max_ces_subspace(d1: int, d2: int, d3: int) -> Subspace:
    """Completely entangled subspace of maximal dimension
    d1 d2 d3 - d1 - d2 - d3 + 2 in d1 x d2 x d3: differences of basis
    states with equal index sums, enumerated deterministically."""
    dims = _basis_dims(max_ces_dimension(d1, d2, d3), (d1, d2, d3))
    by_sum: dict[int, list[tuple[int, int, int]]] = {}
    for idx in sorted(product(*(range(d) for d in dims))):
        by_sum.setdefault(sum(idx), []).append(idx)
    vectors = []
    for s in sorted(by_sum):
        group = by_sum[s]
        head = basis_state(dims, group[0])
        for other in group[1:]:
            vectors.append(PureState(dims, head.amp - basis_state(dims, other).amp))
    return from_spanning_set(vectors)


def max_ces_dimension(d1: int, d2: int, d3: int) -> int:
    return d1 * d2 * d3 - d1 - d2 - d3 + 2


def dicke_state(n: int, k: int) -> PureState:
    """Symmetric n-qubit state with k excitations (uniform over the
    C(n, k) basis states with k ones)."""
    if not 0 <= k <= n or n < 1:
        raise UsageError(f"need 0 <= k <= n, got n={n}, k={k}")
    dims = as_dims(repeat(2, n))
    amp = np.zeros(2**n, dtype=np.complex128)
    coef = 1.0 / math.sqrt(math.comb(n, k))
    for ones in combinations(range(n), k):
        idx = sum(1 << (n - 1 - pos) for pos in ones)
        amp[idx] = coef
    return PureState(dims, amp)


def dicke_e2_closed_form(n: int, k: int) -> float:
    """E_2 of the Dicke state: 1 - C(n,k) (k/n)^k ((n-k)/n)^(n-k)."""
    if not 0 <= k <= n or n < 1:
        raise UsageError(f"need 0 <= k <= n, got n={n}, k={k}")
    overlap = math.comb(n, k) * (k / n) ** k * ((n - k) / n) ** (n - k)
    return 1.0 - overlap


def matrix_mult_tensor(n: int) -> PureState:
    """Normalized tripartite tensor sum_{ijk} |ij>|ik>|jk> over three
    parties of dimension n^2; its rank counts the multiplications needed
    for n x n matrix products."""
    if n < 2:
        raise UsageError(f"n must be >= 2, got {n}")
    dims = as_dims((n * n,) * 3)
    amp = np.zeros(n**6, dtype=np.complex128)
    coef = n ** (-1.5)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                idx = np.ravel_multi_index((i * n + j, i * n + k, j * n + k), dims)
                amp[idx] = coef
    return PureState(dims, amp)


@dataclass(frozen=True)
class WTypeCoeffs:
    """Real coefficients on the unit sphere for a one-excitation state."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        s = self.a**2 + self.b**2 + self.c**2
        if abs(s - 1.0) > 1e-12:
            raise UsageError(f"coefficients must satisfy a^2+b^2+c^2 = 1, got {s!r}")


def w_type_state(coeffs: WTypeCoeffs) -> PureState:
    """a|100> + b|010> + c|001> over three qubits."""
    amp = np.zeros(8, dtype=np.complex128)
    amp[4] = coeffs.a  # |100>
    amp[2] = coeffs.b  # |010>
    amp[1] = coeffs.c  # |001>
    return PureState((2, 2, 2), amp)


def w_type_lambda_sq_closed_form(coeffs: WTypeCoeffs) -> float:
    """Squared maximal product overlap of the one-excitation state."""
    a2, b2, c2 = coeffs.a**2, coeffs.b**2, coeffs.c**2
    if a2 < 0.5 and b2 < 0.5 and c2 < 0.5:
        return 4.0 * a2 * b2 * c2 / (4.0 * a2 * b2 - (a2 + b2 - c2) ** 2)
    return max(a2, b2, c2)


def w_type_e2_closed_form(coeffs: WTypeCoeffs) -> float:
    return 1.0 - w_type_lambda_sq_closed_form(coeffs)


def ghz_state(n: int = 3, d: int = 2) -> PureState:
    """(|0...0> + ... + |d-1...d-1>) / sqrt(d) over n parties."""
    if n < 2 or d < 2:
        raise UsageError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    dims = as_dims(repeat(d, n))
    amp = np.zeros(d**n, dtype=np.complex128)
    for i in range(d):
        amp[np.ravel_multi_index((i,) * n, dims)] = 1.0 / math.sqrt(d)
    return PureState(dims, amp)


# ---------------------------------------------------------------------------
# CLI catalog: `name` or `name:key=val,key=val`.
# ---------------------------------------------------------------------------

_PI_RE = re.compile(r"^([+-]?\d*\.?\d*)\*?pi(?:/(\d+\.?\d*))?$")


def parse_number(text: str) -> float:
    """Parse a float with pi-literal support: pi, pi/2, 2pi/3, 0.75pi, ..."""
    s = text.strip().lower()
    m = _PI_RE.match(s)
    if m:
        coef_s, div_s = m.group(1), m.group(2)
        if coef_s in ("", "+"):
            coef = 1.0
        elif coef_s == "-":
            coef = -1.0
        else:
            coef = float(coef_s)
        value = coef * math.pi
        if div_s:
            value /= float(div_s)
        return value
    try:
        return float(s)
    except ValueError as exc:
        raise UsageError(f"cannot parse number {text!r}") from exc


def _int_of(kwargs: dict, key: str, default=None) -> int:
    if key not in kwargs:
        if default is None:
            raise UsageError(f"missing required key '{key}'")
        return default
    v = parse_number(kwargs[key])
    if v != int(v):
        raise UsageError(f"key '{key}' must be an integer, got {kwargs[key]!r}")
    return int(v)


def _float_of(kwargs: dict, key: str, default=None) -> float:
    if key not in kwargs:
        if default is None:
            raise UsageError(f"missing required key '{key}'")
        return default
    return parse_number(kwargs[key])


def _build_strip(kw):
    return strip_subspace(StripParams(_int_of(kw, "d"), _float_of(kw, "theta"), _float_of(kw, "xi", 0.0)))


def _build_ges(kw):
    return ges_subspace(_int_of(kw, "d"), _float_of(kw, "theta"), _float_of(kw, "xi", 0.0))


def _build_wtype(kw):
    return w_type_state(WTypeCoeffs(_float_of(kw, "a"), _float_of(kw, "b"), _float_of(kw, "c")))


_CATALOG = {
    "strip": (_build_strip, "strip:d=3,theta=pi/2[,xi=0]  (2 x d entangled strip subspace)"),
    "ges": (_build_ges, "ges:d=3,theta=pi/2[,xi=0]  (genuinely entangled 2 x d x d subspace)"),
    "tiles": (lambda kw: tiles_bound_entangled_state(), "tiles  (bound entangled state of the Tiles UPB)"),
    "tiles_upb": (lambda kw: tiles_upb_subspace(), "tiles_upb  (the five Tiles product states)"),
    "upb3": (lambda kw: upb_3qubit_subspace(), "upb3  (three-qubit UPB span)"),
    "upb3_complement": (
        lambda kw: complement_basis(upb_3qubit_subspace()),
        "upb3_complement  (completely entangled complement of upb3)",
    ),
    "maxces": (
        lambda kw: max_ces_subspace(_int_of(kw, "d1"), _int_of(kw, "d2"), _int_of(kw, "d3")),
        "maxces:d1=2,d2=2,d3=2  (maximal-dimension CES)",
    ),
    "example3": (lambda kw: example3_state(), "example3  (rank-3 entangled 4 x 4 mixture)"),
    "dicke": (
        lambda kw: dicke_state(_int_of(kw, "n"), _int_of(kw, "k")),
        "dicke:n=3,k=1  (symmetric n-qubit state with k excitations)",
    ),
    "mmul": (lambda kw: matrix_mult_tensor(_int_of(kw, "n")), "mmul:n=2  (matrix multiplication tensor)"),
    "wtype": (_build_wtype, "wtype:a=0.577,b=0.577,c=0.577  (one-excitation three-qubit state)"),
    "ghz": (
        lambda kw: ghz_state(_int_of(kw, "n", 3), _int_of(kw, "d", 2)),
        "ghz[:n=3,d=2]",
    ),
}


def catalog_help() -> str:
    return "\n".join(usage for _, usage in _CATALOG.values())


def build_example(spec: str):
    """Build a catalog object from `name` or `name:key=val,...`.

    Returns a Subspace, PureState or MixedState depending on the entry.
    """
    spec = spec.strip()
    name, _, arg_text = spec.partition(":")
    name = name.strip().lower()
    if name not in _CATALOG:
        raise UsageError(f"unknown example '{name}'; known examples:\n{catalog_help()}")
    kwargs = {}
    if arg_text.strip():
        for item in arg_text.split(","):
            key, eq, val = item.partition("=")
            if not eq or not key.strip() or not val.strip():
                raise UsageError(f"malformed example argument {item!r} (expected key=value)")
            kwargs[key.strip().lower()] = val.strip()
    return _CATALOG[name][0](kwargs)
