"""Subspaces of a multipartite Hilbert space, stored as orthonormal bases.

A subspace is never materialized as a D x D projector: the loss kernel
works with the d_S x D basis, or with the (D - d_S) x D complement rows
when those are fewer (cost O(min(d_S, D - d_S) * D) per overlap), which
is what keeps large cases cheap.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, UsageError
from .tensor_core import MAX_AMPLITUDES, PureState, as_dims, peak_scaled

# Constructor check on the basis Gram matrix. Builders in this package
# produce orthonormality at the 1e-12 level; the looser bound accommodates
# bases transported by almost-unitary maps.
ORTHO_TOL = 1e-9
# Default Gram-Schmidt drop tolerance, relative to the largest input norm.
GS_DROP_TOL = 1e-10


@dataclass(frozen=True)
class Subspace:
    """Span of orthonormal vectors; `basis` rows are the basis vectors."""

    dims: tuple[int, ...]
    basis: np.ndarray

    def __post_init__(self):
        dims = as_dims(self.dims)
        d_total = math.prod(dims)
        basis = np.array(self.basis, dtype=np.complex128)
        if basis.ndim == 1:
            basis = basis[None, :]
        if basis.ndim != 2 or basis.shape[1] != d_total:
            raise UsageError(
                f"basis shape {basis.shape} does not match total dimension {d_total}"
            )
        if not 1 <= basis.shape[0] <= d_total:
            raise UsageError(f"subspace dimension {basis.shape[0]} out of range")
        if not np.all(np.isfinite(basis.real)) or not np.all(np.isfinite(basis.imag)):
            raise UsageError("basis must have finite entries")
        gram = basis.conj() @ basis.T
        err = np.max(np.abs(gram - np.eye(basis.shape[0])))
        if err > ORTHO_TOL:
            raise UsageError(f"basis is not orthonormal (Gram deviation {err:.3e})")
        basis.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim_total(self) -> int:
        return self.basis.shape[1]

    @functools.cached_property
    def complement_rows(self) -> np.ndarray:
        """Read-only orthonormal rows spanning the orthogonal complement,
        (D - d_S, D), computed on first use and kept for the subspace's
        lifetime.

        The Householder QR of basis^T = Q R gives a unitary
        Q = H_0 H_1 ... H_{d_S - 1} whose first d_S columns span the
        subspace, so its remaining columns are orthogonal to every basis
        vector under <a|b> to working precision. Only those D - d_S
        columns are formed: the reflectors H_j = I - tau_j v_j v_j^dag are
        applied, last first, to the last D - d_S unit columns, without
        the D x D unitary.
        """
        k, d = self.dim, self.dim_total
        if k >= d:
            raise UsageError("the full space has no orthogonal complement")
        h, tau = np.linalg.qr(self.basis.T, mode="raw")  # h[j, j+1:] holds v_j below its unit entry
        cols = np.zeros((d, d - k), dtype=np.complex128)
        cols[k:] = np.eye(d - k)
        for j in range(k - 1, -1, -1):
            v = h[j, j:].copy()
            v[0] = 1.0
            cols[j:] -= np.outer(tau[j] * v, v.conj() @ cols[j:])
        rows = cols.T.copy()
        rows.setflags(write=False)
        return rows


def span_of(state: PureState) -> Subspace:
    """One-dimensional subspace spanned by a (nonzero) state."""
    return Subspace(state.dims, state.normalize().amp[None, :])


def from_spanning_set(vectors: list[PureState], tol: float = GS_DROP_TOL) -> Subspace:
    """Orthonormal basis of span{vectors}, in input order, by classical
    Gram-Schmidt with one reorthogonalization pass (CGS2).

    The inputs are stacked into one array. Each vector in turn is projected
    off the rows kept so far twice, each pass one matrix-vector pair
    v -= K^T (conj(K) v) over the kept rows K; the second pass restores
    orthogonality to working precision. In exact arithmetic this is the
    modified Gram-Schmidt basis.

    Vectors whose residual norm falls below tol * max(input norms) are
    dropped as linearly dependent; `tol` must be finite and positive. The
    stack is first scaled by its largest |entry|, so that no norm
    overflows or underflows.
    """
    if not vectors:
        raise UsageError("from_spanning_set requires at least one vector")
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"drop tolerance must be finite and positive, got {tol}")
    dims = vectors[0].dims
    for v in vectors[1:]:
        if v.dims != dims:
            raise UsageError(f"dims mismatch in spanning set: {v.dims} vs {dims}")
    rows = peak_scaled(np.array([v.amp for v in vectors], dtype=np.complex128))[0]
    scale = float(np.max(np.linalg.norm(rows, axis=1)))
    if scale <= 0.0:
        raise UsageError("spanning set contains only zero vectors")
    kept = np.empty_like(rows)
    k = 0
    for v in rows:
        for _ in range(2):  # CGS + one reorthogonalization pass
            v = v - (kept[:k] @ v.conj()).conj() @ kept[:k]
        nrm = np.linalg.norm(v)
        if nrm >= tol * scale:
            kept[k] = v / nrm
            k += 1
    if k == 0:
        raise UsageError("all vectors were dropped; the span is zero")
    return Subspace(dims, kept[:k])


def complement_basis(sub: Subspace) -> Subspace:
    """Orthonormal basis of the orthogonal complement (dimension D - d_S),
    built from the subspace's cached `complement_rows`."""
    return Subspace(sub.dims, sub.complement_rows)


def apply_unitary_to_subspace(sub: Subspace, u: np.ndarray) -> Subspace:
    """Subspace spanned by {U e_i} for a unitary U."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (sub.dim_total, sub.dim_total):
        raise UsageError(f"unitary shape {u.shape} does not match dimension {sub.dim_total}")
    err = np.max(np.abs(u @ u.conj().T - np.eye(sub.dim_total)))
    if err > 1e-8:
        raise UsageError(f"matrix is not unitary (deviation {err:.3e})")
    return Subspace(sub.dims, sub.basis @ u.T)


@dataclass(frozen=True)
class MixedState:
    """Density matrix over fixed dims: Hermitian, PSD (within -1e-10), unit trace."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = as_dims(self.dims)
        d_total = math.prod(dims)
        m = np.array(self.matrix, dtype=np.complex128)
        if m.shape != (d_total, d_total):
            raise UsageError(f"density matrix shape {m.shape}, expected {(d_total, d_total)}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise UsageError("density matrix must have finite entries")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise UsageError("density matrix is not Hermitian")
        m = (m + m.conj().T) / 2.0
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise UsageError(f"density matrix trace {np.trace(m).real!r} != 1")
        if np.linalg.eigvalsh(m)[0] < -1e-10:
            raise UsageError("density matrix has a negative eigenvalue beyond tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)

    @property
    def dim_total(self) -> int:
        return self.matrix.shape[0]


def support_space(rho: MixedState, eig_tol: float = 1e-8) -> Subspace:
    """Span of the eigenvectors of rho with eigenvalue > eig_tol.

    Tiny negative eigenvalues (>= -1e-10) are treated as zero; the basis is
    ordered by descending eigenvalue.
    """
    w, v = np.linalg.eigh(rho.matrix)
    w, v = w[::-1], v[:, ::-1]
    keep = w > eig_tol
    if not np.any(keep):
        raise UsageError(f"no eigenvalue above {eig_tol}; support is empty")
    return Subspace(rho.dims, v[:, keep].T.copy())


# ---------------------------------------------------------------------------
# JSON interchange schema:
#   {"dims": [d1, ..., dn],
#    "vectors": [[[re, im], ...], ...],
#    "normalized": bool}
# Vectors may be unnormalized and linearly dependent; amplitude ordering is
# row-major with party 1 slowest, matching PureState.
# ---------------------------------------------------------------------------


def _vector_to_pairs(amp: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in amp]


def subspace_to_dict(sub: Subspace) -> dict:
    return {
        "dims": list(sub.dims),
        "vectors": [_vector_to_pairs(row) for row in sub.basis],
        "normalized": True,
    }


def state_to_dict(state: PureState) -> dict:
    return {
        "dims": list(state.dims),
        "vectors": [_vector_to_pairs(state.amp)],
        "normalized": bool(state.normalized),
    }


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


def _parse_vectors(obj: dict) -> tuple[tuple[int, ...], np.ndarray]:
    if not isinstance(obj, dict):
        raise InputError("top-level JSON value must be an object")
    for key in ("dims", "vectors"):
        if key not in obj:
            raise InputError(f"missing required field '{key}'")
    raw = obj["vectors"]
    if not isinstance(raw, list) or not raw:
        raise InputError("field 'vectors' must be a nonempty list")
    try:
        dims = _basis_dims(len(raw), obj["dims"])
    except UsageError as exc:
        raise InputError(f"field 'dims': {exc}") from exc
    d_total = math.prod(dims)
    rows = np.zeros((len(raw), d_total), dtype=np.complex128)
    for i, vec in enumerate(raw):
        if not isinstance(vec, list) or len(vec) != d_total:
            raise InputError(
                f"field 'vectors[{i}]': expected {d_total} [re, im] pairs, "
                f"got {len(vec) if isinstance(vec, list) else type(vec).__name__}"
            )
        for j, pair in enumerate(vec):
            if (not isinstance(pair, list)) or len(pair) != 2:
                raise InputError(f"field 'vectors[{i}][{j}]': expected [re, im]")
            # numbers only: booleans and numeric strings are not amplitudes
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in pair):
                raise InputError(f"field 'vectors[{i}][{j}]': non-numeric entry")
            try:
                rows[i, j] = complex(float(pair[0]), float(pair[1]))
            except OverflowError as exc:  # an integer beyond the float range
                raise InputError("field 'vectors': entries must be finite") from exc
    if not np.all(np.isfinite(rows.real)) or not np.all(np.isfinite(rows.imag)):
        raise InputError("field 'vectors': entries must be finite")
    return dims, rows


def subspace_from_dict(obj: dict, tol: float = GS_DROP_TOL) -> Subspace:
    dims, rows = _parse_vectors(obj)
    try:
        return from_spanning_set([PureState(dims, row) for row in rows], tol=tol)
    except UsageError as exc:
        raise InputError(str(exc)) from exc


def state_from_dict(obj: dict) -> PureState:
    dims, rows = _parse_vectors(obj)
    if rows.shape[0] != 1:
        raise InputError(f"expected exactly one vector for a pure state, got {rows.shape[0]}")
    state = PureState(dims, rows[0])
    if state.norm() == 0.0:
        raise InputError("state vector is zero")
    return state.normalize()


def read_json(path: str) -> tuple[bytes, object]:
    """The bytes of a JSON file and the document parsed from those bytes."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return raw, json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
