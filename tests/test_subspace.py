import json
import math
from itertools import product

import numpy as np
import pytest

from rankgauge import (
    InputError,
    MixedState,
    PureState,
    UsageError,
    apply_unitary_to_subspace,
    basis_state,
    complement_basis,
    from_spanning_set,
    haar_random_state,
    read_json,
    span_of,
    state_from_dict,
    state_to_dict,
    subspace_from_dict,
    subspace_to_dict,
    support_space,
)
from rankgauge.catalog import (
    StripParams,
    example3_state,
    ges_subspace,
    max_ces_subspace,
    strip_subspace,
    upb_3qubit_subspace,
)
from rankgauge.subspace import GS_DROP_TOL
from conftest import random_unitary


def random_subspace(dims, d_s, rng):
    return from_spanning_set([haar_random_state(dims, rng) for _ in range(d_s)])


def projector(sub):
    """Explicit orthogonal projector onto the subspace, sum_i |e_i><e_i|."""
    return sub.basis.T @ sub.basis.conj()


def modified_gram_schmidt(rows, tol=GS_DROP_TOL):
    """Reference orthonormalization: modified Gram-Schmidt with one
    reorthogonalization pass, one vdot per (vector, kept vector, pass), and
    the drop rule of `from_spanning_set` (residual < tol * largest input
    norm)."""
    rows = np.asarray(rows, dtype=np.complex128)
    scale = float(np.max(np.linalg.norm(rows, axis=1)))
    kept = []
    for row in rows:
        v = row.copy()
        for _ in range(2):
            for b in kept:
                v -= np.vdot(b, v) * b
        nrm = np.linalg.norm(v)
        if nrm >= tol * scale:
            kept.append(v / nrm)
    return np.array(kept)


class TestFromSpanningSet:
    def test_hand_gram_schmidt(self):
        v1 = basis_state((2, 2), (0, 0))
        v2 = PureState((2, 2), [1.0, 0, 0, 1.0])  # |00> + |11>, unnormalized
        sub = from_spanning_set([v1, v2])
        assert sub.dim == 2
        # second basis vector is |11> up to phase
        assert abs(abs(sub.basis[1][3]) - 1.0) < 1e-12
        assert np.linalg.norm(sub.basis[1][:3]) < 1e-12

    def test_dependent_set_dropped(self):
        v = PureState((2,), [1.0, 0.0])
        w = PureState((2,), [2.0, 0.0])
        sub = from_spanning_set([v, w])
        assert sub.dim == 1

    def test_gram_identity_random(self, rng):
        sub = random_subspace((3, 3), 5, rng)
        gram = sub.basis.conj() @ sub.basis.T
        assert np.max(np.abs(gram - np.eye(5))) < 1e-10

    def test_span_preserved(self, rng):
        vectors = [haar_random_state((2, 3), rng) for _ in range(3)]
        sub = from_spanning_set(vectors)
        # every input reconstructs from the basis
        for v in vectors:
            coef = sub.basis.conj() @ v.amp
            assert np.linalg.norm(sub.basis.T @ coef - v.amp) < 1e-9

    @pytest.mark.parametrize("scale", [1e308, 3e-320])
    def test_extreme_scales(self, scale):
        # squared norms overflow or underflow at these scales
        rows = np.array([[1.0, 1, 0, 0], [0, 1, 1, -1]])
        sub = from_spanning_set([PureState((2, 2), scale * row) for row in rows])
        ref = from_spanning_set([PureState((2, 2), row) for row in rows])
        np.testing.assert_allclose(sub.basis, ref.basis, atol=1e-15)

    def test_zero_span_rejected(self):
        zero = PureState((2,), [0.0, 0.0])
        with pytest.raises(UsageError):
            from_spanning_set([zero])

    def test_dims_mismatch(self):
        with pytest.raises(UsageError):
            from_spanning_set([basis_state((2,), (0,)), basis_state((3,), (0,))])

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        a, b = basis_state((2, 2), (0, 0)), basis_state((2, 2), (1, 1))
        with pytest.raises(UsageError, match="tolerance"):
            from_spanning_set([a, a, b], tol=tol)


def _random_rows(rng, n, d):
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


def _awkward_set(rng, n, d):
    """n random rows plus a repeated row, a scaled copy, a zero row, an
    exact combination and a nearly dependent row (a combination plus noise
    of 1e-3 of its norm), in shuffled order. The two methods' rounding in
    a kept row grows as eps / (its relative residual), about 1e-13 here."""
    rows = _random_rows(rng, n, d)
    comb = rows[0] + (0.5 - 2j) * rows[1]
    noise = _random_rows(rng, 1, d)[0]
    extra = np.array([
        rows[1],
        (1.5 + 0.5j) * rows[2],
        np.zeros(d),
        rows[0] - 3.0 * rows[2],
        comb + 1e-3 * np.linalg.norm(comb) * noise / np.linalg.norm(noise),
    ])
    return np.concatenate([rows, extra])[rng.permutation(n + 5)]


class TestConstructionMatchesReference:
    """Blocked CGS2 and the closed-form catalog constructors against the
    reference modified Gram-Schmidt, row by row."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sets(self, seed):
        rng = np.random.default_rng(seed)
        for d in (4, 8, 24):
            n = min(4, d - 1)
            # the awkward set keeps its n random rows and the nearly dependent one
            for rows, kept in ((_random_rows(rng, d // 2 + 1, d), d // 2 + 1), (_awkward_set(rng, n, d), n + 1)):
                got = from_spanning_set([PureState((d,), row) for row in rows]).basis
                ref = modified_gram_schmidt(rows)
                assert got.shape == ref.shape == (kept, d)
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @staticmethod
    def strip_vectors(d, theta, xi):
        p = StripParams(d, theta, xi)
        rows = np.zeros((d - 1, 2 * d), dtype=np.complex128)
        for i in range(d - 1):
            rows[i, i], rows[i, d + i + 1] = p.a, p.b
        return rows

    @staticmethod
    def ges_vectors(d, theta, xi):
        p = StripParams(d, theta, xi)
        dims = (2, d, d)
        rows = []
        for i1 in range(d - 1):
            for i2 in range(d - 1):
                amp = np.zeros(2 * d * d, dtype=np.complex128)
                amp[np.ravel_multi_index((0, i1, i2), dims)] = p.a
                amp[np.ravel_multi_index((1, i1 + 1, i2 + 1), dims)] = p.b
                rows.append(amp)
        return np.array(rows)

    @staticmethod
    def max_ces_vectors(dims):
        """Differences of each index-sum group's first basis state (in
        lexicographic order) with every later one, groups by ascending sum."""
        by_sum = {}
        for idx in sorted(product(*(range(d) for d in dims))):
            by_sum.setdefault(sum(idx), []).append(np.ravel_multi_index(idx, dims))
        rows = []
        for s in sorted(by_sum):
            head, *others = by_sum[s]
            for other in others:
                amp = np.zeros(math.prod(dims), dtype=np.complex128)
                amp[head], amp[other] = 1.0, -1.0
                rows.append(amp)
        return np.array(rows)

    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("theta,xi", [(1.0, 0.0), (math.pi / 2, 0.3), (2.7, 5.0)])
    def test_strip(self, d, theta, xi):
        got = strip_subspace(StripParams(d, theta, xi)).basis
        ref = modified_gram_schmidt(self.strip_vectors(d, theta, xi))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 5))
    def test_ges(self, d):
        got = ges_subspace(d, 1.1, 0.4).basis
        ref = modified_gram_schmidt(self.ges_vectors(d, 1.1, 0.4))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 8), (4, 5, 8), (4, 5, 10)])
    def test_max_ces(self, dims):
        got = max_ces_subspace(*dims).basis
        ref = modified_gram_schmidt(self.max_ces_vectors(dims))
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


class TestComplementOverlap:
    """<phi|P_perp|phi> two ways: the explicit projector I - sum_i |e_i><e_i|
    and the squared overlaps with the rows of complement_basis."""

    @staticmethod
    def overlap(sub, phi):
        return float(np.sum(np.abs(complement_basis(sub).basis.conj() @ phi.amp) ** 2))

    def test_member_gives_zero(self, rng):
        sub = random_subspace((2, 2), 2, rng)
        assert self.overlap(sub, PureState((2, 2), sub.basis[0])) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_gives_one(self):
        sub = span_of(basis_state((2, 2), (0, 0)))
        assert self.overlap(sub, basis_state((2, 2), (1, 1))) == pytest.approx(1.0, abs=1e-15)

    def test_matches_explicit_projector(self, rng):
        sub = random_subspace((2, 4), 3, rng)
        p_perp = np.eye(8) - projector(sub)
        for _ in range(10):
            phi = haar_random_state((2, 4), rng)
            direct = float(np.real(phi.amp.conj() @ p_perp @ phi.amp))
            assert self.overlap(sub, phi) == pytest.approx(direct, abs=1e-12)

    def test_partition_of_unity(self, rng):
        sub = random_subspace((2, 2, 2), 3, rng)
        for _ in range(10):
            phi = haar_random_state((2, 2, 2), rng)
            in_part = float(np.sum(np.abs(sub.basis.conj() @ phi.amp) ** 2))
            assert abs(self.overlap(sub, phi) + in_part - 1.0) < 1e-12


class TestComplementBasis:
    def test_single_qubit(self):
        sub = span_of(basis_state((2,), (0,)))
        comp = complement_basis(sub)
        assert comp.dim == 1
        assert abs(abs(comp.basis[0][1]) - 1.0) < 1e-12

    def test_rank_nullity(self, rng):
        for d_s in (1, 2, 4):
            sub = random_subspace((2, 3), d_s, rng)
            assert complement_basis(sub).dim == 6 - d_s

    def test_complement_vectors_orthogonal(self, rng):
        sub = random_subspace((2, 2, 2), 3, rng)
        comp = complement_basis(sub)
        np.testing.assert_allclose(projector(sub) + projector(comp), np.eye(8), atol=1e-12)

    def test_upb_complement(self):
        sub = upb_3qubit_subspace()
        comp = complement_basis(sub)
        assert comp.dim == 4
        cross = comp.basis.conj() @ sub.basis.T
        assert np.max(np.abs(cross)) < 1e-10

    def test_double_complement_same_projector(self, rng):
        sub = random_subspace((3, 3), 4, rng)
        again = complement_basis(complement_basis(sub))
        assert np.max(np.abs(projector(sub) - projector(again))) < 1e-9

    def test_full_space_rejected(self, rng):
        sub = random_subspace((2,), 2, rng)
        with pytest.raises(UsageError):
            complement_basis(sub)

    def test_complement_rows_computed_once_on_demand(self, rng):
        sub = random_subspace((2, 3), 4, rng)
        assert "complement_rows" not in vars(sub)
        rows = sub.complement_rows
        assert sub.complement_rows is rows
        assert not rows.flags.writeable
        np.testing.assert_array_equal(complement_basis(sub).basis, rows)


class TestSupportSpace:
    def test_pure_state(self, rng):
        psi = haar_random_state((2, 2), rng)
        sup = support_space(MixedState(psi.dims, np.outer(psi.amp, psi.amp.conj())))
        assert sup.dim == 1
        assert abs(abs(np.vdot(sup.basis[0], psi.amp)) - 1.0) < 1e-10

    def test_maximally_mixed_qubit(self):
        rho = MixedState((2,), np.eye(2) / 2)
        assert support_space(rho).dim == 2

    def test_example3_support(self):
        rho = example3_state()
        sup = support_space(rho)
        assert sup.dim == 3

    def test_support_dim_matches_gram_rank(self, rng):
        # oracle: rank of the ensemble Gram matrix
        states = [haar_random_state((2, 3), rng) for _ in range(4)]
        states.append(states[0])  # force a dependency
        mat = sum(np.outer(s.amp, s.amp.conj()) for s in states) / len(states)
        rho = MixedState((2, 3), mat)
        gram = np.array([[np.vdot(a.amp, b.amp) for b in states] for a in states])
        assert support_space(rho).dim == np.linalg.matrix_rank(gram, tol=1e-10)

    def test_no_support_rejected(self):
        rho = MixedState((2,), np.eye(2) / 2)
        with pytest.raises(UsageError):
            support_space(rho, eig_tol=1.0)


class TestApplyUnitary:
    def test_identity(self, rng):
        sub = random_subspace((2, 2), 2, rng)
        out = apply_unitary_to_subspace(sub, np.eye(4))
        np.testing.assert_allclose(out.basis, sub.basis)

    def test_global_phase_same_projector(self, rng):
        sub = random_subspace((2, 2), 2, rng)
        out = apply_unitary_to_subspace(sub, np.exp(1j * 0.7) * np.eye(4))
        assert np.max(np.abs(projector(sub) - projector(out))) < 1e-12

    def test_random_unitary_gram(self, rng):
        sub = random_subspace((2, 3), 3, rng)
        u = random_unitary(6, rng)
        out = apply_unitary_to_subspace(sub, u)
        gram = out.basis.conj() @ out.basis.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-9

    def test_non_unitary_rejected(self, rng):
        sub = random_subspace((2, 2), 2, rng)
        with pytest.raises(UsageError):
            apply_unitary_to_subspace(sub, 2.0 * np.eye(4))


class TestMixedStateValidation:
    def test_rejects_bad_trace(self):
        with pytest.raises(UsageError):
            MixedState((2,), np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(UsageError):
            MixedState((2,), np.diag([1.5, -0.5]))

    def test_accepts_tiny_negative(self):
        m = np.diag([1.0 + 5e-11, -5e-11])
        MixedState((2,), m)


class TestJsonInterchange:
    def test_subspace_round_trip(self, tmp_path, rng):
        sub = random_subspace((2, 3), 2, rng)
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(subspace_to_dict(sub)))
        back = subspace_from_dict(read_json(str(path))[1])
        assert back.dims == sub.dims and back.dim == sub.dim
        assert np.max(np.abs(projector(sub) - projector(back))) < 1e-10

    def test_state_round_trip(self, tmp_path, rng):
        psi = haar_random_state((2, 2), rng)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_dict(psi)))
        back = state_from_dict(read_json(str(path))[1])
        assert abs(abs(np.vdot(back.amp, psi.amp)) - 1.0) < 1e-12

    @pytest.mark.parametrize("scale", [1e200, 3e-320])
    def test_state_at_extreme_scales(self, scale):
        doc = {"dims": [2, 2], "vectors": [[[scale, 0], [scale, 0], [0, 0], [0, 0]]]}
        np.testing.assert_allclose(state_from_dict(doc).amp, [2**-0.5, 2**-0.5, 0, 0], atol=1e-15)
        with pytest.raises(InputError, match="zero"):
            state_from_dict({"dims": [2], "vectors": [[[0, 0], [0, 0]]]})

    @pytest.mark.parametrize("dims", [[2.5, 2], ["3", 2]])
    def test_non_integer_dims_rejected(self, dims):
        doc = {"dims": dims, "vectors": [[[1, 0]] * 4]}
        with pytest.raises(InputError, match="integers"):
            state_from_dict(doc)

    def test_oversized_vector_set_rejected_before_parsing(self):
        doc = {"dims": [4096, 4096], "vectors": [[]] * 100}
        with pytest.raises(InputError, match="100 spanning vectors .* over the budget"):
            subspace_from_dict(doc)

    def test_unnormalized_dependent_vectors_accepted(self, tmp_path):
        doc = {
            "dims": [2, 2],
            "vectors": [
                [[2.0, 0], [0, 0], [0, 0], [0, 0]],
                [[4.0, 0], [0, 0], [0, 0], [0, 0]],
                [[0, 0], [1.0, 1.0], [0, 0], [0, 0]],
            ],
            "normalized": False,
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert subspace_from_dict(read_json(str(path))[1]).dim == 2

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2,\n  "vectors": []}')
        with pytest.raises(InputError, match="line"):
            subspace_from_dict(read_json(str(path))[1])

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"dims": [2]}))
        with pytest.raises(InputError, match="vectors"):
            subspace_from_dict(read_json(str(path))[1])

    def test_wrong_length_vector_named(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"dims": [2, 2], "vectors": [[[1, 0]]]}))
        with pytest.raises(InputError, match=r"vectors\[0\]"):
            subspace_from_dict(read_json(str(path))[1])
