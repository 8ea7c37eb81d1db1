from itertools import repeat

import numpy as np
import pytest

from rankgauge import Bipartition, PureState, UsageError, basis_state, haar_random_state, kron_chain
from rankgauge.tensor_core import (
    MAX_AMPLITUDES,
    as_dims,
    canonical_bipartitions,
    reshape_bipartite,
    schmidt_coefficients,
    unitary_from_hamiltonian,
)


def ket(d, i):
    amp = np.zeros(d, dtype=complex)
    amp[i] = 1.0
    return PureState((d,), amp)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


class TestPureState:
    def test_normalized_flag(self):
        s = PureState((2,), [1.0, 0.0])
        assert s.normalized
        t = PureState((2,), [1.0, 1.0])
        assert not t.normalized
        assert t.normalize().normalized

    def test_rejects_bad_dims(self):
        with pytest.raises(UsageError):
            PureState((1,), [1.0])
        with pytest.raises(UsageError):
            PureState((), [])
        with pytest.raises(UsageError):
            PureState((2, 2), [1.0, 0.0])

    def test_size_budget(self):
        assert as_dims((2, MAX_AMPLITUDES // 2)) == (2, MAX_AMPLITUDES // 2)
        with pytest.raises(UsageError, match="budget"):
            as_dims((2, MAX_AMPLITUDES // 2 + 1))
        # read lazily: an endless party list stops at the budget
        with pytest.raises(UsageError, match="budget"):
            as_dims(repeat(2))

    def test_dims_must_be_integers(self):
        # floats and strings are refused, not truncated or parsed
        for bad in ([2.5, 2], ["3", 2], [2.0, 2]):
            with pytest.raises(UsageError, match="must be integers"):
                as_dims(bad)
        assert as_dims([np.int64(3), np.uint8(2)]) == (3, 2)
        assert all(type(d) is int for d in as_dims([np.int64(3), 2]))

    @pytest.mark.parametrize("scale", [1e200, 1e308, 3e-320])
    def test_normalize_at_extreme_scales(self, scale):
        # |0>|+> up to scale: squared norms overflow or underflow at these
        # scales, but the state is not zero
        s = PureState((2, 2), [scale, scale, 0.0, 0.0])
        assert s.norm() == pytest.approx(np.sqrt(2.0) * scale, rel=1e-3 if scale < 1e-300 else 1e-15)
        unit = s.normalize()
        assert unit.normalized
        np.testing.assert_allclose(unit.amp, [2**-0.5, 2**-0.5, 0, 0], atol=1e-15)
        with pytest.raises(UsageError, match="zero state"):
            PureState((2,), [0.0, 0.0]).normalize()

    def test_rejects_nonfinite(self):
        with pytest.raises(UsageError):
            PureState((2,), [np.nan, 0.0])
        with pytest.raises(UsageError):
            PureState((2,), [np.inf, 0.0])

    def test_amplitudes_immutable(self):
        s = PureState((2,), [1.0, 0.0])
        with pytest.raises(ValueError):
            s.amp[0] = 2.0


class TestKronChain:
    def test_basis_product(self):
        out = kron_chain([ket(2, 0), ket(2, 0)])
        assert out.dims == (2, 2)
        np.testing.assert_allclose(out.amp, [1, 0, 0, 0])

    def test_uniform_product(self):
        plus = PureState((2,), np.array([1.0, 1.0]) / np.sqrt(2))
        out = kron_chain([plus, plus])
        np.testing.assert_allclose(out.amp, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_norm_multiplicative(self, rng):
        for _ in range(20):
            factors = [haar_random_state((d,), rng) for d in (2, 3)]
            assert abs(kron_chain(factors).norm() - 1.0) < 1e-12

    def test_party_one_slowest(self):
        out = kron_chain([ket(2, 1), ket(3, 0)])
        assert out.amp[np.ravel_multi_index((1, 0), (2, 3))] == 1.0

    def test_errors(self):
        with pytest.raises(UsageError):
            kron_chain([])
        with pytest.raises(UsageError):
            kron_chain([basis_state((2, 2), (0, 0))])


class TestBipartition:
    def test_validation(self):
        with pytest.raises(UsageError):
            Bipartition((1, 2), (2, 3))
        with pytest.raises(UsageError):
            Bipartition((), (1, 2))
        cut = Bipartition.of([2], 3)
        assert cut.left == (2,) and cut.right == (1, 3)

    def test_canonical_enumeration(self):
        for n in (2, 3, 4):
            cuts = canonical_bipartitions(n)
            assert len(cuts) == 2 ** (n - 1) - 1
            assert all(c.left[0] == 1 for c in cuts)
            assert len(set(cuts)) == len(cuts)

    @pytest.mark.parametrize("make", [
        lambda: Bipartition((1.7,), (2,)),
        lambda: Bipartition((1,), ("2",)),
        lambda: Bipartition.of([1.0], 3),
        lambda: Bipartition.of([1], 3.0),
        lambda: canonical_bipartitions(3.0),
        lambda: basis_state((2, 2), (1.9, 0)),
        lambda: basis_state((2, 2), ("1", 0)),
    ], ids=["float-party", "str-party", "float-left", "float-count", "float-parties", "float-index",
            "str-index"])
    def test_non_integer_indices_are_refused(self, make):
        # refused, not truncated to another party or basis vector
        with pytest.raises(UsageError, match="must be an integer"):
            make()

    @pytest.mark.parametrize("indices", [(2, 0), (0, 2), (-1, 0), (0,), (0, 0, 0)],
                             ids=["too-large", "too-large-last", "negative", "too-few", "too-many"])
    def test_basis_indices_outside_the_dims_are_refused(self, indices):
        with pytest.raises(UsageError, match="basis ind"):
            basis_state((2, 2), indices)

    def test_numpy_integer_indices_are_accepted(self):
        assert Bipartition.of([np.int64(2)], np.int64(3)) == Bipartition((2,), (1, 3))
        assert canonical_bipartitions(np.int64(3)) == canonical_bipartitions(3)
        assert basis_state((2, 2), (np.int64(1), 0)).amp[2] == 1.0


class TestReshapeBipartite:
    def test_bell(self):
        bell = PureState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
        m = reshape_bipartite(bell, Bipartition.of([1], 2))
        np.testing.assert_allclose(m, np.eye(2) / np.sqrt(2))

    def test_ghz3(self):
        amp = np.zeros(8)
        amp[[0, 7]] = 1 / np.sqrt(2)
        ghz = PureState((2, 2, 2), amp)
        m = reshape_bipartite(ghz, Bipartition.of([1], 3))
        assert m.shape == (2, 4)
        expected = np.zeros((2, 4))
        expected[0, 0] = expected[1, 3] = 1 / np.sqrt(2)
        np.testing.assert_allclose(m, expected)

    def test_frobenius_preserved(self, rng):
        s = haar_random_state((2, 3, 2), rng)
        for cut in canonical_bipartitions(3):
            m = reshape_bipartite(s, cut)
            assert abs(np.linalg.norm(m) - s.norm()) < 1e-13

    def test_invalid_cut(self):
        s = basis_state((2, 2), (0, 0))
        with pytest.raises(UsageError):
            reshape_bipartite(s, Bipartition.of([1], 3))


class TestSchmidt:
    def test_bell(self):
        bell = PureState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
        lam = schmidt_coefficients(bell, Bipartition.of([1], 2))
        np.testing.assert_allclose(lam, [1 / np.sqrt(2)] * 2)

    def test_product(self):
        s = basis_state((2, 2), (0, 0))
        lam = schmidt_coefficients(s, Bipartition.of([1], 2))
        np.testing.assert_allclose(lam, [1.0, 0.0], atol=1e-15)

    def test_against_reduced_density_matrix(self, rng):
        # independent oracle: squared coefficients are the eigenvalues of
        # rho_A = M M^dag
        s = haar_random_state((3, 4), rng)
        cut = Bipartition.of([1], 2)
        lam = schmidt_coefficients(s, cut)
        m = reshape_bipartite(s, cut)
        ev = np.sort(np.linalg.eigvalsh(m @ m.conj().T))[::-1]
        np.testing.assert_allclose(lam**2, ev, atol=1e-12)

    def test_squares_sum_to_one(self, rng):
        for dims in [(2, 2), (2, 3, 2), (3, 3, 3)]:
            s = haar_random_state(dims, rng)
            for cut in canonical_bipartitions(len(dims)):
                lam = schmidt_coefficients(s, cut)
                assert abs(np.sum(lam**2) - 1.0) < 1e-10

    def test_requires_normalized(self):
        s = PureState((2, 2), [1.0, 0, 0, 1.0])
        with pytest.raises(UsageError):
            schmidt_coefficients(s, Bipartition.of([1], 2))


class TestHermitianEig:
    """The eigendecomposition behind unitary_from_hamiltonian."""

    def test_pauli_z(self):
        u = unitary_from_hamiltonian(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(u, np.diag(np.exp([-1j, 1j])), atol=1e-15)

    def test_reconstruction(self, rng):
        # every eigenpair (w, v) of H is an eigenpair (exp(-iw), v) of U
        for dim in (8, 200):
            h = random_hermitian(dim, rng)
            w, v = np.linalg.eigh(h)
            u = unitary_from_hamiltonian(h)
            assert np.linalg.norm(u @ v - v * np.exp(-1j * w)) < 1e-10 * max(1, dim / 8)
            assert np.linalg.norm(u @ u.conj().T - np.eye(dim)) < 1e-10 * max(1, dim / 8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(UsageError):
            unitary_from_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_uses_exact_hermitian_part(self, rng):
        # an asymmetry within HERMITIAN_ATOL is accepted, and U is the
        # exponential of the Hermitian part
        h = random_hermitian(5, rng)
        noisy = h + 1e-9 * rng.standard_normal((5, 5))
        np.testing.assert_array_equal(unitary_from_hamiltonian(noisy),
                                      unitary_from_hamiltonian((noisy + noisy.conj().T) / 2.0))
        assert np.max(np.abs(unitary_from_hamiltonian(noisy) - unitary_from_hamiltonian(h))) < 1e-8

    @pytest.mark.parametrize("h", [np.zeros((2, 3)), np.zeros(3), np.diag([1.0, np.nan]), np.diag([np.inf, 0.0])],
                             ids=["non-square", "vector", "nan", "inf"])
    def test_rejects_bad_matrix(self, h):
        with pytest.raises(UsageError, match="square|finite"):
            unitary_from_hamiltonian(h)


class TestUnitaryFromHamiltonian:
    def test_zero(self):
        np.testing.assert_allclose(unitary_from_hamiltonian(np.zeros((3, 3))), np.eye(3))

    def test_scalar_phase(self):
        u = unitary_from_hamiltonian(np.diag([np.pi, 0.0]))
        np.testing.assert_allclose(u, np.diag([-1.0 + 0j, 1.0 + 0j]), atol=1e-14)

    def test_unitarity(self, rng):
        h = random_hermitian(9, rng)
        u = unitary_from_hamiltonian(h)
        assert np.linalg.norm(u @ u.conj().T - np.eye(9)) < 1e-10

    def test_group_property(self, rng):
        h = random_hermitian(6, rng) * 0.1
        u1 = unitary_from_hamiltonian(h)
        u3 = unitary_from_hamiltonian(3.0 * h)
        assert np.max(np.abs(u1 @ u1 @ u1 - u3)) < 1e-8

