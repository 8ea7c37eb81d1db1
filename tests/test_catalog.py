import math

import numpy as np
import pytest

from rankgauge import (
    Bipartition,
    MixedState,
    PureState,
    Subspace,
    UsageError,
    complement_basis,
    er_pure,
    support_space,
)
from rankgauge.catalog import (
    StripParams,
    WTypeCoeffs,
    build_example,
    dicke_e2_closed_form,
    dicke_state,
    example3_state,
    ges_subspace,
    ghz_state,
    matrix_mult_tensor,
    max_ces_dimension,
    max_ces_subspace,
    parse_number,
    strip_e2_closed_form,
    strip_subspace,
    tiles_bound_entangled_state,
    tiles_upb_subspace,
    upb_3qubit_e2_closed_form,
    upb_3qubit_subspace,
    w_type_e2_closed_form,
    w_type_lambda_sq_closed_form,
    w_type_state,
)
from rankgauge.tensor_core import kron_chain, schmidt_coefficients


def dicke_closest_product(n: int, k: int) -> PureState:
    """Closest fully product state to the Dicke state: n identical copies
    of sqrt((n-k)/n)|0> + sqrt(k/n)|1>."""
    local = PureState((2,), [math.sqrt((n - k) / n), math.sqrt(k / n)])
    return kron_chain([local] * n)


class TestStrip:
    def test_d2_is_bell_span(self):
        sub = strip_subspace(StripParams(2, math.pi / 2, 0.0))
        assert sub.dim == 1
        np.testing.assert_allclose(np.abs(sub.basis[0]), np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12)

    def test_dimension_and_orthonormality(self):
        sub = strip_subspace(StripParams(3, 1.0))
        assert sub.dim == 2
        gram = sub.basis.conj() @ sub.basis.T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    def test_closed_form_values(self):
        assert strip_e2_closed_form(StripParams(3, math.pi / 2)) == pytest.approx(0.25, abs=1e-15)
        assert strip_e2_closed_form(StripParams(6, math.pi / 2)) == pytest.approx(
            0.5 * (1 - math.sqrt(3) / 2), abs=1e-15
        )
        # theta -> 0+ limit
        assert strip_e2_closed_form(StripParams(4, 1e-9)) < 1e-15

    def test_parameter_validation(self):
        with pytest.raises(UsageError):
            StripParams(1, 1.0)
        with pytest.raises(UsageError):
            StripParams(3, 0.0)
        with pytest.raises(UsageError):
            StripParams(3, 1.0, -0.1)


class TestGes:
    def test_dimension(self):
        for d in (2, 3, 4):
            sub = ges_subspace(d, 1.2)
            assert sub.dim == (d - 1) ** 2

    def test_orthonormality(self):
        sub = ges_subspace(3, 0.8, 0.4)
        gram = sub.basis.conj() @ sub.basis.T
        assert np.max(np.abs(gram - np.eye(sub.dim))) < 1e-12


class TestTiles:
    def test_five_orthogonal_product_vectors(self):
        sub = tiles_upb_subspace()
        assert sub.dim == 5
        gram = sub.basis.conj() @ sub.basis.T
        assert np.max(np.abs(gram - np.eye(5))) < 1e-12

    def test_members_are_product_states(self, cfg):
        sub = tiles_upb_subspace()
        for row in sub.basis:
            assert er_pure(PureState(sub.dims, row), 2, cfg) < 1e-10

    def test_bound_entangled_state(self):
        rho = tiles_bound_entangled_state()
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
        sup = support_space(rho)
        assert sup.dim == 4
        # the support is the UPB complement
        cross = sup.basis.conj() @ tiles_upb_subspace().basis.T
        assert np.max(np.abs(cross)) < 1e-10


class TestExample3:
    def test_trace_and_support(self):
        rho = example3_state()
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
        assert support_space(rho).dim == 3

    def test_support_matches_listed_vectors(self):
        rho = example3_state()
        sup = support_space(rho)
        # the three listed vectors are orthogonal, so eigenvalues are 1/3
        w = np.linalg.eigvalsh(rho.matrix)
        np.testing.assert_allclose(np.sort(w)[-3:], [1 / 3] * 3, atol=1e-12)
        assert sup.dim == 3


class TestUpb3Qubit:
    def test_pairwise_orthogonal(self):
        sub = upb_3qubit_subspace()
        assert sub.dim == 4
        gram = sub.basis.conj() @ sub.basis.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_complement_dimension(self):
        assert complement_basis(upb_3qubit_subspace()).dim == 4

    def test_closed_form(self):
        assert upb_3qubit_e2_closed_form() == pytest.approx(1 - 3 * math.sqrt(6) / 8, abs=1e-15)


class TestMaxCes:
    def test_dimension_formula_up_to_six(self):
        for d1 in (2, 4, 6):
            for d2 in (2, 3):
                for d3 in (2, 5, 6):
                    sub = max_ces_subspace(d1, d2, d3)
                    assert sub.dim == max_ces_dimension(d1, d2, d3)

    def test_222_dimension(self):
        assert max_ces_subspace(2, 2, 2).dim == 4

    def test_deterministic(self):
        a = max_ces_subspace(2, 3, 4)
        b = max_ces_subspace(2, 3, 4)
        np.testing.assert_array_equal(a.basis, b.basis)


class TestDicke:
    def test_w_state_amplitudes(self):
        w = dicke_state(3, 1)
        idx = [4, 2, 1]  # |100>, |010>, |001>
        np.testing.assert_allclose(w.amp[idx], 1 / np.sqrt(3))
        assert abs(w.norm() - 1.0) < 1e-14

    def test_closed_form_w(self):
        assert dicke_e2_closed_form(3, 1) == pytest.approx(5 / 9, abs=1e-15)

    def test_closed_form_trivial_k(self):
        assert dicke_e2_closed_form(4, 0) == 0.0
        assert dicke_e2_closed_form(5, 5) == 0.0

    def test_closest_product_overlap_d42(self):
        overlap = np.vdot(dicke_closest_product(4, 2).amp, dicke_state(4, 2).amp)
        assert abs(overlap) ** 2 == pytest.approx(3 / 8, abs=1e-12)
        assert dicke_e2_closed_form(4, 2) == pytest.approx(5 / 8, abs=1e-15)

    def test_closest_product_consistent_with_closed_form(self):
        for n, k in [(3, 1), (4, 1), (5, 2), (6, 3)]:
            overlap = np.vdot(dicke_closest_product(n, k).amp, dicke_state(n, k).amp)
            assert abs(overlap) ** 2 == pytest.approx(1 - dicke_e2_closed_form(n, k), abs=1e-12)


class TestMatrixMultTensor:
    def test_n2_support(self):
        t = matrix_mult_tensor(2)
        assert t.dims == (4, 4, 4)
        nz = np.flatnonzero(np.abs(t.amp) > 0)
        assert nz.size == 8
        np.testing.assert_allclose(t.amp[nz], 1 / np.sqrt(8))

    def test_marginals_maximally_mixed(self):
        t = matrix_mult_tensor(2)
        for left in ([1], [2], [3]):
            lam = schmidt_coefficients(t, Bipartition.of(left, 3))
            np.testing.assert_allclose(lam, 0.5, atol=1e-12)


class TestWType:
    def test_product_corner(self):
        c = WTypeCoeffs(1.0, 0.0, 0.0)
        assert w_type_lambda_sq_closed_form(c) == 1.0
        assert w_type_e2_closed_form(c) == 0.0

    def test_symmetric_point_matches_w_state(self):
        s = 1 / math.sqrt(3)
        c = WTypeCoeffs(s, s, s)
        assert w_type_lambda_sq_closed_form(c) == pytest.approx(4 / 9, abs=1e-12)
        assert w_type_e2_closed_form(c) == pytest.approx(5 / 9, abs=1e-12)
        # and the built state coincides with the one-excitation symmetric state
        assert abs(np.vdot(w_type_state(c).amp, dicke_state(3, 1).amp)) == pytest.approx(1.0, abs=1e-12)

    def test_random_points_match_optimizer(self, rng, cfg):
        for _ in range(10):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            c = WTypeCoeffs(*v)
            computed = er_pure(w_type_state(c), 2, cfg)
            assert computed == pytest.approx(w_type_e2_closed_form(c), abs=1e-8)

    def test_sphere_constraint_enforced(self):
        with pytest.raises(UsageError):
            WTypeCoeffs(1.0, 1.0, 0.0)


class TestGhz:
    def test_state(self):
        g = ghz_state(3)
        assert abs(g.amp[0] - 1 / np.sqrt(2)) < 1e-14
        assert abs(g.amp[7] - 1 / np.sqrt(2)) < 1e-14


class TestCatalogGrammar:
    def test_parse_number_pi_literals(self):
        assert parse_number("pi") == pytest.approx(math.pi)
        assert parse_number("pi/2") == pytest.approx(math.pi / 2)
        assert parse_number("2pi/3") == pytest.approx(2 * math.pi / 3)
        assert parse_number("0.5pi") == pytest.approx(math.pi / 2)
        assert parse_number("3*pi/4") == pytest.approx(3 * math.pi / 4)
        assert parse_number("-pi") == pytest.approx(-math.pi)
        assert parse_number("1.25") == 1.25

    def test_parse_number_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_number("two")

    def test_build_example_types(self):
        assert isinstance(build_example("strip:d=3,theta=pi/2"), Subspace)
        assert isinstance(build_example("ges:d=3,theta=pi/2"), Subspace)
        assert isinstance(build_example("tiles"), MixedState)
        assert isinstance(build_example("dicke:n=3,k=1"), PureState)
        assert isinstance(build_example("mmul:n=2"), PureState)
        assert isinstance(build_example("maxces:d1=2,d2=2,d3=2"), Subspace)
        assert isinstance(build_example("upb3_complement"), Subspace)
        assert isinstance(build_example("wtype:a=1,b=0,c=0"), PureState)
        assert isinstance(build_example("ghz"), PureState)

    def test_build_example_errors(self):
        with pytest.raises(UsageError):
            build_example("unknown")
        with pytest.raises(UsageError):
            build_example("strip:d=3")  # theta missing
        with pytest.raises(UsageError):
            build_example("dicke:n=3,k")  # malformed pair
