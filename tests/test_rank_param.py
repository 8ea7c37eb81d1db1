import numpy as np
import pytest

from rankgauge import Bipartition, SingularParameterError, UsageError
from rankgauge.rank_param import (
    RankParams,
    build_state,
    forward_map,
    params_length,
    trial_rng,
)
from rankgauge.tensor_core import schmidt_coefficients


def random_params(dims, r, seed):
    """The first trial's starting point that the optimizer draws for `seed`."""
    return RankParams(dims, r, trial_rng(seed).standard_normal(params_length(dims, r)))


def make_params(dims, r, terms):
    """Assemble x from [[(re_1, im_1), ..., (re_n, im_n)], ...], one list
    of party factors per term, each given by its real and imaginary parts
    and stored as (re, im) pairs."""
    pairs = [np.stack([re, im], axis=-1) for factors in terms for re, im in factors]
    x = np.concatenate([np.asarray(p, dtype=float).ravel() for p in pairs])
    return RankParams(dims, r, x)


def unit_blocks(x, dims):
    """x with every factor scaled to unit norm, and each term's first
    factor then scaled by the product of that term's factor norms; party
    k's factor is its 2 d_k consecutive reals."""
    blocks = x.reshape(-1, 2 * sum(dims))
    out, weight, off = [], 1.0, 0
    for d in dims:
        v = blocks[:, off:off + 2 * d]
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        out.append(v / norms)
        weight = weight * norms
        off += 2 * d
    out[0] = out[0] * weight
    return np.concatenate(out, axis=1).ravel()


class TestRankParams:
    def test_length_validation(self):
        with pytest.raises(UsageError):
            RankParams((2, 2), 1, np.zeros(9))
        RankParams((2, 2), 1, np.zeros(8))
        # a float budget is refused, not truncated to one that fits the length
        with pytest.raises(UsageError, match="rank budget must be an integer"):
            RankParams((2, 2), 1.5, np.zeros(8))
        assert RankParams((2, 2), np.int64(1), np.zeros(8)).r == 1

    def test_factors_are_the_complex_view(self):
        # x is the float64 view of the (r, sum(dims)) complex factors:
        # party k's factors are its columns of that view
        dims = (2, 3)
        x = np.arange(params_length(dims, 2), dtype=float)
        assert x.size == 20
        v = x.view(np.complex128).reshape(2, 5)
        factors = forward_map(x, dims, 2).factors
        np.testing.assert_array_equal(factors[0], v[:, 0:2])
        np.testing.assert_array_equal(factors[1], v[:, 2:5])
        np.testing.assert_array_equal(factors[0][0], [1j, 2 + 3j])
        np.testing.assert_array_equal(factors[1][1], [14 + 15j, 16 + 17j, 18 + 19j])

    def test_rejects_nonfinite(self):
        with pytest.raises(UsageError):
            RankParams((2,), 1, [np.nan] * 4)


class TestBuildProductTerm:
    """Raw factors, as forward_map gathers them from x."""

    def test_basis_factor(self):
        p = make_params((2, 2), 1, [[([1, 0], [0, 0]), ([1, 0], [0, 0])]])
        fw = forward_map(p.x, p.dims, p.r)
        np.testing.assert_array_equal(fw.factors[0][0], [1, 0])
        np.testing.assert_array_equal(fw.tensor, [1, 0, 0, 0])

    def test_plus_factor(self):
        # the real and imaginary parts, left unnormalized
        p = make_params((2,), 1, [[([1, 1], [0, 2])]])
        fw = forward_map(p.x, p.dims, p.r)
        np.testing.assert_array_equal(fw.factors[0][0], [1, 1 + 2j])

    def test_random_unit_norm(self, rng):
        # a term is its unit factors times the product of its block norms,
        # which takes the place of a weight
        for _ in range(10):
            p = random_params((2, 3), 2, int(rng.integers(1 << 30)))
            unit = build_state(RankParams(p.dims, p.r, unit_blocks(p.x, p.dims)))
            np.testing.assert_allclose(unit.amp, build_state(p).amp, atol=1e-12)

    def test_zero_block_drops_its_term(self):
        # a zero factor block is not singular: its term only vanishes
        dims, r = (3, 2, 4), 4
        x = random_params(dims, r, 1).x.copy()
        width = 2 * sum(dims)
        start = 2 * width + 2 * dims[0]
        x[start:start + 2 * dims[1]] = 0.0
        dropped = np.delete(x.reshape(r, width), 2, axis=0).ravel()
        np.testing.assert_allclose(
            forward_map(x, dims, r).tensor, forward_map(dropped, dims, r - 1).tensor, atol=1e-15
        )


class TestBuildState:
    def test_rank_one_product(self):
        p = make_params((2, 2), 1, [[([0.3, 0], [0, 0]), ([1, 0], [0, 0])]])
        st = build_state(p)
        np.testing.assert_allclose(st.amp, [1, 0, 0, 0], atol=1e-15)

    def test_bell_from_two_terms(self):
        p = make_params(
            (2, 2),
            2,
            [
                [([1, 0], [0, 0]), ([1, 0], [0, 0])],
                [([0, 1], [0, 0]), ([0, 1], [0, 0])],
            ],
        )
        st = build_state(p)
        np.testing.assert_allclose(st.amp, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-14)

    def test_schmidt_rank_bounded(self, rng):
        for seed in range(5):
            p = random_params((2, 2, 2), 2, seed)
            st = build_state(p)
            for left in ([1], [2], [3]):
                cut = Bipartition.of(left, 3)
                assert np.sum(schmidt_coefficients(st, cut) > 1e-8) <= 2

    def test_output_normalized(self, rng):
        for seed in range(10):
            p = random_params((2, 3), 3, seed)
            assert abs(build_state(p).norm() - 1.0) < 1e-12

    def test_vanishing_sum_raises(self):
        # two terms that cancel exactly
        p = make_params((2,), 2, [[([1, 0], [0, 0])], [([-1, 0], [0, 0])]])
        with pytest.raises(SingularParameterError):
            build_state(p)

    def test_rank_budget_padding(self, rng):
        # a rank-r state is reproducible with budget r' > r by scaling the
        # extra terms down
        p = random_params((2, 2), 2, 9)
        st = build_state(p)
        extra = 1e-30 * random_params((2, 2), 1, 10).x
        st2 = build_state(RankParams((2, 2), 3, np.concatenate([p.x, extra])))
        assert abs(np.vdot(st.amp, st2.amp)) >= 1.0 - 1e-12

    def test_per_term_phase_gives_global_phase(self, rng):
        # rotating one party block of every term by a common phase rotates
        # each product term, hence the whole sum, by that phase
        gamma = 0.83
        for r in (1, 2, 3):
            p = random_params((2, 3), r, 4)
            st = build_state(p)
            x2 = p.x.copy()
            v = x2.view(np.complex128).reshape(r, -1)
            v[:, 0:2] *= np.exp(1j * gamma)
            st2 = build_state(RankParams((2, 3), r, x2))
            assert abs(abs(np.vdot(st.amp, st2.amp)) - 1.0) < 1e-10


class TestRandomInit:
    """Random starts come from trial_rng: the (seed, trial index) substream."""

    def test_deterministic(self):
        a = trial_rng(5).standard_normal(params_length((2, 2), 2))
        b = trial_rng(5).standard_normal(params_length((2, 2), 2))
        np.testing.assert_array_equal(a, b)

    def test_distinct_trials(self):
        a = trial_rng(5, 0).standard_normal(params_length((2, 2), 2))
        b = trial_rng(5, 1).standard_normal(params_length((2, 2), 2))
        assert not np.array_equal(a, b)

    def test_sample_mean(self):
        draws = trial_rng(3).standard_normal(params_length((30, 30), 100))  # 12000 entries
        assert draws.size > 1e4
        assert abs(np.mean(draws)) < 0.02

    def test_scale(self):
        draws = random_params((2, 2), 50, seed=1).x
        assert np.std(draws) == pytest.approx(1.0, rel=0.15)
