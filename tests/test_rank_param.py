import math

import numpy as np
import pytest

from rankgauge import Bipartition, SingularParameterError, UsageError
from rankgauge.rank_param import (
    RankParams,
    build_state,
    forward_map,
    layout,
    params_length,
    softplus_vec,
    trial_rng,
)
from rankgauge.tensor_core import schmidt_coefficients


def random_params(dims, r, seed):
    """The first trial's starting point that the optimizer draws for `seed`."""
    return RankParams(dims, r, trial_rng(seed).standard_normal(params_length(dims, r)))


def make_params(dims, r, theta_and_blocks):
    """Assemble x from [(theta, [(alpha_k, beta_k), ...]), ...]."""
    parts = []
    for theta, blocks in theta_and_blocks:
        parts.append([theta])
        for alpha, beta in blocks:
            parts.append(alpha)
            parts.append(beta)
    x = np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])
    return RankParams(dims, r, x)


class TestSoftplus:
    def test_zero(self):
        assert softplus_vec(np.array([0.0]))[0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_large_asymptote(self):
        # no overflow in e^t far beyond float64's exp range
        np.testing.assert_allclose(softplus_vec(np.array([100.0, 1000.0])), [100.0, 1000.0], atol=1e-12)

    def test_large_negative(self):
        # series: log(1 + e^-100) = e^-100 (1 + O(e^-100))
        assert softplus_vec(np.array([-100.0]))[0] == pytest.approx(math.exp(-100.0), rel=1e-10)

    def test_positive(self):
        assert np.all(softplus_vec(np.array([-5.0, 0.0, 3.0, 40.0])) > 0.0)


class TestRankParams:
    def test_length_validation(self):
        with pytest.raises(UsageError):
            RankParams((2, 2), 1, np.zeros(8))
        RankParams((2, 2), 1, np.zeros(9))

    def test_layout_per_term(self):
        dims = (2, 3)
        x = np.arange(params_length(dims, 2), dtype=float)
        lay = layout(dims, 2)
        alpha, beta = x[lay.alpha], x[lay.beta]
        np.testing.assert_allclose(x[lay.theta], [0.0, 11.0])
        np.testing.assert_allclose(alpha[0, lay.blocks[0]], [1.0, 2.0])
        np.testing.assert_allclose(beta[0, lay.blocks[0]], [3.0, 4.0])
        np.testing.assert_allclose(alpha[0, lay.blocks[1]], [5.0, 6.0, 7.0])
        np.testing.assert_allclose(beta[1, lay.blocks[1]], [19.0, 20.0, 21.0])
        np.testing.assert_array_equal(lay.starts, [0, 2])
        np.testing.assert_array_equal(lay.party, [0, 0, 1, 1, 1])

    def test_rejects_nonfinite(self):
        with pytest.raises(UsageError):
            RankParams((2,), 1, [np.nan] * 5)


class TestBuildProductTerm:
    """Per-term weights and unit factors, as forward_map builds them."""

    def test_basis_factor(self):
        p = make_params((2, 2), 1, [(0.0, [([1, 0], [0, 0]), ([1, 0], [0, 0])])])
        fw = forward_map(p.x, p.dims, p.r)
        assert fw.lam[0] == pytest.approx(math.log(2.0))
        np.testing.assert_allclose(fw.unit_factors[0][0], [1, 0])

    def test_plus_factor(self):
        p = make_params((2,), 1, [(0.0, [([1, 1], [0, 0])])])
        fw = forward_map(p.x, p.dims, p.r)
        np.testing.assert_allclose(fw.unit_factors[0][0], np.array([1, 1]) / np.sqrt(2))

    def test_random_unit_norm(self, rng):
        for _ in range(10):
            p = random_params((2, 3), 2, int(rng.integers(1 << 30)))
            for f in forward_map(p.x, p.dims, p.r).unit_factors:
                np.testing.assert_allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-12)

    def test_zero_block_raises(self):
        p = make_params((2, 2), 1, [(0.0, [([0, 0], [0, 0]), ([1, 0], [0, 0])])])
        with pytest.raises(SingularParameterError, match=r"party 1 \(term 1\)"):
            forward_map(p.x, p.dims, p.r)
        # the error names the first zero block: party 2, term 3 here
        dims, r = (3, 2, 4), 4
        x = random_params(dims, r, 1).x.copy()
        width = 2 * sum(dims) + 1
        start = 2 * width + 1 + 2 * dims[0]
        x[start:start + 2 * dims[1]] = 0.0
        with pytest.raises(SingularParameterError, match=r"party 2 \(term 3\)"):
            forward_map(x, dims, r)


class TestBuildState:
    def test_rank_one_product(self):
        p = make_params((2, 2), 1, [(0.3, [([1, 0], [0, 0]), ([1, 0], [0, 0])])])
        st = build_state(p)
        np.testing.assert_allclose(st.amp, [1, 0, 0, 0], atol=1e-15)

    def test_bell_from_two_terms(self):
        p = make_params(
            (2, 2),
            2,
            [
                (0.4, [([1, 0], [0, 0]), ([1, 0], [0, 0])]),
                (0.4, [([0, 1], [0, 0]), ([0, 1], [0, 0])]),
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
        # two equal-weight terms that cancel exactly
        p = make_params(
            (2,),
            2,
            [
                (0.0, [([1, 0], [0, 0])]),
                (0.0, [([-1, 0], [0, 0])]),
            ],
        )
        with pytest.raises(SingularParameterError):
            build_state(p)

    def test_rank_budget_padding(self, rng):
        # a rank-r state is reproducible with budget r' > r by switching the
        # extra weights off (large negative theta)
        p = random_params((2, 2), 2, 9)
        st = build_state(p)
        stride = 2 * 4 + 1
        pad = np.concatenate([p.x, np.zeros(stride)])
        pad[2 * stride] = -60.0  # lambda ~ 8.8e-27
        pad[2 * stride + 1] = 1.0  # arbitrary nonzero factor blocks
        pad[2 * stride + 5] = 1.0
        st2 = build_state(RankParams((2, 2), 3, pad))
        assert abs(np.vdot(st.amp, st2.amp)) >= 1.0 - 1e-10

    def test_per_term_phase_gives_global_phase(self, rng):
        # rotating one party block of every term by a common phase rotates
        # each product term, hence the whole sum, by that phase
        gamma = 0.83
        for r in (1, 2, 3):
            p = random_params((2, 3), r, 4)
            st = build_state(p)
            x2 = p.x.copy().reshape(r, -1)
            z = (x2[:, 1:3] + 1j * x2[:, 3:5]) * np.exp(1j * gamma)
            x2[:, 1:3], x2[:, 3:5] = z.real, z.imag
            st2 = build_state(RankParams((2, 3), r, x2.ravel()))
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
        draws = trial_rng(3).standard_normal(params_length((30, 30), 100))  # 12100 entries
        assert draws.size > 1e4
        assert abs(np.mean(draws)) < 0.02

    def test_scale(self):
        draws = random_params((2, 2), 50, seed=1).x
        assert np.std(draws) == pytest.approx(1.0, rel=0.15)
