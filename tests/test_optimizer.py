import math

import numpy as np
import pytest

from rankgauge import (
    OptimConfig,
    OptimizationError,
    SingularParameterError,
    UsageError,
    basis_state,
    from_spanning_set,
    haar_random_state,
    minimal_rank_scan,
    run_certification,
    span_of,
)
from rankgauge import objective
from rankgauge import optimizer as opt_mod
from rankgauge.optimizer import lbfgs_minimize
from rankgauge.objective import LossKernel
from rankgauge.rank_param import trial_rng
from rankgauge.catalog import StripParams, dicke_state, ghz_state, strip_e2_closed_form, strip_subspace

from test_objective import party_slot


def oracles(value_and_grad):
    """The (value, value_and_grad) pair of a function given by the latter."""
    return (lambda x: value_and_grad(x)[0]), value_and_grad


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def value_and_grad(x):
        d = x - center
        return 0.5 * float(d @ d), d

    return oracles(value_and_grad)


def classic_two_loop(grad, pairs):
    """Reference: -H grad by the classic two-loop recursion over the
    (s, y) pairs, oldest first."""
    q = grad.copy()
    alphas = []
    for s, y in reversed(pairs):
        a = float(s @ q) / float(s @ y)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y), a in zip(pairs, reversed(alphas)):
        b = float(y @ q) / float(s @ y)
        q += (a - b) * s
    return -q


def curvature_stream(case, n, rng):
    """Seeded (s, y) pairs with y = A s for an SPD A, and whether each
    should be kept; "skip" puts pairs of non-positive curvature in."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * rng.uniform(0.5, 20.0, n)) @ q.T
    count = {"fill": opt_mod.MEMORY, "evict": 2 * opt_mod.MEMORY + 3, "skip": opt_mod.MEMORY + 4}[case]
    for k in range(count):
        s = rng.standard_normal(n)
        if case == "skip" and k % 4 == 2:
            yield s, (-s if k % 8 == 2 else np.zeros(n)), False
        else:
            yield s, a @ s, True


class TestLbfgs:
    @pytest.mark.parametrize("case", ["fill", "evict", "skip"])
    def test_compact_direction_matches_two_loop_recursion(self, case):
        rng = np.random.default_rng(["fill", "evict", "skip"].index(case))
        # slots outnumber the parameters at n = 17 and not at n = 50
        for n in (17, 50):
            hist = opt_mod._History(n)
            grad = rng.standard_normal(n)
            np.testing.assert_array_equal(opt_mod._two_loop(grad, hist), -grad)
            kept = []
            for s, y, keep in curvature_stream(case, n, rng):
                hist.push(s, y)
                if keep:
                    kept = (kept + [(s, y)])[-opt_mod.MEMORY:]
                grad = rng.standard_normal(n)
                ref = classic_two_loop(grad, kept)
                got = opt_mod._two_loop(grad, hist)
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (n, len(kept))

    def test_identity_quadratic_in_dim_iterations(self):
        # quasi-Newton on a quadratic: exact minimum within dim iterations
        for dim in (2, 5, 9):
            center = np.linspace(-0.2, 0.2, dim)
            x0 = np.zeros(dim)  # ||x0 - center|| < 1
            res = lbfgs_minimize(*quadratic(center), x0, max_iters=100)
            assert res.iterations <= dim
            assert res.value < 1e-20
            np.testing.assert_allclose(res.x, center, atol=1e-10)

    def test_anisotropic_quadratic(self):
        q = np.diag([1.0, 4.0, 25.0])
        center = np.array([1.0, -2.0, 0.5])

        def f(x):
            d = x - center
            return 0.5 * float(d @ q @ d), q @ d

        res = lbfgs_minimize(*oracles(f), np.zeros(3), max_iters=200)
        assert res.converged
        np.testing.assert_allclose(res.x, center, atol=1e-8)

    def test_ill_conditioned_quadratic_iteration_budget(self):
        # A desk-scale trial has 30-40 parameters. On a seeded SPD quadratic
        # of that size with condition 1e4 a 40-pair history converges in
        # about 300 iterations; 10 pairs take about 1000.
        n = 30
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * np.geomspace(1.0, 1e4, n)) @ q.T
        center = rng.standard_normal(n)

        def f(x):
            ad = a @ (x - center)
            return 0.5 * float((x - center) @ ad), ad

        res = lbfgs_minimize(*oracles(f), np.zeros(n))
        assert res.reason == "gradient-tolerance"
        assert res.iterations <= 500
        np.testing.assert_allclose(res.x, center, atol=1e-9)

    def test_monotone_accepted_values(self):
        def rosenbrock(x):
            a, b = 1.0, 100.0
            f = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
            g = np.array([
                -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
                2 * b * (x[1] - x[0] ** 2),
            ])
            return f, g

        res = lbfgs_minimize(*oracles(rosenbrock), np.array([-1.2, 1.0]), max_iters=500)
        assert res.value < 1e-12
        diffs = np.diff(res.values)
        assert np.all(diffs <= 0.0)

    def test_iteration_cap(self):
        res = lbfgs_minimize(*quadratic([10.0] * 4), np.zeros(4), max_iters=1)
        assert res.iterations == 1
        assert res.reason == "iteration-cap"
        assert not res.converged

    def test_gradient_tolerance_at_start(self):
        res = lbfgs_minimize(*quadratic([0.0, 0.0]), np.zeros(2), tol_grad=1e-10)
        assert res.iterations == 0
        assert res.reason == "gradient-tolerance"
        assert res.converged

    def test_singular_initial_point_propagates(self):
        def bad(x):
            raise SingularParameterError("test")

        with pytest.raises(SingularParameterError):
            lbfgs_minimize(bad, bad, np.zeros(2))

    def test_no_point_is_evaluated_twice(self, monkeypatch):
        # Floor searches bisect until distinct steps round to the same
        # point; each point must still get one forward pass, and only
        # points that pass the Armijo test may get a backward pass.
        # E_3 of the 3 x 3 maximally entangled state: some of its budget-2
        # starts end at the floor, which budget-1 starts, with one party
        # solved exactly, no longer reach
        sub = span_of(ghz_state(2, 3))
        kernel = LossKernel(sub.dims, 2, sub)
        starts = [trial_rng(seed).standard_normal(kernel.n_params) for seed in range(6)]
        direct = [lbfgs_minimize(kernel.value, kernel.value_and_grad, x0) for x0 in starts]

        forward = []
        real_forward = objective.forward_map

        def counting_forward(x, dims, r):
            forward.append(x.tobytes())
            return real_forward(x, dims, r)

        searches = []  # per line search: f0 and the values of the points given a gradient
        real_search = opt_mod._wolfe_line_search

        def recording_search(value, value_and_grad, x, f0, g0, direction, t0):
            graded = []

            def counting_value_and_grad(xt):
                ft, gt = value_and_grad(xt)
                graded.append(ft)
                return ft, gt

            searches.append((f0, graded))
            return real_search(value, counting_value_and_grad, x, f0, g0, direction, t0)

        monkeypatch.setattr(objective, "forward_map", counting_forward)
        monkeypatch.setattr(opt_mod, "_wolfe_line_search", recording_search)
        reasons = []
        gradients = forwards = 0
        for x0, ref in zip(starts, direct):
            forward.clear()
            searches.clear()
            res = lbfgs_minimize(kernel.value, kernel.value_and_grad, x0)
            assert len(set(forward)) == len(forward)
            # Armijo with a descent direction implies f_t <= f0
            assert all(ft <= f0 for f0, graded in searches for ft in graded)
            # x0 takes one gradient outside the searches; a start whose
            # searches accept every trial point grades all the others
            n_graded = sum(len(graded) for _, graded in searches)
            assert n_graded <= len(forward) - 1
            gradients += n_graded + 1
            forwards += len(forward)
            assert (res.values, res.reason, res.iterations) == (ref.values, ref.reason, ref.iterations)
            np.testing.assert_array_equal(res.x, ref.x)
            reasons.append(res.reason)
        assert gradients < forwards
        assert "loss-floor" in reasons


class FlakyKernel:
    """Raises on the first `fail_times` initial evaluations, then behaves
    like a smooth quadratic."""

    n_params = 4

    def __init__(self, fail_times):
        self.remaining = fail_times

    def value(self, x):
        return 0.5 * float(x @ x)

    def value_and_grad(self, x):
        if self.remaining > 0:
            self.remaining -= 1
            raise SingularParameterError("forced")
        return self.value(x), x.copy()


class TestTrials:
    def test_reinitialization_recovers(self):
        rng = np.random.default_rng(0)
        x, diag = opt_mod._minimize_kernel(FlakyKernel(2), rng, OptimConfig(seed=0))
        assert x is not None
        assert diag.reinits == 2
        assert not diag.failed

    def test_trial_fails_after_reinit_budget(self):
        rng = np.random.default_rng(0)
        x, diag = opt_mod._minimize_kernel(FlakyKernel(100), rng, OptimConfig(seed=0))
        assert x is None
        assert diag.failed
        assert math.isinf(diag.value)

    def test_trial_reaches_product_state(self):
        # S spanned by {|01>, |10>, |11>}: the complement ray |00> is the
        # unique product minimizer, reachable at rank budget 1
        sub = from_spanning_set(
            [basis_state((2, 2), t) for t in [(0, 1), (1, 0), (1, 1)]]
        )
        report = run_certification(sub, 2, OptimConfig(seed=5, trials=1))
        assert report.best_value < 1e-12
        assert report.best_params.r == 1
        assert not report.per_trial[0].failed

    def test_rank_budget_validated(self):
        sub = span_of(basis_state((2, 2), (0, 0)))
        with pytest.raises(UsageError):
            LossKernel((2, 2), 0, sub)


class TestOptimConfig:
    @pytest.mark.parametrize("field", ["tol_grad", "tol_loss_rel"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_tolerance_must_be_finite_and_positive(self, field, bad):
        with pytest.raises(UsageError, match="finite and positive"):
            OptimConfig(**{field: bad})


class TestRunCertification:
    def test_example_strip_value(self):
        params = StripParams(3, np.pi / 2)
        report = run_certification(strip_subspace(params), 2, OptimConfig(seed=13))
        assert report.best_value == pytest.approx(strip_e2_closed_form(params), abs=1e-9)
        assert report.best_value == pytest.approx(0.25, abs=1e-9)

    def test_deterministic_bitwise(self):
        sub = strip_subspace(StripParams(3, 1.1))
        cfg = OptimConfig(seed=21)
        r1 = run_certification(sub, 2, cfg)
        r2 = run_certification(sub, 2, cfg)
        assert r1.best_value == r2.best_value
        assert [d.value for d in r1.per_trial] == [d.value for d in r2.per_trial]

    def test_single_trial_equals_first_substream(self):
        sub = strip_subspace(StripParams(3, 0.7))
        one = run_certification(sub, 2, OptimConfig(seed=17, trials=1))
        three = run_certification(sub, 2, OptimConfig(seed=17, trials=3))
        assert one.per_trial[0] == three.per_trial[0]
        assert one.best_value == one.per_trial[0].value

    def test_best_is_min_over_trials(self):
        sub = strip_subspace(StripParams(5, 1.3))
        report = run_certification(sub, 2, OptimConfig(seed=2, trials=4))
        finite = [d.value for d in report.per_trial if math.isfinite(d.value)]
        assert report.best_value == min(finite)

    def test_more_trials_never_increase_best(self):
        sub = strip_subspace(StripParams(4, 2.0))
        small = run_certification(sub, 2, OptimConfig(seed=6, trials=2))
        big = run_certification(sub, 2, OptimConfig(seed=6, trials=5))
        # nested substreams: the first two trials coincide
        assert big.best_value <= small.best_value

    def test_non_attained_zero_stops_at_zero_witness(self):
        # rank-2 states approach the W state without reaching it, so E_3 is
        # an infimum of 0 that each trial witnesses below ZERO_LEVEL
        sub = span_of(dicke_state(3, 1))
        report = run_certification(sub, 3, OptimConfig(seed=4))
        for d in report.per_trial:
            assert d.reason == "zero-witness"
            assert 0.0 <= d.value <= opt_mod.ZERO_LEVEL
        assert minimal_rank_scan(sub, 3, cfg=OptimConfig(seed=4)).certified_rank == 2

    @pytest.mark.parametrize("r", [2, 3])
    def test_best_state_is_the_witness(self, rng, r):
        # strip: basis side with the solved party last; a random 16 of 24
        # in 2 x 4 x 3: complement side, solved party in the middle; a
        # random 2 of 16 in 4 x 2 x 2: basis side, solved party first
        subs = [
            strip_subspace(StripParams(4, 1.0)),
            from_spanning_set([haar_random_state((2, 4, 3), rng) for _ in range(16)]),
            from_spanning_set([haar_random_state((4, 2, 2), rng) for _ in range(2)]),
        ]
        for sub in subs:
            report = run_certification(sub, r, OptimConfig(seed=2))
            p_perp = np.eye(sub.dim_total) - sub.basis.T @ sub.basis.conj()
            amp = report.best_state.amp
            assert abs(np.vdot(amp, p_perp @ amp).real - report.best_value) < 1e-12, sub.dims
            if r == 2:
                # the solved party's block holds the least right singular
                # vector of P_perp (others x I), up to phase and scale
                x = report.best_params.x
                vh = np.linalg.svd(p_perp @ party_slot(x, sub.dims))[2]
                e = len(sub.dims) - 1 - sub.dims[::-1].index(max(sub.dims))
                off = 1 + 2 * sum(sub.dims[:e])
                block = x[off:off + sub.dims[e]] + 1j * x[off + sub.dims[e]:off + 2 * sub.dims[e]]
                overlap = abs(np.vdot(vh[-1].conj(), block)) / np.linalg.norm(block)
                assert overlap == pytest.approx(1.0, abs=1e-9), sub.dims

    def test_requires_r_at_least_two(self):
        sub = span_of(basis_state((2, 2), (0, 0)))
        with pytest.raises(UsageError):
            run_certification(sub, 1, OptimConfig(seed=1))

    def test_rejects_full_space(self, rng):
        sub = from_spanning_set([haar_random_state((2,), rng) for _ in range(3)])
        assert sub.dim == 2
        with pytest.raises(UsageError):
            run_certification(sub, 2, OptimConfig(seed=1))

    def test_all_trials_failed_raises(self, monkeypatch):
        sub = strip_subspace(StripParams(3, 1.0))

        def always_fail(kernel, rng, cfg):
            return None, opt_mod.TrialDiagnostics(math.inf, 0, False, "singular-parameters", 3, True)

        monkeypatch.setattr(opt_mod, "_minimize_kernel", always_fail)
        with pytest.raises(OptimizationError):
            run_certification(sub, 2, OptimConfig(seed=1))
