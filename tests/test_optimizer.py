import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from rankgauge import (
    OptimConfig,
    OptimizationError,
    SingularParameterError,
    UsageError,
    basis_state,
    complement_basis,
    from_spanning_set,
    haar_random_state,
    minimal_rank_scan,
    run_certification,
    span_of,
)
from rankgauge import objective
from rankgauge import optimizer as opt_mod
from rankgauge.optimizer import lbfgs_minimize, level_bound
from rankgauge.objective import LossKernel
from rankgauge.rank_param import trial_rng
from rankgauge.catalog import (
    StripParams,
    WTypeCoeffs,
    dicke_state,
    ghz_state,
    max_ces_subspace,
    strip_e2_closed_form,
    strip_subspace,
    w_type_state,
)

from test_objective import free_floats, party_slot, solved_party


def minimize(value_and_grad, x0, **kwargs):
    """L-BFGS on a function given by its `value_and_grad`, from x0 with the
    value and gradient there."""
    return lbfgs_minimize(lambda x: value_and_grad(x)[0], value_and_grad, x0, *value_and_grad(x0), **kwargs)


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def value_and_grad(x):
        d = x - center
        return 0.5 * float(d @ d), d

    return value_and_grad


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
            res = minimize(quadratic(center), x0, max_iters=100)
            assert res.iterations <= dim
            assert res.value < 1e-20
            np.testing.assert_allclose(res.x, center, atol=1e-10)

    def test_anisotropic_quadratic(self):
        q = np.diag([1.0, 4.0, 25.0])
        center = np.array([1.0, -2.0, 0.5])

        def f(x):
            d = x - center
            return 0.5 * float(d @ q @ d), q @ d

        res = minimize(f, np.zeros(3), max_iters=200)
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

        res = minimize(f, np.zeros(n))
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

        res = minimize(rosenbrock, np.array([-1.2, 1.0]), max_iters=500)
        assert res.value < 1e-12
        diffs = np.diff(res.values)
        assert np.all(diffs <= 0.0)

    def test_iteration_cap(self):
        res = minimize(quadratic([10.0] * 4), np.zeros(4), max_iters=1)
        assert res.iterations == 1
        assert res.reason == "iteration-cap"
        assert not res.converged

    def test_last_allowed_step_is_tested(self):
        # one steepest-descent step lands on the minimum of this quadratic:
        # the point it accepts is tested like every other, so a cap of one
        # iteration stops there as a stationary point, as a cap of two does
        for cap in (1, 2):
            res = minimize(quadratic([0.3, -0.2]), np.zeros(2), max_iters=cap)
            assert (res.iterations, res.grad_inf) == (1, 0.0)
            assert res.reason == "gradient-tolerance" and res.converged

    def test_last_allowed_step_meets_the_zero_level(self):
        # the zero-level test runs at the point of the last allowed step too
        q = np.diag([1.0, 4.0])

        def f(x):
            return 0.5 * float(x @ q @ x), q @ x

        for cap in (1, 2):
            res = minimize(f, np.ones(2), max_iters=cap, zero_level=0.5)
            assert res.iterations == 1 and res.grad_inf > objective.TOL_GRAD
            assert res.value <= 0.5 and res.reason == "zero-witness"

    def test_converged_run_skips_its_last_push(self, monkeypatch):
        # an accepted step's curvature pair is pushed only when the next
        # direction needs it, so a run that stops after its last step
        # never pushes that step's pair
        pushed = []
        real_push = opt_mod._History.push
        monkeypatch.setattr(opt_mod._History, "push", lambda hist, s, y: pushed.append(s) or real_push(hist, s, y))
        q = np.diag([1.0, 4.0, 25.0])

        def f(x):
            return 0.5 * float(x @ q @ x), q @ x

        res = minimize(f, np.ones(3), max_iters=100)
        assert res.reason == "gradient-tolerance" and res.iterations >= 3
        assert len(pushed) == res.iterations - 1

    def test_gradient_tolerance_at_start(self):
        res = minimize(quadratic([0.0, 0.0]), np.zeros(2))
        assert res.iterations == 0
        assert res.reason == "gradient-tolerance"
        assert res.converged

    def test_no_point_is_evaluated_twice(self, monkeypatch):
        # Floor searches bisect until distinct steps round to the same
        # point; each point must still get one forward pass, and only
        # points that pass the Armijo test or lie in the floor band may get
        # a backward pass.
        # E_3 of the 3 x 3 maximally entangled state, whose budget-2
        # searches reject points outside the band, and E_2 of a W-type
        # state of `reproduce fig3 --seed 7`, the third of whose seed-7
        # trials ends at the floor, where every point lies in the band
        cases = []
        for sub, budget, rngs in [
            (span_of(ghz_state(2, 3)), 2, [trial_rng(seed) for seed in range(1, 7)]),
            (span_of(w_type_state(WTypeCoeffs(-0.7372857536982734, 0.6057520267007247, -0.29912238221425935))), 1,
             [trial_rng(7, i) for i in range(3)]),
        ]:
            kernel = LossKernel(sub.dims, budget, sub)
            starts = kernel.sweep(np.array([rng.standard_normal(kernel.n_params) for rng in rngs]))
            direct = [lbfgs_minimize(kernel.value, kernel.value_and_grad, *start[:3]) for start in starts]
            cases += [(kernel, start, ref) for start, ref in zip(starts, direct)]

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
        for kernel, start, ref in cases:
            forward.clear()
            searches.clear()
            res = lbfgs_minimize(kernel.value, kernel.value_and_grad, *start[:3])
            assert len(set(forward)) == len(forward)
            # Armijo with a descent direction implies f_t <= f0; the floor
            # band reaches FLOOR_BAND |f0| above it
            assert all(ft <= f0 + opt_mod.FLOOR_BAND * abs(f0) for f0, graded in searches for ft in graded)
            # x0 comes with its value and gradient and takes no pass; a
            # start whose searches accept every trial point grades all the
            # others
            n_graded = sum(len(graded) for _, graded in searches)
            assert start[0].tobytes() not in forward
            assert n_graded <= len(forward)
            gradients += n_graded
            forwards += len(forward)
            assert (res.values, res.reason, res.iterations) == (ref.values, ref.reason, ref.iterations)
            np.testing.assert_array_equal(res.x, ref.x)
            reasons.append(res.reason)
        assert gradients < forwards
        assert "loss-floor" in reasons

    def test_floor_band_point_is_accepted_by_its_slope(self):
        # a 2 x 6 strip whose first trial takes its one step to a point of
        # the floor band that fails Armijo; without the slope test that
        # trial bisects through every step and stops at `loss-floor`
        report = run_certification(strip_subspace(StripParams(6, 2.93472716003923)), 2,
                                   OptimConfig(seed=3457684179))
        for d in report.per_trial:
            assert d.reason == "gradient-tolerance" and d.grad_inf < objective.TOL_GRAD
            assert d.iterations == 1
        assert report.best_value == float.fromhex("0x1.5a81c2b0a4016p-9")

    def test_start_pair_failing_the_curvature_test_changes_nothing(self):
        # a start pair with s . y <= 0 is dropped by the curvature test, so
        # the run is the one without a pair, bit for bit
        q = np.diag([1.0, 4.0, 25.0])

        def f(x):
            return 0.5 * float(x @ q @ x), q @ x

        x0 = np.ones(3)
        ref = minimize(f, x0)
        for pair in [(np.ones(3), -np.ones(3)), (np.ones(3), np.zeros(3)), (np.zeros(3), np.ones(3))]:
            res = minimize(f, x0, pair=pair)
            assert (res.values, res.reason, res.iterations, res.grad_inf) == (
                ref.values, ref.reason, ref.iterations, ref.grad_inf)
            np.testing.assert_array_equal(res.x, ref.x)

    def test_start_pair_makes_the_first_step_quasi_newton(self):
        # on f = a x^2 / 2 the pair (s, a s) gives the exact inverse
        # Hessian, so the first step, of length 1, lands on the minimum;
        # without it the first step is steepest descent and falls short
        a = 8.0

        def f(x):
            return 0.5 * a * float(x @ x), a * x

        x0 = np.array([3.0])
        res = minimize(f, x0, pair=(np.array([0.5]), np.array([0.5 * a])))
        assert (res.iterations, res.reason, res.value) == (1, "gradient-tolerance", 0.0)
        assert minimize(f, x0).iterations > 1


class FlakySweepKernel:
    """A smooth quadratic whose sweep reports every lane singular on the
    first `fail_times` calls; L-BFGS never sees a singular start."""

    n_params = 4

    def __init__(self, fail_times):
        self.sweep_failures = fail_times

    def value(self, x):
        return 0.5 * float(x @ x)

    def value_and_grad(self, x):
        return self.value(x), x.copy()

    def sweep(self, x):
        if self.sweep_failures > 0:
            self.sweep_failures -= 1
            return [None] * len(x)
        return [(row, *self.value_and_grad(row), 1, None) for row in x]


def one_trial(kernel, rng, cfg):
    """A certification's trial alone: its first draw from rng, swept as a
    stack of one, then `_minimize_kernel`."""
    (start,) = kernel.sweep(rng.standard_normal(kernel.n_params)[None])
    return opt_mod._minimize_kernel(kernel, rng, cfg, start)


class TestTrials:
    @pytest.mark.parametrize("fails", range(opt_mod.MAX_REINITS + 1))
    def test_singular_sweep_reinitializes(self, fails):
        rng = np.random.default_rng(0)
        x, diag = one_trial(FlakySweepKernel(fails), rng, OptimConfig(seed=0))
        assert x is not None and not diag.failed
        assert (diag.reinits, diag.sweeps) == (fails, 1)

    def test_singular_sweeps_fail_the_trial_after_reinit_budget(self):
        rng = np.random.default_rng(0)
        kernel = FlakySweepKernel(opt_mod.MAX_REINITS + 1)
        x, diag = one_trial(kernel, rng, OptimConfig(seed=0))
        assert x is None and diag.failed and not diag.converged
        assert (diag.reinits, diag.sweeps) == (opt_mod.MAX_REINITS, 0)
        assert math.isinf(diag.value)

    def test_zero_draw_at_budget_two_is_singular_in_the_sweep(self):
        # T vanishes at a zero draw of every budget. The sweep's first pass
        # masks its lane and hands the other lanes their value and
        # gradient; the trial redraws from its own stream
        sub = span_of(ghz_state(3, 2))
        kernel = LossKernel(sub.dims, 2, sub)
        draw = trial_rng(4).standard_normal(kernel.n_params)
        zero = np.zeros(kernel.n_params)
        with pytest.raises(SingularParameterError, match="vanished"):
            kernel.value(zero)
        lanes = kernel.sweep(np.stack([zero, draw]))
        assert lanes[0] is None
        point, value, grad, sweeps, pair = lanes[1]
        fresh = LossKernel(sub.dims, 2, sub).value_and_grad(draw)
        np.testing.assert_array_equal(point, draw)
        assert (value, sweeps, pair) == (fresh[0], 0, None)
        np.testing.assert_array_equal(grad, fresh[1])
        x, diag = opt_mod._minimize_kernel(kernel, trial_rng(4), OptimConfig(), None)
        assert x is not None and (diag.reinits, diag.failed) == (1, False)

    @pytest.mark.parametrize("reason, converged", [
        ("gradient-tolerance", True), ("zero-witness", True), ("loss-plateau", True),
        ("loss-floor", True), ("iteration-cap", False), ("singular-parameters", False),
    ])
    def test_converged_and_failed_follow_the_reason(self, reason, converged):
        diag = opt_mod.TrialDiagnostics(0.5, 3, reason, 0)
        assert (diag.converged, diag.failed) == (converged, reason == "singular-parameters")
        if reason != "singular-parameters":
            res = opt_mod.LbfgsResult(np.zeros(1), 0.5, 0.0, 3, reason, (0.5,))
            assert res.converged == converged

    @pytest.mark.parametrize("r", [2, 3])
    def test_sweeps_run_at_budget_one_only(self, r):
        sub = strip_subspace(StripParams(4, 1.0))
        report = run_certification(sub, r, OptimConfig(seed=3))
        for d in report.per_trial:
            assert d.sweeps >= 1 if r == 2 else d.sweeps == 0

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (3, 4)])
    def test_zero_by_dimension_count(self, dims):
        # P(S) has projective dimension k - 1 and the product states sum(d_i - 1),
        # so they meet once k >= D - sum(d_i - 1): E_2 = 0 exactly. (2, 3)
        # projects onto the basis side, the others onto the complement side.
        d_total = math.prod(dims)
        k = d_total - sum(d - 1 for d in dims)
        rng = np.random.default_rng(k)
        sub = from_spanning_set([haar_random_state(dims, rng) for _ in range(k)])
        report = run_certification(sub, 2, OptimConfig())
        assert report.best_value <= opt_mod.ZERO_LEVEL, dims

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
        with pytest.raises(UsageError, match="rank budget must be an integer"):
            LossKernel((2, 2), 1.5, sub)


def sweeps_off(monkeypatch):
    """Stop the budget-1 sweeps at the handover rule: a bound of no sweeps
    in all never lets them go on."""
    monkeypatch.setattr(objective, "MAX_FINISH_SWEEPS", 0)


class TestSweepContinuation:
    @pytest.mark.parametrize("dims", [(3, 3, 8), (3, 4, 7)])
    def test_ces_trials_finish_in_the_sweeps(self, monkeypatch, dims):
        # 8 and 10 free real dimensions: the sweeps reach TOL_GRAD, and
        # L-BFGS only certifies the stop. Optimizer seed 1 keeps every
        # start of (3, 3, 8) off its local minimum 2.29e-4, where the
        # continuation stalls and L-BFGS finishes
        sub = max_ces_subspace(*dims)
        report = run_certification(sub, 2, OptimConfig(seed=1))
        sweeps_off(monkeypatch)
        handed_over = run_certification(sub, 2, OptimConfig(seed=1))
        for d, ref in zip(report.per_trial, handed_over.per_trial):
            assert d.reason == "gradient-tolerance" and d.iterations <= 1
            assert d.grad_inf < objective.TOL_GRAD
            assert d.sweeps > ref.sweeps and ref.iterations > 1
            assert d.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)

    def test_cut_continuation_hands_on_its_last_point(self, monkeypatch):
        # a continuation cut one sweep after the handover returns that later
        # point and count, no higher than the handover point, with the
        # gradient it read there and the secant pair from the handover
        # point, whose gradient it read the sweep before
        sub = max_ces_subspace(3, 4, 7)
        kernel = LossKernel(sub.dims, 1, sub)
        cfg = OptimConfig()
        grads = []
        method = LossKernel._grad

        def counted(self, forward):
            grads.append(forward)
            return method(self, forward)

        monkeypatch.setattr(LossKernel, "_grad", counted)
        for i in range(cfg.trials):
            x0 = trial_rng(cfg.seed, i).standard_normal(kernel.n_params)
            sweeps_off(monkeypatch)
            grads.clear()
            (handover, _, handover_grad, count, _), = kernel.sweep(x0[None])
            # the handover point's gradient, then the point's before it, for
            # the pair
            assert len(grads) == 2
            monkeypatch.setattr(objective, "MAX_FINISH_SWEEPS", count + 1)
            grads.clear()
            (cut, value, grad, sweeps, pair), = kernel.sweep(x0[None])
            # the handover point's gradient, then the cut point's
            assert sweeps == count + 1 and len(grads) == 2
            fresh = LossKernel(sub.dims, 1, sub).value_and_grad(cut)
            assert value == fresh[0]
            np.testing.assert_array_equal(grad, fresh[1])
            np.testing.assert_array_equal(pair[0], cut - handover)
            np.testing.assert_array_equal(pair[1], grad - handover_grad)
            assert cut.tobytes() != handover.tobytes()
            assert kernel.value(cut) <= kernel.value(handover)
            diag = one_trial(kernel, trial_rng(cfg.seed, i), cfg)[1]
            assert diag.sweeps == count + 1 and not diag.failed

    def test_one_free_qubit_trials_take_one_iteration(self):
        # L-BFGS starts from the secant pair of the last sweep, so on one
        # free qubit its first step is quasi-Newton and reaches the
        # gradient tolerance; from steepest descent it took two
        report = run_certification(strip_subspace(StripParams(4, 1.0)), 2, OptimConfig(seed=3))
        assert [(d.reason, d.iterations) for d in report.per_trial] == [("gradient-tolerance", 1)] * 3

    @pytest.mark.parametrize("sub", [
        strip_subspace(StripParams(4, 1.0)),
        from_spanning_set([haar_random_state((2, 3), np.random.default_rng(2)) for _ in range(2)]),
    ], ids=["strip-2x4", "random-2x3"])
    def test_one_free_qubit_sweeps_without_gradients(self, monkeypatch, sub):
        # two free real dimensions: L-BFGS finishes such trials in one
        # iteration from the sweeps' secant pair, so the sweeps hand over
        # as before and run no continuation: the only gradients they take
        # are those of the sweeps in which lanes leave the stack, to hand
        # over, and those of the stacks of the sweeps before, for the pairs
        kernel = LossKernel(sub.dims, 1, sub)
        assert kernel._free_dims == 2
        stacks = []  # the lanes of each backward pass
        method = LossKernel._grad

        def counted(self, forward):
            stacks.append(len(forward.t))
            return method(self, forward)

        monkeypatch.setattr(LossKernel, "_grad", counted)
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal((3, kernel.n_params))
            stacks.clear()
            swept = kernel.sweep(x)
            sweeps = [lane[3] for lane in swept]
            assert all(n <= objective.MAX_SWEEPS for n in sweeps)
            assert all(lane[4] is not None for lane in swept)
            # per sweep in which lanes leave, one gradient of the stack it
            # held, then one of the stack the sweep before held, unless
            # lanes left in that sweep too
            leaving = sorted(set(sweeps))
            assert stacks == [size for k in leaving for size in (
                [sum(n >= k for n in sweeps)] + [sum(n >= k - 1 for n in sweeps)] * (k - 1 not in leaving))]
            # every lane leaves at its handover point
            with monkeypatch.context() as m:
                sweeps_off(m)
                handed = kernel.sweep(x)
            for (point, *_, n, _), (ref, *_, n_ref, _) in zip(swept, handed):
                assert n == n_ref and point.tobytes() == ref.tobytes()


class TestOptimConfig:
    def test_fields_are_the_run_counts_and_seed(self):
        # the stop tolerances are module constants, not options
        assert [f.name for f in dataclasses.fields(OptimConfig)] == ["max_iters", "trials", "seed"]

    def test_seed_must_be_non_negative(self):
        with pytest.raises(UsageError, match="seed must be >= 0"):
            OptimConfig(seed=-1)
        assert OptimConfig(seed=0).seed == 0

    @pytest.mark.parametrize("field", ["trials", "max_iters"])
    @pytest.mark.parametrize("bad", [0, -3])
    def test_counts_below_one_are_refused_by_name(self, field, bad):
        with pytest.raises(UsageError, match=f"^{field} must be >= 1, got {bad}$"):
            OptimConfig(**{field: bad})

    @pytest.mark.parametrize("field, bad", [("trials", 2.5), ("max_iters", 1e4), ("seed", 1.5), ("seed", "1")])
    def test_counts_must_be_integers(self, field, bad):
        # refused, not truncated to another run or left to fail in a trial
        with pytest.raises(UsageError, match=f"{field} must be an integer"):
            OptimConfig(**{field: bad})
        cfg = OptimConfig(**{field: np.int64(2)})
        assert getattr(cfg, field) == 2 and type(getattr(cfg, field)) is int


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
        # the trials are the lanes of one stack of sweeps, and a lane's bits
        # do not depend on how many lanes share it or which of them remain:
        # on a strip, a maximal CES, and 16 of 24 dimensions of 4 x 2 x 3 (the
        # complement side, with the solved party first)
        rng = np.random.default_rng(3)
        for sub in (strip_subspace(StripParams(3, 0.7)), max_ces_subspace(3, 3, 8),
                    from_spanning_set([haar_random_state((4, 2, 3), rng) for _ in range(16)])):
            reports = {n: run_certification(sub, 2, OptimConfig(seed=17, trials=n)) for n in (1, 3, 5)}
            assert reports[1].per_trial == reports[5].per_trial[:1], sub.dims
            assert reports[3].per_trial == reports[5].per_trial[:3], sub.dims
            assert reports[1].best_value == reports[1].per_trial[0].value

    def test_singular_lane_reinitializes_alone(self, monkeypatch):
        # trial 1's first draw zeroes party 0's block, so its lane of the
        # stack is singular: it is redrawn from its own stream and swept
        # alone, and the other trials run as if it were not there
        sub = max_ces_subspace(3, 3, 8)
        cfg = OptimConfig(seed=5)
        reference = run_certification(sub, 2, cfg)
        real_rng = opt_mod.trial_rng

        class ZeroFirstDraw:
            def __init__(self, rng):
                self.rng, self.draws = rng, 0

            def standard_normal(self, n):
                x = self.rng.standard_normal(n)
                if not self.draws:
                    x[:6] = 0.0
                self.draws += 1
                return x

        monkeypatch.setattr(opt_mod, "trial_rng",
                            lambda seed, i: ZeroFirstDraw(real_rng(seed, i)) if i == 1 else real_rng(seed, i))
        forced = run_certification(sub, 2, cfg)
        assert forced.per_trial[::2] == reference.per_trial[::2]
        assert (forced.per_trial[1].reinits, forced.per_trial[1].failed) == (1, False)
        # the trial went on from its stream's second draw
        rng = real_rng(cfg.seed, 1)
        kernel = LossKernel(sub.dims, 1, sub)
        rng.standard_normal(kernel.n_params)
        assert forced.per_trial[1] == dataclasses.replace(one_trial(kernel, rng, cfg)[1], reinits=1)

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
                vh = np.linalg.svd(p_perp @ party_slot(free_floats(x, sub.dims, 1), sub.dims))[2]
                e = solved_party(sub.dims)
                off = 2 * sum(sub.dims[:e])
                block = x[off:off + 2 * sub.dims[e]:2] + 1j * x[off + 1:off + 2 * sub.dims[e]:2]
                overlap = abs(np.vdot(vh[-1].conj(), block)) / np.linalg.norm(block)
                assert overlap == pytest.approx(1.0, abs=1e-9), sub.dims

    def test_best_state_is_built_on_first_read(self, monkeypatch):
        built = []
        real_build = opt_mod.build_state
        monkeypatch.setattr(opt_mod, "build_state", lambda params: built.append(params) or real_build(params))
        report = run_certification(strip_subspace(StripParams(4, 1.0)), 2, OptimConfig(seed=2))
        assert built == []
        state = report.best_state
        assert len(built) == 1 and built[0] is report.best_params
        np.testing.assert_array_equal(state.amp, real_build(report.best_params).amp)
        assert report.best_state is state
        assert len(built) == 1

    def test_best_params_are_built_on_first_read(self, monkeypatch):
        completed = []
        real_completed = LossKernel.completed
        monkeypatch.setattr(LossKernel, "completed", lambda self, x: completed.append(x) or real_completed(self, x))
        report = run_certification(strip_subspace(StripParams(4, 1.0)), 2, OptimConfig(seed=2))
        assert completed == []
        params = report.best_params
        assert len(completed) == 1
        assert report.best_params is params
        assert len(completed) == 1

    @pytest.mark.parametrize("make_sub, r, lane", [
        # 2 x 3: the Gram matrix of party 1's 3 amplitudes, then r - 1 states
        (lambda: strip_subspace(StripParams(3, 1.0)), 2, 9),
        (lambda: strip_subspace(StripParams(3, 1.0)), 3, 12),
        # the sweep's 999 rows of party 1's 1000 amplitudes
        (lambda: strip_subspace(StripParams(1000, 1.0)), 2, 999 * 1000),
        # one complement row, but the Gram matrix of party 1's 300 amplitudes
        (lambda: complement_basis(span_of(basis_state((2, 300), (0, 0)))), 2, 300 * 300),
    ], ids=["strip3-r2", "strip3-r3", "strip1000-rows", "complement-gram"])
    def test_oversized_trials_are_refused_before_any_draw(self, monkeypatch, make_sub, r, lane):
        # each trial is charged its lane of the kernel's stacks plus
        # TRIAL_AMPLITUDES for its records
        def no_draw(*args):
            raise AssertionError("drawn")

        monkeypatch.setattr(opt_mod, "trial_rng", no_draw)
        sub = make_sub()
        most = opt_mod.MAX_AMPLITUDES // (lane + opt_mod.TRIAL_AMPLITUDES)
        with pytest.raises(UsageError, match="exceed the budget"):
            run_certification(sub, r, OptimConfig(seed=1, trials=most + 1))
        with pytest.raises(AssertionError, match="drawn"):
            run_certification(sub, r, OptimConfig(seed=1, trials=most))

    def test_trial_records_fit_their_charge(self):
        # over 2 x 3 a trial's records, not its states, fill its memory:
        # they stay within the TRIAL_AMPLITUDES complex amplitudes it is charged
        sub = strip_subspace(StripParams(3, 1.0))
        trials = 1000
        tracemalloc.start()
        try:
            report = run_certification(sub, 2, OptimConfig(seed=1, trials=trials))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.per_trial) == trials
        assert peak < trials * 16 * opt_mod.TRIAL_AMPLITUDES

    def test_requires_r_at_least_two(self):
        sub = span_of(basis_state((2, 2), (0, 0)))
        with pytest.raises(UsageError):
            run_certification(sub, 1, OptimConfig(seed=1))

    def test_non_integer_levels_are_refused_before_any_kernel(self, monkeypatch):
        # int(2.5) would silently compute E_2
        sub = strip_subspace(StripParams(4, 1.0))

        def no_kernel(*args):
            raise AssertionError("kernel built")

        monkeypatch.setattr(opt_mod, "LossKernel", no_kernel)
        with pytest.raises(UsageError, match="entanglement level r must be an integer"):
            run_certification(sub, 2.5, OptimConfig())
        with pytest.raises(UsageError, match="r_max must be an integer"):
            minimal_rank_scan(sub, 3.0)

    def test_rejects_levels_beyond_the_rank_bound(self):
        # every 2 x 3 state has tensor rank <= 6 / 3 = 2, so E_r = 0 exactly
        # for r >= 3: r = 3 runs, a larger r is refused before the kernel's
        # layout of 2 * 5 * (r - 1) reals is made, and a scan stops at r = 3
        sub = strip_subspace(StripParams(3, 1.0))
        assert level_bound(sub.dims) == 3
        assert run_certification(sub, 3, OptimConfig(seed=1, trials=1)).best_value < 1e-12
        for r in (4, 10**8):
            with pytest.raises(UsageError, match="tensor rank <= 2"):
                run_certification(sub, r, OptimConfig(seed=1))
        for r_max in (3, 4, 10**8):
            scan = minimal_rank_scan(sub, r_max, cfg=OptimConfig(seed=1, trials=1))
            assert [e.r for e in scan.entries] == [2, 3]
            assert scan.certified_rank == 2

    def test_rejects_full_space(self, rng):
        sub = from_spanning_set([haar_random_state((2,), rng) for _ in range(3)])
        assert sub.dim == 2
        with pytest.raises(UsageError):
            run_certification(sub, 2, OptimConfig(seed=1))

    def test_all_trials_failed_raises(self, monkeypatch):
        sub = strip_subspace(StripParams(3, 1.0))

        def always_fail(kernel, rng, cfg, start):
            return None, opt_mod.TrialDiagnostics(math.inf, 0, "singular-parameters", 3)

        monkeypatch.setattr(opt_mod, "_minimize_kernel", always_fail)
        with pytest.raises(OptimizationError):
            run_certification(sub, 2, OptimConfig(seed=1))
