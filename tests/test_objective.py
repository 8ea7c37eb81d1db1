import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rankgauge import (
    OptimConfig,
    SingularParameterError,
    Subspace,
    UsageError,
    basis_state,
    from_spanning_set,
    haar_random_state,
    run_certification,
    span_of,
)
from rankgauge import objective
from rankgauge.objective import LossKernel
from rankgauge.rank_param import RankParams, build_state, params_length, trial_rng
from rankgauge.catalog import StripParams, max_ces_subspace, strip_subspace

from test_rank_param import make_params, random_params


def central_difference(func, x: np.ndarray, step: float) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    if not step > 0:
        raise UsageError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    e = np.zeros_like(x)
    for j in range(x.size):
        e[j] = step
        out[j] = (func(x + e) - func(x - e)) / (2.0 * step)
        e[j] = 0.0
    return out


def random_subspace(dims, d_s, rng):
    return from_spanning_set([haar_random_state(dims, rng) for _ in range(d_s)])


def rel_linf(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-30)


def dense_tensor(x, dims, r):
    """Reference T(x): each term assembled with np.kron from its own slice
    of x, whose party factors are runs of (re, im) pairs."""
    width = 2 * sum(dims)
    t = np.zeros(int(np.prod(dims)), dtype=complex)
    for i in range(r):
        row = x[i * width:(i + 1) * width]
        term = np.ones(1, dtype=complex)
        off = 0
        for d in dims:
            term = np.kron(term, row[off:off + 2 * d:2] + 1j * row[off + 1:off + 2 * d:2])
            off += 2 * d
        t += term
    return t


def solved_party(dims):
    """Budget 1: the party whose factor is solved exactly, the last of the
    largest parties."""
    return len(dims) - 1 - dims[::-1].index(max(dims))


def free_floats(x, dims, r):
    """The floats of a full-length x (one block of 2 d_k floats per party
    and term) that the kernel takes: all of x at budgets >= 2, all but the
    solved party's block at budget 1."""
    if r > 1:
        return x
    e = solved_party(dims)
    start = 2 * sum(dims[:e])
    return np.delete(x, np.s_[start:start + 2 * dims[e]])


def party_slot(x, dims):
    """Budget 1: the D x d_e matrix (other parties' unit factors) (x) I,
    with the identity in the slot of the solved party, built with np.kron
    from the factors in x, which holds the other parties' blocks only."""
    e = solved_party(dims)
    a = np.ones((1, 1), dtype=complex)
    off = 0
    for k, d in enumerate(dims):
        if k == e:
            a = np.kron(a, np.eye(d))
            continue
        v = x[off:off + 2 * d:2] + 1j * x[off + 1:off + 2 * d:2]
        a = np.kron(a, (v / np.linalg.norm(v))[:, None])
        off += 2 * d
    return a


def eliminated_loss(x, dims, sub):
    """Reference budget-1 loss of the other parties' blocks x: the least
    loss over the solved party's factor, sigma_min(P_perp A)^2 with a
    dense projector and A = party_slot."""
    a = party_slot(x, dims)
    p_perp = np.eye(a.shape[0]) - sub.basis.T @ sub.basis.conj()
    return np.linalg.svd(p_perp @ a, compute_uv=False)[-1] ** 2


def assert_gradient_matches_fd(kernel, x):
    """The kernel's gradient at x against central differences of its value,
    to 1e-5 relative. At budget 1, one party alone, or a solved party with
    more dimensions than the complement has rows, always has a factor of
    zero loss; value and gradient then vanish identically (one party alone
    leaves x empty), and an absolute bound applies instead."""
    _, grad = kernel.value_and_grad(x)
    fd = central_difference(kernel.value, x, 1e-5)
    flat = kernel.r == 1 and (
        len(kernel.dims) == 1 or (kernel.complement and kernel.rows.shape[0] < max(kernel.dims))
    )
    if flat:
        assert max(np.max(np.abs(grad), initial=0.0), np.max(np.abs(fd), initial=0.0)) < 1e-10
    else:
        assert rel_linf(grad, fd) < 1e-5


def kernel_cases():
    """Seeded (dims, r): 1 to 4 parties of distinct dims, budgets 1 to 4,
    with (2, 3) and (3, 2), the same parties in either order, back to back."""
    rng = np.random.default_rng(4)
    cases = [((2, 3), 2), ((3, 2), 2)]
    for _ in range(10):
        n = int(rng.integers(1, 5))
        dims = tuple(int(d) for d in rng.choice([2, 3, 4, 5], size=n, replace=False))
        cases.append((dims, int(rng.integers(1, 5))))
    return cases


class TestLossValues:
    def test_orthogonal_state_gives_one(self):
        sub = span_of(basis_state((2, 2), (0, 0)))
        p = make_params((2, 2), 1, [[([0, 1], [0, 0]), ([0, 1], [0, 0])]])
        assert LossKernel(p.dims, p.r, sub).value(free_floats(p.x, p.dims, p.r)) == pytest.approx(1.0, abs=1e-14)

    def test_member_state_gives_zero(self):
        sub = span_of(basis_state((2, 2), (0, 0)))
        p = make_params((2, 2), 1, [[([1, 0], [0, 0]), ([1, 0], [0, 0])]])
        assert LossKernel(p.dims, p.r, sub).value(free_floats(p.x, p.dims, p.r)) == pytest.approx(0.0, abs=1e-14)

    def test_matches_explicit_projector(self, rng):
        sub = random_subspace((2, 3), 2, rng)
        p_perp = np.eye(6) - sub.basis.T @ sub.basis.conj()
        kernel = LossKernel((2, 3), 2, sub)
        for seed in range(5):
            p = random_params((2, 3), 2, seed)
            st = build_state(p)
            direct = float(np.real(st.amp.conj() @ p_perp @ st.amp))
            assert kernel.value(p.x) == pytest.approx(direct, abs=1e-12)

    def test_value_in_range(self, rng):
        sub = random_subspace((2, 2, 2), 3, rng)
        kernel = LossKernel((2, 2, 2), 2, sub)
        for seed in range(10):
            p = random_params((2, 2, 2), 2, seed)
            assert -1e-12 <= kernel.value(p.x) <= 1.0 + 1e-12

    def test_full_space_rejected(self, rng):
        sub = random_subspace((2, 2), 4, rng)
        with pytest.raises(UsageError, match="full space"):
            LossKernel((2, 2), 1, sub)

    def test_dims_mismatch(self, rng):
        sub = random_subspace((2, 2), 2, rng)
        p = random_params((2, 3), 1, 0)
        with pytest.raises(UsageError):
            LossKernel(p.dims, p.r, sub).value(p.x)

    def test_term_permutation_invariance(self, rng):
        sub = random_subspace((2, 3), 2, rng)
        p = random_params((2, 3), 3, 8)
        kernel = LossKernel((2, 3), 3, sub)
        x = p.x.reshape(3, -1)
        for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
            q = RankParams((2, 3), 3, x[perm].ravel())
            assert abs(kernel.value(p.x) - kernel.value(q.x)) < 1e-14


class TestLossAndGradient:
    def test_value_is_bitwise_identical_to_loss(self, rng, monkeypatch):
        passes = []  # "forward" or "backward", per pass run
        for name, kind in [("_pass", "forward"), ("_grad", "backward")]:
            method = getattr(LossKernel, name)

            def counted(self, arg, _kind=kind, _method=method):
                passes.append(_kind)
                return _method(self, arg)

            monkeypatch.setattr(LossKernel, name, counted)

        def check(kernel, sub, x, runs):
            """value_and_grad(x) runs the passes `runs`, and its value and
            gradient equal fresh kernels' value(x) and value_and_grad(x)
            bit for bit."""
            fresh_value = LossKernel(kernel.dims, kernel.r, sub).value(x)
            fresh = LossKernel(kernel.dims, kernel.r, sub).value_and_grad(x)
            passes.clear()
            value, grad = kernel.value_and_grad(x)
            assert passes == runs
            assert value == fresh_value == fresh[0]
            np.testing.assert_array_equal(grad, fresh[1])

        # d_S = 1 and 2 project onto the subspace, 7 onto its complement
        for budget, d_s in itertools.product((1, 2), (1, 2, 7)):
            sub = random_subspace((2, 2, 2), d_s, rng)
            kernel = LossKernel((2, 2, 2), budget, sub)
            for seed in range(20):
                x = free_floats(random_params((2, 2, 2), budget, seed).x, (2, 2, 2), budget).copy()
                # value_and_grad right after value runs only the backward
                # pass, a repeat runs neither, and completing the point
                # runs no pass
                kernel.value(x)
                check(kernel, sub, x, ["backward"])
                check(kernel, sub, x, [])
                kernel.completed(x)
                assert passes == []
                # a point mutated in place after value_and_grad or after
                # value is evaluated afresh; every coordinate moves, so a
                # stale gradient would differ
                x += 0.25
                check(kernel, sub, x, ["forward", "backward"])
                kernel.value(x)
                x -= 0.5
                check(kernel, sub, x, ["forward", "backward"])

    def test_matches_finite_differences(self, rng):
        configs = [((2, 2), 1), ((2, 2), 2), ((2, 3, 2), 2), ((3, 3, 3), 3)] + kernel_cases()
        for dims, budget in configs:
            # d_S = 1 and 2 project onto the subspace, D - 1 onto its complement
            d_total = int(np.prod(dims))
            for d_s in sorted({1, 2, d_total - 1}):
                sub = random_subspace(dims, d_s, rng)
                kernel = LossKernel(dims, budget, sub)
                for seed in range(3):
                    assert_gradient_matches_fd(kernel, free_floats(random_params(dims, budget, seed).x, dims, budget))

    def test_gradient_finite(self, rng):
        sub = random_subspace((2, 2), 2, rng)
        p = random_params((2, 2), 3, 2)
        _, grad = LossKernel(p.dims, p.r, sub).value_and_grad(p.x)
        assert np.all(np.isfinite(grad))

    def test_stationary_at_loss_maximum(self):
        # a state orthogonal to S maximizes the loss; the gradient vanishes
        # there, and directions staying inside the complement are flat
        sub = span_of(basis_state((2, 2), (0, 0)))
        p = make_params((2, 2), 1, [[([0, 1], [0, 0]), ([0, 1], [0, 0])]])
        kernel = LossKernel((2, 2), 1, sub)
        x = free_floats(p.x, p.dims, p.r)  # party 1's block; party 2 is solved
        _, grad = kernel.value_and_grad(x)
        assert np.max(np.abs(grad)) < 1e-12
        # directional finite differences along flat directions: scaling party
        # 1's block, and rotating its |1> toward |0> or toward i|0>, leave
        # the loss flat to first order
        for direction in np.eye(4)[[2, 0, 1]]:
            h = 1e-5
            der = (kernel.value(x + h * direction) - kernel.value(x - h * direction)) / (2 * h)
            assert abs(der) < 1e-9

    def test_gradient_small_at_converged_minimum(self):
        params = StripParams(3, np.pi / 2)
        sub = strip_subspace(params)
        report = run_certification(sub, 2, OptimConfig(seed=3))
        _, grad = LossKernel(sub.dims, 1, sub).value_and_grad(free_floats(report.best_params.x, sub.dims, 1))
        assert np.linalg.norm(grad) < 1e-8


@st.composite
def kernel_shapes(draw):
    """(dims, budget, d_S, seed): 1 to 4 parties of dimension 2 to 4, so
    that the largest party may come first, in the middle or last, or tie."""
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))
    d_total = int(np.prod(dims))
    return dims, draw(st.integers(1, 3)), draw(st.integers(1, d_total - 1)), draw(st.integers(0, 2**32 - 1))


class TestGradientProperty:
    @given(kernel_shapes())
    @example(((4, 2, 2), 1, 3, 0))  # solved party first, basis side
    @example(((2, 4, 3), 1, 20, 0))  # in the middle, complement side
    @example(((2, 3, 4), 1, 4, 0))  # last
    @example(((3, 2, 3), 1, 10, 0))  # a tie: the last of the largest
    @example(((2,), 1, 1, 0))  # one party: the product of no others is [1]
    @example(((2, 4), 1, 6, 0))  # fewer complement rows than the solved party's dims
    @example(((2, 2, 2, 3), 2, 13, 0))
    def test_gradient_matches_central_differences(self, case):
        """At budget 1 the value must also equal the dense reference."""
        dims, budget, d_s, seed = case
        rng = np.random.default_rng(seed)
        sub = random_subspace(dims, d_s, rng)
        kernel = LossKernel(dims, budget, sub)
        x = rng.standard_normal(kernel.n_params)
        if budget == 1:
            assert abs(kernel.value(x) - eliminated_loss(x, dims, sub)) < 1e-13
        assert_gradient_matches_fd(kernel, x)


def block_norms(x, dims):
    """Budget 1: the norm of every party's factor block of x."""
    offsets = np.cumsum([0] + [2 * d for d in dims])
    return np.array([np.linalg.norm(x[a:b]) for a, b in zip(offsets, offsets[1:])])


class TestSweepProperty:
    @given(kernel_shapes())
    @example(((4, 2, 2), 1, 3, 0))  # solved party first, basis side
    @example(((2, 4, 3), 1, 20, 0))  # in the middle, complement side
    @example(((3, 2, 3), 1, 10, 0))  # a tie
    @example(((2,), 1, 1, 0))  # one party
    def test_sweep_lowers_the_loss_and_writes_unit_factors(self, case):
        """At budget 1 the swept point's loss is at most the start's and
        every factor block of its completion is a unit vector; at budgets
        >= 2 the sweep is the identity."""
        dims, budget, d_s, seed = case
        rng = np.random.default_rng(seed)
        sub = random_subspace(dims, d_s, rng)
        kernel = LossKernel(dims, budget, sub)
        x = rng.standard_normal(kernel.n_params)
        before = x.copy()
        (swept, _, _, sweeps, pair), = kernel.sweep(x[None])
        np.testing.assert_array_equal(x, before)
        if budget > 1:
            assert sweeps == 0 and pair is None
            np.testing.assert_array_equal(swept, before)
            return
        assert 1 <= sweeps <= objective.MAX_FINISH_SWEEPS
        start = kernel.value(x)
        # 1e-30 allows for rounding at an exact zero, whose residual of
        # size eps squares to about 1e-32 (2 x 3 with four basis rows)
        assert kernel.value(swept) <= start * (1.0 + 1e-13) + 1e-30
        np.testing.assert_allclose(block_norms(kernel.completed(swept), dims), 1.0, atol=1e-12)

    @given(kernel_shapes())
    @example(((2, 3, 4), 1, 1, 0))
    def test_one_row_closed_form_matches_eigh(self, case):
        """With one basis row every party's factor has the closed form
        conj(b) / ||b||; it must agree with the eigh path."""
        dims, _, _, seed = case
        rng = np.random.default_rng(seed)
        sub = random_subspace(dims, 1, rng)
        closed, dense = LossKernel(dims, 1, sub), LossKernel(dims, 1, sub)
        assert closed._one_row
        dense._one_row = False
        units = [haar_random_state((d,), rng).amp[None] for d in dims]
        for q in range(len(dims)):
            p = closed._product(units, q) if len(dims) > 1 else np.ones((1, 1), dtype=np.complex128)
            c_closed, c_dense = closed._solve(q, p)[1][0], dense._solve(q, p)[1][0]
            assert abs(abs(np.vdot(c_closed, c_dense)) - 1.0) < 1e-12
        x = rng.standard_normal((1, closed.n_params))
        assert abs(closed.value(closed.sweep(x)[0][0]) - dense.value(dense.sweep(x)[0][0])) < 1e-12


class TestBudgetOne:
    @pytest.mark.parametrize("dims", [(2,), (4, 2, 2), (2, 4, 3), (2, 3, 4), (3, 2, 3)],
                             ids=["alone", "first", "middle", "last", "tie"])
    def test_parameters_are_the_other_parties_factors(self, dims):
        """At budget 1 x holds the factors of every party but the solved
        one, 2 sum_{q != e} d_q floats; at budgets >= 2 all factors, and
        completing x copies it."""
        rng = np.random.default_rng(0)
        sub = random_subspace(dims, 1, rng)
        kernel = LossKernel(dims, 1, sub)
        assert kernel.eliminated == solved_party(dims)
        assert kernel.n_params == 2 * (sum(dims) - max(dims))
        for budget in (2, 3):
            kernel = LossKernel(dims, budget, sub)
            assert kernel.n_params == params_length(dims, budget)
            x = rng.standard_normal(kernel.n_params)
            np.testing.assert_array_equal(kernel.completed(x), x)

    @pytest.mark.parametrize("dims, d_s", [
        ((2, 4, 3), 2), ((2, 4, 3), 20),  # the basis side and the complement side
        ((4, 2, 2), 3), ((2, 3, 4), 20), ((3, 2, 3), 10), ((2,), 1),
    ], ids=["middle-basis", "middle-complement", "first", "last", "tie", "alone"])
    def test_completed_state_attains_the_value(self, dims, d_s):
        """completed(x) is x with a unit factor of the solved party inserted
        at its columns, and the dense state of those full-length parameters
        attains value(x)."""
        rng = np.random.default_rng(d_s)
        sub = random_subspace(dims, d_s, rng)
        kernel = LossKernel(dims, 1, sub)
        x = rng.standard_normal(kernel.n_params)
        value = kernel.value(x)
        full = kernel.completed(x)
        assert full.shape == (params_length(dims, 1),)
        np.testing.assert_array_equal(free_floats(full, dims, 1), x)
        e = solved_party(dims)
        assert abs(np.linalg.norm(full[2 * sum(dims[:e]):2 * sum(dims[:e + 1])]) - 1.0) < 1e-14
        t = dense_tensor(full, dims, 1)
        p_perp = np.eye(t.size) - sub.basis.T @ sub.basis.conj()
        assert abs(np.vdot(t, p_perp @ t).real / np.vdot(t, t).real - value) < 1e-12

    def test_points_of_another_length_are_refused(self):
        """A full-length x would be misread with the solved party first, so
        every entry point refuses a point whose length is not n_params, at
        every budget."""
        dims = (4, 2, 3)
        sub = random_subspace(dims, 3, np.random.default_rng(1))
        draw = np.random.default_rng(2).standard_normal(params_length(dims, 2) + 1)
        for budget in (1, 2):
            kernel = LossKernel(dims, budget, sub)
            # budget 1: the full length; budget 2: one float too many; both: one too few
            long, short = draw[:params_length(dims, budget) + budget - 1], draw[:kernel.n_params - 1]
            for call in (kernel.value, kernel.value_and_grad, kernel.completed):
                for x in (long, short):
                    with pytest.raises(UsageError, match="parameters"):
                        call(x)
            for x in (long[None], short[None], draw[:kernel.n_params]):  # the last is a bare point, not a stack
                with pytest.raises(UsageError, match="parameters"):
                    kernel.sweep(x)

    @pytest.mark.parametrize("sub", [
        *(strip_subspace(StripParams(d, 1.0)) for d in (3, 4, 5, 6)),
        *(max_ces_subspace(*dims) for dims in ((3, 3, 8), (3, 4, 7), (4, 4, 7), (4, 5, 8))),
    ], ids=["strip-2x3", "strip-2x4", "strip-2x5", "strip-2x6", "ces-3x3x8", "ces-3x4x7", "ces-4x4x7", "ces-4x5x8"])
    def test_draws_are_the_free_floats_of_full_draws(self, sub):
        """On the benchmark's shapes the solved party is the last, so a draw
        of n_params normals is the other parties' floats of a full-length
        draw from the same stream: the starts are those of full-length
        draws whose solved block is ignored."""
        kernel = LossKernel(sub.dims, 1, sub)
        assert kernel.eliminated == len(sub.dims) - 1
        for i in range(3):
            full = trial_rng(1, i).standard_normal(params_length(sub.dims, 1))
            np.testing.assert_array_equal(trial_rng(1, i).standard_normal(kernel.n_params),
                                          free_floats(full, sub.dims, 1))

    @pytest.mark.parametrize("d_s", [2, 20])
    def test_zero_block_of_a_free_party_is_singular(self, d_s):
        dims = (2, 4, 3)
        rng = np.random.default_rng(d_s)
        sub = random_subspace(dims, d_s, rng)
        for block in (slice(0, 4), slice(4, 10)):  # parties 1 and 3; party 2 is solved
            x = rng.standard_normal(2 * (sum(dims) - 4))
            x[block] = 0.0
            for call in (LossKernel(dims, 1, sub).value, LossKernel(dims, 1, sub).value_and_grad):
                with pytest.raises(SingularParameterError, match="vanished"):
                    call(x)
            # a stacked sweep reports the singular lane and sweeps the others
            starts = np.stack([rng.standard_normal(x.size), x])
            lanes = LossKernel(dims, 1, sub).sweep(starts)
            assert lanes[1] is None and lanes[0][3] >= 1

    @pytest.mark.parametrize("d_s", [2, 20])
    @pytest.mark.parametrize("scale", [1e-50, 1e50])
    def test_scale_of_a_free_block_divides_out(self, d_s, scale):
        """Raw factors: the value does not see a free block's scale s, and
        that block's gradient scales by 1 / s."""
        dims = (2, 4, 3)
        rng = np.random.default_rng(d_s)
        sub = random_subspace(dims, d_s, rng)
        kernel = LossKernel(dims, 1, sub)
        x = rng.standard_normal(kernel.n_params)
        value, grad = kernel.value_and_grad(x)
        for block in (slice(0, 4), slice(4, 10)):  # parties 1 and 3; party 2 is solved
            y = x.copy()
            y[block] *= scale
            scaled_value, scaled_grad = kernel.value_and_grad(y)
            assert abs(scaled_value / value - 1.0) < 1e-14
            scaled_grad[block] *= scale
            np.testing.assert_allclose(scaled_grad, grad, rtol=0, atol=1e-13 * np.max(np.abs(grad)))


def counting_passes(monkeypatch):
    """Count LossKernel's forward passes, backward passes and exact solves of
    party e and of the other parties, in the returned dict."""
    calls = {"forward": 0, "backward": 0, "solve_e": 0, "solve_others": 0}
    for name, kind in [("_pass", "forward"), ("_grad", "backward")]:
        method = getattr(LossKernel, name)

        def counted(self, arg, _kind=kind, _method=method):
            calls[_kind] += 1
            return _method(self, arg)

        monkeypatch.setattr(LossKernel, name, counted)
    solve = LossKernel._solve

    def counted_solve(self, q, p):
        calls["solve_e" if q == self.eliminated else "solve_others"] += 1
        return solve(self, q, p)

    monkeypatch.setattr(LossKernel, "_solve", counted_solve)
    return calls


def assert_handed_over_fresh(sub, budget, swept):
    """Each lane's value and gradient are what a fresh kernel's
    value_and_grad of its point returns, bit for bit."""
    for point, value, grad, *_ in swept:
        fresh = LossKernel(sub.dims, budget, sub).value_and_grad(point)
        assert value == fresh[0]
        np.testing.assert_array_equal(grad, fresh[1])


class TestBudgetOneSweepMemo:
    @pytest.mark.parametrize("sub", [
        strip_subspace(StripParams(4, 1.0)),  # the basis side
        max_ces_subspace(3, 3, 8),  # the complement side
        max_ces_subspace(3, 4, 7),  # where a copied gradient of a lane would move its bits
    ], ids=["strip-2x4", "ces-3x3x8", "ces-3x4x7"])
    def test_sweep_solves_party_e_once_per_sweep(self, sub, monkeypatch):
        """Party e is solved only in the forward pass: once for the starts
        and once per sweep, one stacked solve for all lanes, as is every
        other party's, whether the starts are swept alone or as one stack.
        A sweep runs one backward pass of the stack where some lane reads
        its gradient or leaves, and a sweep in which a lane leaves for
        L-BFGS steps runs one more, of the stack before, unless that sweep
        took one. Each swept point comes with a fresh kernel's value and
        gradient, and its completion holds c* of its forward pass."""
        calls = counting_passes(monkeypatch)
        kernel = LossKernel(sub.dims, 1, sub)
        starts = np.stack([trial_rng(1, i).standard_normal(kernel.n_params) for i in range(3)])
        stacks = [start[None] for start in starts] + [starts]
        # backward passes per stack: on 2 x 4 each lane leaves at its
        # handover with a pair, 2 passes per sweep in which lanes leave,
        # and the stack's second such sweep reuses the first one's; the
        # continuation reads gradients on the 8 and 10 free real dimensions
        # of the CES and finishes every lane, with no pair
        backward = {(2, 4): [2, 2, 2, 3], (3, 3, 8): [9, 8, 9, 10], (3, 4, 7): [9, 8, 8, 12]}[sub.dims]
        for stack, passes in zip(stacks, backward):
            before = dict(calls)
            swept = kernel.sweep(stack)
            rounds = max(sweeps for *_, sweeps, _ in swept)
            assert calls["forward"] - before["forward"] == rounds + 1
            assert calls["solve_e"] - before["solve_e"] == rounds + 1
            assert calls["solve_others"] - before["solve_others"] == (len(sub.dims) - 1) * rounds
            assert calls["backward"] - before["backward"] == passes
            assert all((pair is not None) == (len(sub.dims) == 2) for *_, pair in swept)
            # completing a swept point inserts c* of its own forward pass
            e = sum(sub.dims[:kernel.eliminated])
            for point, *_ in swept:
                full = kernel.completed(point)
                np.testing.assert_array_equal(free_floats(full, sub.dims, 1), point)
                best = LossKernel(sub.dims, 1, sub)._pass(point[None]).best[0]
                np.testing.assert_array_equal(full.view(np.complex128)[e:e + sub.dims[kernel.eliminated]], best)
            assert_handed_over_fresh(sub, 1, swept)

    @pytest.mark.parametrize("sub, lanes", [
        (strip_subspace(StripParams(4, 1.0)), 1),
        (strip_subspace(StripParams(4, 1.0)), 3),  # lanes leave after 4, 3 and 4 sweeps
        (max_ces_subspace(3, 3, 8), 40),
    ], ids=["strip-2x4-alone", "strip-2x4-stack", "ces-3x3x8-stack"])
    def test_leaving_lanes_hand_over_their_last_secant_pair(self, sub, lanes):
        """A lane that L-BFGS will step from leaves with the secant pair of
        its last sweep: its point minus its point before that sweep, and
        its gradient minus a fresh kernel's gradient there, bit for bit.
        Any other lane leaves with no pair. Of the 40 lanes of 3 x 3 x 8,
        6 leave for L-BFGS: some at the handover, where the sweep before
        took no gradient, and some where the continuation stalls on the
        local minimum 2.29e-4, reading the gradient of the sweep before."""
        kernel = LossKernel(sub.dims, 1, sub)
        starts = np.stack([trial_rng(1, i).standard_normal(kernel.n_params) for i in range(lanes)])
        swept = kernel.sweep(starts)
        paired = 0
        for start, (point, value, grad, sweeps, pair) in zip(starts, swept):
            steps = np.abs(grad).max() >= objective.TOL_GRAD and value > objective.ZERO_LEVEL
            assert (pair is not None) == steps
            if pair is None:
                continue
            paired += 1
            # the lane swept alone, one sweep fewer
            x = start[None].copy()
            best = kernel._pass(x).best
            for _ in range(sweeps - 1):
                best = kernel._sweep_once(x, best).best
            np.testing.assert_array_equal(pair[0], point - x[0])
            np.testing.assert_array_equal(pair[1], grad - LossKernel(sub.dims, 1, sub).value_and_grad(x[0])[1])
        assert paired == {1: 1, 3: 3, 40: 6}[lanes]

    @pytest.mark.parametrize("budget", [2, 3])
    @pytest.mark.parametrize("sub", [
        strip_subspace(StripParams(4, 1.0)),  # the basis side
        max_ces_subspace(2, 2, 3),  # the complement side
    ], ids=["strip-2x4", "ces-2x2x3"])
    def test_sweep_at_budgets_two_and_three_is_one_stacked_pass(self, sub, budget, monkeypatch):
        """Above budget 1 the sweep hands over the draws as they are, from
        one forward and one backward pass of the stack, whether they are
        swept alone or as one stack."""
        calls = counting_passes(monkeypatch)
        kernel = LossKernel(sub.dims, budget, sub)
        starts = np.stack([trial_rng(1, i).standard_normal(kernel.n_params) for i in range(3)])
        for stack in [start[None] for start in starts] + [starts]:
            before = dict(calls)
            swept = kernel.sweep(stack)
            assert (calls["forward"] - before["forward"], calls["backward"] - before["backward"]) == (1, 1)
            for (point, _, _, sweeps, pair), start in zip(swept, stack):
                np.testing.assert_array_equal(point, start)
                assert sweeps == 0 and pair is None
            assert_handed_over_fresh(sub, budget, swept)


class TestKernelReference:
    def test_value_matches_dense_build(self, rng):
        for dims, r in kernel_cases():
            sub = random_subspace(dims, int(rng.integers(1, np.prod(dims))), rng)
            kernel = LossKernel(dims, r, sub)
            for seed in range(3):
                x = free_floats(random_params(dims, r, seed).x, dims, r)
                if r == 1:
                    expected = eliminated_loss(x, dims, sub)
                else:
                    t = dense_tensor(x, dims, r)
                    proj = sub.basis.T @ (sub.basis.conj() @ t)
                    expected = 1.0 - np.vdot(proj, proj).real / np.vdot(t, t).real
                assert abs(kernel.value(x) - expected) < 1e-13, (dims, r, seed)

    def test_near_zero_loss_keeps_relative_accuracy(self, rng):
        # S holds (T + eps u) for a unit u orthogonal to T(x), plus d_S - 1
        # directions orthogonal to both, so the loss is eps^2 / (1 + eps^2)
        # exactly. 1 - G/N would cancel to absolute accuracy only. At
        # budget 1, where the largest party's factor is solved exactly, u
        # and those directions are also orthogonal to the party's whole
        # slice around T, so T's own factor stays the best one.
        eps = 1e-7
        expected = eps**2 / (1.0 + eps**2)
        sides = set()
        for dims, r in [((2, 3), 2), ((3, 4), 1), ((2, 3, 4), 2), ((2, 3, 4), 1)]:
            d_total = int(np.prod(dims))
            full = random_params(dims, r, 1).x
            x = free_floats(full, dims, r)
            t = dense_tensor(full, dims, r)
            fixed = [t] + (list(party_slot(x, dims).T[:-1]) if r == 1 else [])
            for d_s in (1, d_total // 2, d_total // 2 + 1, d_total - len(fixed)):
                noise = rng.standard_normal((d_total, d_s)) + 1j * rng.standard_normal((d_total, d_s))
                q = np.linalg.qr(np.column_stack(fixed + [noise])).Q
                u = len(fixed)
                near = (q[:, 0] + eps * q[:, u]) / np.sqrt(1.0 + eps**2)
                sub = Subspace(dims, np.vstack([near, q[:, u + 1:].T]))
                kernel = LossKernel(dims, r, sub)
                assert abs(kernel.value(x) / expected - 1.0) < 1e-6, (dims, r, d_s)
                sides.add(kernel.complement)
        assert sides == {False, True}


class TestCentralDifference:
    def test_linear_exact(self):
        a = np.array([1.0, -2.0, 3.0])
        grad = central_difference(lambda x: float(a @ x), np.array([0.3, 0.1, -0.5]), 1e-5)
        np.testing.assert_allclose(grad, a, atol=1e-10)

    def test_quadratic_second_order(self):
        q = np.diag([1.0, 4.0, 9.0])
        x0 = np.array([1.0, -1.0, 0.5])
        grad = central_difference(lambda x: float(x @ q @ x) / 2, x0, 1e-4)
        np.testing.assert_allclose(grad, q @ x0, atol=1e-7)

    def test_step_must_be_positive(self):
        with pytest.raises(UsageError):
            central_difference(lambda x: 0.0, np.zeros(2), 0.0)
