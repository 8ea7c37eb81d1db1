import numpy as np
import pytest

from rankgauge import (
    OptimConfig,
    UsageError,
    basis_state,
    from_spanning_set,
    haar_random_state,
    run_certification,
    span_of,
)
from rankgauge.objective import LossKernel
from rankgauge.rank_param import RankParams, build_state
from rankgauge.catalog import StripParams, strip_subspace

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
    of x, in the documented per-term layout."""
    width = 2 * sum(dims) + 1
    t = np.zeros(int(np.prod(dims)), dtype=complex)
    for i in range(r):
        row = x[i * width:(i + 1) * width]
        term = np.ones(1, dtype=complex)
        off = 1
        for d in dims:
            v = row[off:off + d] + 1j * row[off + d:off + 2 * d]
            term = np.kron(term, v / np.linalg.norm(v))
            off += 2 * d
        t += np.logaddexp(0.0, row[0]) * term
    return t


def kernel_cases():
    """Seeded (dims, r): 1 to 4 parties of distinct dims, budgets 1 to 4,
    with (2, 3) and (3, 2) back to back for the per-shape layout cache."""
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
        p = make_params((2, 2), 1, [(0.0, [([0, 1], [0, 0]), ([0, 1], [0, 0])])])
        assert LossKernel(p.dims, p.r, sub).value(p.x) == pytest.approx(1.0, abs=1e-14)

    def test_member_state_gives_zero(self):
        sub = span_of(basis_state((2, 2), (0, 0)))
        p = make_params((2, 2), 1, [(0.0, [([1, 0], [0, 0]), ([1, 0], [0, 0])])])
        assert LossKernel(p.dims, p.r, sub).value(p.x) == pytest.approx(0.0, abs=1e-14)

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
    def test_value_is_bitwise_identical_to_loss(self, rng):
        sub = random_subspace((2, 2, 2), 2, rng)
        kernel = LossKernel((2, 2, 2), 2, sub)
        for seed in range(20):
            p = random_params((2, 2, 2), 2, seed)
            assert kernel.value_and_grad(p.x)[0] == kernel.value(p.x)
            # value_and_grad right after value reuses the memoized forward
            # pass; a point mutated in place in between must not
            x = p.x.copy()
            for mutate in (False, True):
                kernel.value(x)
                if mutate:
                    x[seed % x.size] += 0.25
                fresh = LossKernel((2, 2, 2), 2, sub).value_and_grad(x)
                value, grad = kernel.value_and_grad(x)
                assert value == fresh[0]
                np.testing.assert_array_equal(grad, fresh[1])

    def test_matches_finite_differences(self, rng):
        configs = [((2, 2), 1), ((2, 2), 2), ((2, 3, 2), 2), ((3, 3, 3), 3)] + kernel_cases()
        for dims, budget in configs:
            sub = random_subspace(dims, 2, rng)
            for seed in range(3):
                p = random_params(dims, budget, seed)
                kernel = LossKernel(dims, budget, sub)
                _, grad = kernel.value_and_grad(p.x)
                fd = central_difference(kernel.value, p.x, 1e-5)
                assert rel_linf(grad, fd) < 1e-5

    def test_gradient_finite(self, rng):
        sub = random_subspace((2, 2), 2, rng)
        p = random_params((2, 2), 3, 2)
        _, grad = LossKernel(p.dims, p.r, sub).value_and_grad(p.x)
        assert np.all(np.isfinite(grad))

    def test_stationary_at_loss_maximum(self):
        # a state orthogonal to S maximizes the loss; the gradient vanishes
        # there, and directions staying inside the complement are flat
        sub = span_of(basis_state((2, 2), (0, 0)))
        p = make_params((2, 2), 1, [(0.2, [([0, 1], [0, 0]), ([0, 1], [0, 0])])])
        kernel = LossKernel((2, 2), 1, sub)
        _, grad = kernel.value_and_grad(p.x)
        assert np.max(np.abs(grad)) < 1e-12
        # directional finite differences along flat directions: scaling theta
        # and rotating |1> toward |0> on party 2 both keep the state in S_perp
        for direction in (
            np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 0]),
            np.array([0.0, 0, 0, 0, 0, 1.0, 0, 0, 0]),
        ):
            h = 1e-5
            der = (kernel.value(p.x + h * direction) - kernel.value(p.x - h * direction)) / (2 * h)
            assert abs(der) < 1e-9

    def test_gradient_small_at_converged_minimum(self):
        params = StripParams(3, np.pi / 2)
        sub = strip_subspace(params)
        report = run_certification(sub, 2, OptimConfig(seed=3))
        _, grad = LossKernel(sub.dims, 1, sub).value_and_grad(report.best_params.x)
        assert np.linalg.norm(grad) < 1e-8


class TestKernelReference:
    def test_value_matches_dense_build(self, rng):
        for dims, r in kernel_cases():
            sub = random_subspace(dims, int(rng.integers(1, np.prod(dims))), rng)
            kernel = LossKernel(dims, r, sub)
            for seed in range(3):
                x = random_params(dims, r, seed).x
                t = dense_tensor(x, dims, r)
                proj = sub.basis.T @ (sub.basis.conj() @ t)
                expected = 1.0 - np.vdot(proj, proj).real / np.vdot(t, t).real
                assert abs(kernel.value(x) - expected) < 1e-13, (dims, r, seed)


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
