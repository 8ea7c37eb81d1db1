import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rankgauge import (
    OptimConfig,
    Subspace,
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


def party_slot(x, dims):
    """Budget 1: the D x d_e matrix (other parties' unit factors) (x) I,
    with the identity in the slot of the last of the largest parties,
    built with np.kron from the factors in x."""
    e = len(dims) - 1 - dims[::-1].index(max(dims))
    a = np.ones((1, 1), dtype=complex)
    off = 1
    for k, d in enumerate(dims):
        v = x[off:off + d] + 1j * x[off + d:off + 2 * d]
        a = np.kron(a, np.eye(d) if k == e else (v / np.linalg.norm(v))[:, None])
        off += 2 * d
    return a


def eliminated_loss(x, dims, sub):
    """Reference budget-1 loss: the least loss over that party's factor,
    sigma_min(P_perp A)^2 with a dense projector and A = party_slot."""
    a = party_slot(x, dims)
    p_perp = np.eye(a.shape[0]) - sub.basis.T @ sub.basis.conj()
    return np.linalg.svd(p_perp @ a, compute_uv=False)[-1] ** 2


def assert_gradient_matches_fd(kernel, x):
    """The kernel's gradient at x against central differences of its value,
    to 1e-5 relative. At budget 1, one party alone, or a solved party with
    more dimensions than the complement has rows, always has a factor of
    zero loss; value and gradient then vanish identically, and an absolute
    bound applies instead."""
    _, grad = kernel.value_and_grad(x)
    fd = central_difference(kernel.value, x, 1e-5)
    flat = kernel.r == 1 and (
        len(kernel.dims) == 1 or (kernel.complement and kernel.rows.shape[0] < max(kernel.dims))
    )
    if flat:
        assert max(np.max(np.abs(grad)), np.max(np.abs(fd))) < 1e-10
    else:
        assert rel_linf(grad, fd) < 1e-5


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
    def test_value_is_bitwise_identical_to_loss(self, rng):
        # d_S = 1 and 2 project onto the subspace, 7 onto its complement
        for d_s in (1, 2, 7):
            sub = random_subspace((2, 2, 2), d_s, rng)
            kernel = LossKernel((2, 2, 2), 2, sub)
            for seed in range(20):
                p = random_params((2, 2, 2), 2, seed)
                assert kernel.value_and_grad(p.x)[0] == kernel.value(p.x)
                # value_and_grad right after value reuses the memoized
                # forward pass; a point mutated in place in between must not
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
            # d_S = 1 and 2 project onto the subspace, D - 1 onto its complement
            d_total = int(np.prod(dims))
            for d_s in sorted({1, 2, d_total - 1}):
                sub = random_subspace(dims, d_s, rng)
                kernel = LossKernel(dims, budget, sub)
                for seed in range(3):
                    assert_gradient_matches_fd(kernel, random_params(dims, budget, seed).x)

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
    @example(((2, 2, 2, 3), 2, 13, 0))
    def test_gradient_matches_central_differences(self, case):
        dims, budget, d_s, seed = case
        rng = np.random.default_rng(seed)
        kernel = LossKernel(dims, budget, random_subspace(dims, d_s, rng))
        x = rng.standard_normal(kernel.n_params)
        assert_gradient_matches_fd(kernel, x)


class TestKernelReference:
    def test_value_matches_dense_build(self, rng):
        for dims, r in kernel_cases():
            sub = random_subspace(dims, int(rng.integers(1, np.prod(dims))), rng)
            kernel = LossKernel(dims, r, sub)
            for seed in range(3):
                x = random_params(dims, r, seed).x
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
            x = random_params(dims, r, 1).x
            t = dense_tensor(x, dims, r)
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
