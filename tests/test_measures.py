import functools
import itertools
import math

import numpy as np
import pytest

from rankgauge import (
    Bipartition,
    MixedState,
    OptimConfig,
    PureState,
    Subspace,
    UsageError,
    apply_unitary_to_subspace,
    basis_state,
    complement_basis,
    er_pure,
    er_subspace,
    from_spanning_set,
    genuine_entanglement_scan,
    haar_random_state,
    is_genuinely_entangled,
    kron_chain,
    minimal_rank_scan,
    robustness_experiment,
    span_of,
    support_bound_er,
)
from rankgauge import measures
from rankgauge.catalog import (
    StripParams,
    dicke_state,
    ges_e2_closed_form,
    ges_subspace,
    ghz_state,
    strip_e2_closed_form,
    strip_subspace,
    tiles_bound_entangled_state,
    upb_3qubit_e2_closed_form,
    upb_3qubit_subspace,
)
from rankgauge import measures
from rankgauge.measures import er_bipartite_pure_oracle, random_hermitian_with_trace_norm
from conftest import random_unitary


class TestErBipartiteOracle:
    def test_bell(self):
        bell = PureState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert er_bipartite_pure_oracle(bell, Bipartition.of([1], 2), 2) == pytest.approx(0.5)

    def test_r_beyond_schmidt_rank_gives_zero(self, rng):
        s = haar_random_state((2, 2), rng)
        assert er_bipartite_pure_oracle(s, Bipartition.of([1], 2), 3) == pytest.approx(0.0, abs=1e-12)
        assert er_bipartite_pure_oracle(s, Bipartition.of([1], 2), 5) == 0.0

    def test_matches_optimizer(self, rng, cfg):
        cut = Bipartition.of([1], 2)
        for _ in range(3):
            s = haar_random_state((4, 4), rng)
            for r in (2, 3):
                oracle = er_bipartite_pure_oracle(s, cut, r)
                assert abs(er_pure(s, r, cfg) - oracle) < 1e-7


    def test_non_integer_level_is_refused(self):
        # r - 1 would slice the Schmidt coefficients with a float
        bell = PureState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
        with pytest.raises(UsageError, match="entanglement level r must be an integer"):
            er_bipartite_pure_oracle(bell, Bipartition((1,), (2,)), 2.5)


class TestErSubspace:
    def test_strip_closed_form(self, cfg):
        p = StripParams(3, math.pi / 2)
        assert er_subspace(strip_subspace(p), 2, cfg) == pytest.approx(0.25, abs=1e-9)

    def test_full_space_rejected(self, rng):
        sub = from_spanning_set([haar_random_state((2,), rng) for _ in range(2)])
        with pytest.raises(UsageError):
            er_subspace(sub, 2, OptimConfig(seed=0))

    def test_near_full_subspace_with_product_member(self, cfg):
        # the complement of a Bell ray: 3-dim, contains |01>, so E_2 ~ 0
        bell = PureState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
        sub = complement_basis(span_of(bell))
        assert sub.dim == 3
        assert er_subspace(sub, 2, cfg) < 1e-10

    def test_er_pure_product_state(self, cfg):
        prod = kron_chain([basis_state((2,), (0,)), basis_state((3,), (1,))])
        assert er_pure(prod, 2, cfg) < 1e-10


class TestBorderRankScan:
    def test_w_state(self, cfg):
        scan = minimal_rank_scan(span_of(dicke_state(3, 1)), 3, cfg=cfg)
        assert [e.r for e in scan.entries] == [2, 3]
        assert scan.entries[0].value == pytest.approx(5 / 9, abs=1e-9)
        assert scan.entries[1].value < 1e-6
        assert scan.certified_rank == 2
        assert scan.rank_label() == "2"

    def test_product_state(self, cfg):
        prod = kron_chain([basis_state((2,), (0,))] * 3)
        scan = minimal_rank_scan(span_of(prod), 2, cfg=cfg)
        assert scan.certified_rank == 1

    def test_no_transition_reports_lower_bound(self, cfg):
        ghz = ghz_state(3)
        scan = minimal_rank_scan(span_of(ghz), 2, cfg=cfg)  # E_2 = 0.5 > 0, nothing below
        assert scan.certified_rank is None
        assert scan.rank_label() == ">=2"

    def test_entries_monotone(self, cfg):
        scan = minimal_rank_scan(span_of(dicke_state(3, 1)), 3, cfg=cfg)
        for prev, cur in zip(scan.entries, scan.entries[1:]):
            assert cur.value <= prev.value + 1e-7

    def test_minimal_rank_scan_subspace(self, cfg):
        sub = strip_subspace(StripParams(3, math.pi / 2))
        scan = minimal_rank_scan(sub, 3, cfg=cfg)
        assert scan.certified_rank == 2  # E_2 = 0.25, E_3 = 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_bad_zero_threshold_rejected(self, cfg, bad):
        with pytest.raises(UsageError, match="zero threshold"):
            minimal_rank_scan(span_of(dicke_state(3, 1)), 3, bad, cfg)


class TestGenuineEntanglement:
    def test_ges_closed_form(self, cfg):
        sub = ges_subspace(3, math.pi / 2)
        assert sub.dim == 4
        values = genuine_entanglement_scan(sub, cfg)
        assert len(values) == 3
        target = ges_e2_closed_form(3, math.pi / 2)
        for cut, val in values.items():
            assert val == pytest.approx(target, abs=1e-6), str(cut)
        assert is_genuinely_entangled(values)

    def test_ghz_span(self, cfg):
        values = genuine_entanglement_scan(span_of(ghz_state(3)), cfg)
        for val in values.values():
            assert val == pytest.approx(0.5, abs=1e-9)
        assert is_genuinely_entangled(values)

    def test_partially_product_span(self, cfg):
        # |0> (|00> + |11>)/sqrt(2): product across 1|23, entangled elsewhere
        bell = PureState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
        amp = np.kron(basis_state((2,), (0,)).amp, bell.amp)
        state = PureState((2, 2, 2), amp)
        values = genuine_entanglement_scan(span_of(state), cfg)
        by_cut = {str(cut): val for cut, val in values.items()}
        assert by_cut["1|2+3"] < 1e-10
        assert by_cut["1+2|3"] == pytest.approx(0.5, abs=1e-9)
        assert by_cut["1+3|2"] == pytest.approx(0.5, abs=1e-9)
        assert not is_genuinely_entangled(values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_bad_zero_threshold_rejected(self, bad):
        with pytest.raises(UsageError, match="zero threshold"):
            is_genuinely_entangled({Bipartition.of([1], 3): 0.5}, bad)

    def test_requires_three_parties(self, cfg, rng):
        sub = span_of(haar_random_state((2, 2), rng))
        with pytest.raises(UsageError):
            genuine_entanglement_scan(sub, cfg)


class TestSupportBound:
    def test_pure_density_equals_er_pure(self, rng, cfg):
        psi = haar_random_state((2, 3), rng)
        rho = MixedState(psi.dims, np.outer(psi.amp, psi.amp.conj()))
        assert abs(support_bound_er(rho, 2, cfg) - er_pure(psi, 2, cfg)) < 1e-9

    def test_tiles(self, cfg):
        value = support_bound_er(tiles_bound_entangled_state(), 2, cfg)
        assert value == pytest.approx(0.0284, abs=1e-3)

    def test_non_integer_level_is_refused_before_the_support(self, monkeypatch, cfg):
        def no_support(*args):
            raise AssertionError("support space computed")

        monkeypatch.setattr(measures, "support_space", no_support)
        for r in (2.5, "3"):
            with pytest.raises(UsageError, match="entanglement level r must be an integer"):
                support_bound_er(tiles_bound_entangled_state(), r, cfg)


class TestRandomHermitian:
    def test_zero_target(self):
        h = random_hermitian_with_trace_norm(4, 0.0, seed=1)
        assert np.all(h == 0) and h.shape == (4, 4)

    def test_trace_norm_hits_target(self):
        for seed in range(5):
            h = random_hermitian_with_trace_norm(6, 0.45, seed=seed)
            assert np.sum(np.abs(np.linalg.eigvalsh(h))) == pytest.approx(0.45, abs=1e-12)

    def test_hermiticity(self):
        h = random_hermitian_with_trace_norm(5, 1.0, seed=3)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_negative_target_rejected(self):
        with pytest.raises(UsageError):
            random_hermitian_with_trace_norm(3, -0.1, seed=0)

    @pytest.mark.parametrize("target", ["0.1", True, None, math.nan, math.inf, -math.inf, 10**400],
                             ids=["str", "bool", "none", "nan", "inf", "-inf", "huge-int"])
    def test_target_that_is_not_a_finite_real_is_refused(self, target):
        with pytest.raises(UsageError, match="trace norm must be"):
            random_hermitian_with_trace_norm(2, target, seed=0)

    @pytest.mark.parametrize("target", [0.0, 0.5])
    def test_non_integer_dimension_is_refused(self, target):
        with pytest.raises(UsageError, match="dimension must be an integer"):
            random_hermitian_with_trace_norm(2.0, target, seed=0)


class TestRobustness:
    def test_zero_norm_matches_unperturbed(self, cfg):
        sub = strip_subspace(StripParams(3, math.pi / 2))
        res = robustness_experiment(sub, 2, [0.0], samples=3, cfg=cfg)
        assert res.min_values[0] == pytest.approx(er_subspace(sub, 2, cfg), abs=1e-9)

    def test_perturbed_below_angle_stays_nonzero(self, cfg):
        # E_2 = 0.25, so any ||H||_tr < 0.5 keeps the minimal rank
        sub = strip_subspace(StripParams(3, math.pi / 2))
        res = robustness_experiment(sub, 2, [0.3], samples=10, cfg=cfg)
        assert res.min_values[0] > 1e-6

    def test_non_integer_samples_are_refused(self, cfg):
        sub = strip_subspace(StripParams(3, math.pi / 2))
        with pytest.raises(UsageError, match="samples must be an integer"):
            robustness_experiment(sub, 2, [0.1], samples=1.5, cfg=cfg)

    @pytest.mark.parametrize("entry", ["0.1", True, math.nan, math.inf, -0.1])
    def test_grid_entry_that_is_not_a_finite_real_at_least_zero_is_refused(self, cfg, entry, monkeypatch):
        # refused before any perturbation is drawn
        monkeypatch.setattr(measures, "random_hermitian_with_trace_norm", None)
        sub = strip_subspace(StripParams(3, math.pi / 2))
        with pytest.raises(UsageError, match="trace norm must be"):
            robustness_experiment(sub, 2, [0.0, entry], samples=1, cfg=cfg)

    def test_empty_grid_is_refused(self, cfg):
        sub = strip_subspace(StripParams(3, math.pi / 2))
        with pytest.raises(UsageError, match="nonempty"):
            robustness_experiment(sub, 2, [], samples=1, cfg=cfg)

    def test_grid_sorted(self, cfg):
        sub = strip_subspace(StripParams(3, math.pi / 2))
        res = robustness_experiment(sub, 2, [0.2, 0.0], samples=2, cfg=cfg)
        assert res.trace_norm_grid == (0.0, 0.2)


class TestMeasureInvariants:
    def test_membership_bound(self, rng, cfg):
        sub = strip_subspace(StripParams(3, math.pi / 2))
        e_sub = er_subspace(sub, 2, cfg)
        for _ in range(5):
            coef = rng.standard_normal(sub.dim) + 1j * rng.standard_normal(sub.dim)
            coef /= np.linalg.norm(coef)
            psi = PureState(sub.dims, coef @ sub.basis)
            assert e_sub <= er_pure(psi, 2, cfg) + 1e-7

    def test_values_clamped_to_unit_interval(self, cfg):
        w = dicke_state(3, 1)
        for r in (2, 3):
            v = er_pure(w, r, cfg)
            assert 0.0 <= v <= 1.0


# The grown subspace of (2, 3), seed 2, has a stationary point of value
# 0.12095 against its E_2 of 0.0236, and 16 of 30 trials (optimizer seed 0)
# stop there. With optimizer seed 13 all three default trials do: a wrong
# upper bound that the default trial count does not escape.
_GROWN_MISSED = pytest.mark.xfail(strict=True, reason="all default trials reach a local minimum")


class TestMonotonicity:
    """E_r cannot increase with r (a rank-(r-1) candidate is also a
    rank-r candidate), nor when the subspace grows (its projection only
    gains). Computed values are upper bounds from local search, so these
    also check that the search reaches the minimum."""

    @pytest.mark.parametrize("seed", range(4))
    def test_nonincreasing_in_r(self, seed):
        psi = haar_random_state((2, 3, 3), np.random.default_rng(seed))
        values = [er_pure(psi, r, OptimConfig(seed=seed)) for r in (2, 3, 4)]
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-9, values

    @pytest.mark.parametrize("dims,k,seed,opt_seed", [
        pytest.param(dims, k, seed, seed, id=f"{'x'.join(map(str, dims))}-seed{seed}")
        for dims, k in [((3, 3), 2), ((2, 2, 2), 2), ((2, 3), 1)]
        for seed in range(4)
    ] + [pytest.param((2, 3), 1, 2, 13, marks=_GROWN_MISSED, id="2x3-seed2-opt13")])
    def test_nonincreasing_when_subspace_grows(self, dims, k, seed, opt_seed):
        rng = np.random.default_rng(seed)
        sub = from_spanning_set([haar_random_state(dims, rng) for _ in range(k)])
        grown = from_spanning_set([PureState(dims, row) for row in sub.basis] + [haar_random_state(dims, rng)])
        cfg = OptimConfig(seed=opt_seed)
        assert er_subspace(grown, 2, cfg) <= er_subspace(sub, 2, cfg) + 1e-9


def permute_parties(sub: Subspace, perm) -> Subspace:
    """The same subspace with parties reordered: party k of the result is party perm[k] of `sub`."""
    dims = tuple(sub.dims[p] for p in perm)
    return Subspace(dims, np.array([row.reshape(sub.dims).transpose(perm).ravel() for row in sub.basis]))


class TestInvariances:
    """E_2 is unchanged by local unitaries and by relabelling the parties;
    the closed forms are the oracles."""

    CASES = {
        "upb3_complement": (complement_basis(upb_3qubit_subspace()), upb_3qubit_e2_closed_form()),
        "strip_d3": (strip_subspace(StripParams(3, 1.1)), strip_e2_closed_form(StripParams(3, 1.1))),
    }
    SEEDS = range(10)

    @pytest.mark.parametrize("case", list(CASES))
    def test_local_unitaries(self, case):
        sub, exact = self.CASES[case]
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            u = functools.reduce(np.kron, [random_unitary(d, rng) for d in sub.dims])
            value = er_subspace(apply_unitary_to_subspace(sub, u), 2, OptimConfig(seed=seed))
            assert value == pytest.approx(exact, abs=1e-9), seed

    @pytest.mark.parametrize("case", list(CASES))
    def test_party_permutations(self, case):
        sub, exact = self.CASES[case]
        identity = tuple(range(len(sub.dims)))
        perms = [p for p in itertools.permutations(identity) if p != identity]
        for seed in self.SEEDS:
            moved = permute_parties(sub, perms[seed % len(perms)])
            assert er_subspace(moved, 2, OptimConfig(seed=seed)) == pytest.approx(exact, abs=1e-9), seed
