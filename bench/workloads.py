"""The benchmark's workloads: inputs generated from the seed, the ops of
one round, and the oracle that checks each op's verdict.

An op is one verdict obtained through rankgauge's public API. Every call
into the package goes through a module attribute looked up at call time,
so the layer wrappers of tracing.py see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from rankgauge import catalog, measures, optimizer

# Strip sweep shape: fig1's dimensions and a few seeded angles each. Rounds
# cycle through STRIP_SWEEPS angle sets, all built during set-up, so that a
# run's median does not hang on one draw of angles.
STRIP_DIMS = (3, 4, 5, 6)
STRIP_ANGLES = 8
STRIP_SWEEPS = 24
STRIP_TOL = 1e-9
# Completely entangled subspaces of maximal dimension; (4, 5, 8) has
# dimension 145 of 160, so the projection leads the kernel. Every op of a
# run must pass, so (4, 5, 10), whose scan certifies a false rank 1
# (E_2 ~ 3.5e-7 < ZERO_THRESHOLD), is not timed here: test_bench.py keeps
# that defect visible as a strict expected failure.
CES_DIMS = ((3, 3, 8), (3, 4, 7), (4, 4, 7), (4, 5, 8))
KNOWN_FALSE_CERTIFICATE = (4, 5, 10)


@dataclass(frozen=True)
class Op:
    """One verdict: `run` returns (value, verdict); `check` is the oracle."""

    name: str
    run: Callable[[], tuple[float, str]]
    check: Callable[[float, str], bool]


@dataclass(frozen=True)
class Workload:
    """`build(seed)` makes the inputs (timed as set-up); `ops(inputs, seed,
    k)` lists the ops of round k."""

    name: str
    build: Callable[[int], object]
    ops: Callable[[object, int, int], list[Op]]


def derive_seed(seed: int, *key: int) -> int:
    """Independent 32-bit seed for (seed, key...), stable across platforms."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1)[0])


def strip_angles(seed: int) -> np.ndarray:
    """(STRIP_SWEEPS, len(STRIP_DIMS), STRIP_ANGLES) angles in (0.1, pi - 0.1)."""
    rng = np.random.default_rng(derive_seed(seed, 0))
    return rng.uniform(0.1, math.pi - 0.1, size=(STRIP_SWEEPS, len(STRIP_DIMS), STRIP_ANGLES))


def _e2_op(name, sub, cfg, expected) -> Op:
    def run():
        value = optimizer.run_certification(sub, 2, cfg).best_value
        return value, "e2"

    return Op(name, run, lambda value, _: abs(value - expected) <= STRIP_TOL)


def _build_strip(seed):
    sweeps = []
    for angles in strip_angles(seed):
        cases = []
        for d, thetas in zip(STRIP_DIMS, angles):
            for theta in thetas:
                params = catalog.StripParams(d, float(theta))
                cases.append((d, params, catalog.strip_subspace(params)))
        sweeps.append(cases)
    return sweeps


def _strip_ops(sweeps, seed, k):
    cases = sweeps[k % len(sweeps)]
    return [
        _e2_op(
            f"strip-d{d}-{j}",
            sub,
            optimizer.OptimConfig(seed=derive_seed(seed, 1, k, j)),
            catalog.strip_e2_closed_form(params),
        )
        for j, (d, params, sub) in enumerate(cases)
    ]


def _build_ces(seed):
    return [(dims, catalog.max_ces_subspace(*dims)) for dims in CES_DIMS]


def _ces_op(dims, sub, cfg) -> Op:
    def run():
        result = measures.minimal_rank_scan(sub, 2, cfg=cfg)
        return result.entries[-1].value, result.rank_label()

    # A completely entangled subspace holds no product vector, so a
    # certified rank of 1 is false.
    return Op("ces-" + "x".join(map(str, dims)), run, lambda _, label: label != "1")


def _ces_ops(cases, seed, k):
    return [
        _ces_op(dims, sub, optimizer.OptimConfig(seed=derive_seed(seed, 2, k, j)))
        for j, (dims, sub) in enumerate(cases)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("strip-sweep", _build_strip, _strip_ops),
        Workload("ces-tripartite", _build_ces, _ces_ops),
    )
}
