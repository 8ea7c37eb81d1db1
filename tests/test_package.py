import re
from pathlib import Path

import rankgauge

PUBLIC = {
    # types
    "PureState", "Subspace", "MixedState", "Bipartition", "OptimConfig", "OptimReport",
    "TrialDiagnostics", "ScanEntry", "CertificateScan", "RobustnessResult",
    # builders and JSON interchange
    "basis_state", "haar_random_state", "kron_chain", "from_spanning_set", "span_of",
    "complement_basis", "support_space", "apply_unitary_to_subspace", "subspace_from_dict",
    "state_from_dict", "subspace_to_dict", "state_to_dict", "read_json",
    # measures
    "run_certification", "er_subspace", "er_pure", "minimal_rank_scan", "genuine_entanglement_scan",
    "is_genuinely_entangled", "support_bound_er", "robustness_experiment", "ZERO_THRESHOLD",
    # errors and the example catalog
    "RankgaugeError", "UsageError", "InputError", "OptimizationError", "SingularParameterError",
    "catalog",
}


def test_all_names_resolve():
    missing = [name for name in rankgauge.__all__ if not hasattr(rankgauge, name)]
    assert missing == []


def test_public_surface_is_exactly_the_user_api():
    assert len(PUBLIC) == 38
    assert sorted(rankgauge.__all__) == sorted(PUBLIC)


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == rankgauge.__version__
