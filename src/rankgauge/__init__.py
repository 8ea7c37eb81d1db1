"""rankgauge: certify entanglement levels of quantum states and subspaces
by minimizing the complement overlap over a bounded-rank manifold.

The names below are the public surface. Internals and test oracles (the
L-BFGS routine, the parametrization, the Schmidt-form oracle, Hermitian
helpers) stay importable from their own modules.
"""

from .errors import (
    InputError,
    OptimizationError,
    RankgaugeError,
    SingularParameterError,
    UsageError,
)
from .tensor_core import Bipartition, PureState, basis_state, haar_random_state, kron_chain
from .subspace import (
    MixedState,
    Subspace,
    apply_unitary_to_subspace,
    complement_basis,
    from_spanning_set,
    read_json,
    span_of,
    state_from_dict,
    state_to_dict,
    subspace_from_dict,
    subspace_to_dict,
    support_space,
)
from .optimizer import OptimConfig, OptimReport, TrialDiagnostics, run_certification
from .measures import (
    ZERO_THRESHOLD,
    CertificateScan,
    RobustnessResult,
    ScanEntry,
    er_pure,
    er_subspace,
    genuine_entanglement_scan,
    is_genuinely_entangled,
    minimal_rank_scan,
    robustness_experiment,
    support_bound_er,
)
from . import catalog

# Also the results version that manifests record as `artifact_version`: a
# change that moves any output bit bumps it, here and in pyproject.toml.
__version__ = "0.8.0"

__all__ = [
    # types
    "PureState",
    "Subspace",
    "MixedState",
    "Bipartition",
    "OptimConfig",
    "OptimReport",
    "TrialDiagnostics",
    "ScanEntry",
    "CertificateScan",
    "RobustnessResult",
    # builders and JSON interchange
    "basis_state",
    "haar_random_state",
    "kron_chain",
    "from_spanning_set",
    "span_of",
    "complement_basis",
    "support_space",
    "apply_unitary_to_subspace",
    "subspace_from_dict",
    "state_from_dict",
    "subspace_to_dict",
    "state_to_dict",
    "read_json",
    # measures
    "run_certification",
    "er_subspace",
    "er_pure",
    "minimal_rank_scan",
    "genuine_entanglement_scan",
    "is_genuinely_entangled",
    "support_bound_er",
    "robustness_experiment",
    "ZERO_THRESHOLD",
    # errors
    "RankgaugeError",
    "UsageError",
    "InputError",
    "OptimizationError",
    "SingularParameterError",
    # named examples with closed forms
    "catalog",
]
