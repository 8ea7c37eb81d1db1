import numpy as np
import pytest
from hypothesis import settings

from rankgauge import OptimConfig

# Property tests replay the same examples on every run and keep no
# example database, so the suite stays deterministic and its time fixed.
settings.register_profile("deterministic", derandomize=True, max_examples=50, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cfg():
    return OptimConfig(seed=11)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
