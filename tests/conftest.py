import os

# one BLAS thread per process: the pool workers of the slow tests would
# otherwise each start one per core; set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from mode2cap import ScenarioConfig, validate_config


@pytest.fixture
def scenario():
    """Reference scenario: the defaults (B=10, M=3, tau=0.5 ms, W=20,
    S=23 dBm, A=36, beta=3, T=2.3 dB, gamma=1.15) with phi=0.05/m and
    sigma=1e-13 W pinned for tests."""
    return validate_config(ScenarioConfig())


def make_scenario(**overrides) -> ScenarioConfig:
    return validate_config(ScenarioConfig(**overrides))
