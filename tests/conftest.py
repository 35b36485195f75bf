import numpy as np
import pytest

SEED = 20240501


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)
