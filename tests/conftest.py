import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from ttalab.benchmark import generate_dataset, train_source

TRAIN_SEED = 0
TEST_SEED = 777
K = 3

# one profile for every property test: its examples run whole networks, so
# their time varies with the machine's load, not with the code
settings.register_profile("ttalab", deadline=None)
settings.load_profile("ttalab")


def traced_peak(call):
    """call() under tracemalloc: its result and the peak bytes traced while
    it ran."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="session")
def source_net():
    """Source checkpoint shared by adaptation and benchmark tests."""
    dataset = generate_dataset(K, 3000, seed=TRAIN_SEED)
    return train_source(dataset, epochs=20, seed=TRAIN_SEED)


@pytest.fixture(scope="session")
def test_dataset():
    """Held-out clean split, regenerated from its own seed."""
    return generate_dataset(K, 3000, seed=TEST_SEED)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
