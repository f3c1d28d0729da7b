import math

import numpy as np
import pytest
from hypothesis import settings

# derandomized: every run draws the same examples, so Tier-1 stays deterministic
settings.register_profile(
    "modwave", derandomize=True, max_examples=20, deadline=None, database=None
)
settings.load_profile("modwave")


def qfunc(x: float) -> float:
    """Gaussian tail probability, the textbook detection oracle."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
