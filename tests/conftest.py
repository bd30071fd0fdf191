"""Fixtures shared by the test modules; the dense oracles live in oracles.py.

Hypothesis runs derandomized: every property test draws the same examples on
every run and every checkout, so a run compares like with like.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ttsketch", derandomize=True)
settings.load_profile("ttsketch")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
