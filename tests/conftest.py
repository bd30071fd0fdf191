"""Fixtures shared by the test modules; the dense oracles live in oracles.py."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
