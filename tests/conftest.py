"""Fixtures shared by the test suite; shared helper functions are in helpers.py."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
