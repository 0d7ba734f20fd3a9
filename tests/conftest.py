import pytest
from sphere_helpers import BAND_LIMITS

from spherediff import noise, transform


@pytest.fixture(scope="session")
def ops_cache():
    return {L: transform.build_operators(L) for L in BAND_LIMITS}


@pytest.fixture(scope="session")
def cov_cache():
    return {L: noise.build_covariance(L) for L in BAND_LIMITS}
