import pytest

from eulersum import OracleConfig, PrecisionContext


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(working_bits=192)


@pytest.fixture(scope="session")
def cfg():
    return OracleConfig(target_tolerance=1e-10)
