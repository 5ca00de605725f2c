import pytest

from quatnil.gen import (  # noqa: F401  (the seeded random-entry helpers, re-exported)
    _noncentral_quaternion as random_noncentral_quaternion,
    _nonzero_quaternion as random_nonzero_quaternion,
    _quaternion as random_quaternion,
    _rational as random_rational,
)
from quatnil.qcore import AlgebraParams, hamilton_algebra


@pytest.fixture(scope="session")
def H() -> AlgebraParams:
    return hamilton_algebra()
