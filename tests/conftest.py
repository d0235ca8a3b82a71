import pytest

from lexres import (
    Monomial,
    RingContext,
    linear_quotients_check,
    make_classified_spec,
    power_generators,
)
from support import require_agreement, resolve


@pytest.fixture(scope="session")
def ring4():
    return RingContext(4)


@pytest.fixture(scope="session")
def example_spec(ring4):
    """The worked example: L(x1x3, x2x4) in four variables."""
    u = Monomial(ring4, (1, 0, 1, 0))
    v = Monomial(ring4, (0, 1, 0, 1))
    spec, record, cls = make_classified_spec(u, v)
    assert cls.linear_form_l == 2
    return spec


@pytest.fixture(scope="session")
def example_power(example_spec):
    return power_generators(example_spec, 1)


@pytest.fixture(scope="session")
def example_quotients(example_power):
    return linear_quotients_check(example_power)


@pytest.fixture(scope="session")
def example_resolution(example_quotients):
    """The worked example's complex and its differentials: (rc, {i: d_i})."""
    require_agreement(example_quotients)
    return resolve(example_quotients)


@pytest.fixture(scope="session")
def example_power_squared(example_spec):
    return power_generators(example_spec, 2)


@pytest.fixture(scope="session")
def example_quotients_squared(example_power_squared):
    return linear_quotients_check(example_power_squared)
