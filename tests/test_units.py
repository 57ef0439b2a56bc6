import math

import pytest
from hypothesis import given, strategies as st

from ringtrap import GAUSS, GAUSS_PER_CM, MHZ, MICROKELVIN
from ringtrap.constants import K_B

FINITE = st.floats(
    min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False
)

#: the config takes degrees through math.radians, a product with this factor
DEGREE = math.pi / 180

FACTORS = [
    pytest.param(GAUSS, id="G-T"),
    pytest.param(GAUSS_PER_CM, id="G/cm-T/m"),
    pytest.param(MHZ, id="MHz-rad/s"),
    pytest.param(DEGREE, id="deg-rad"),
    pytest.param(MICROKELVIN, id="uK-J"),
]


def test_gauss_per_cm_example():
    assert 100.0 * GAUSS_PER_CM == pytest.approx(1.0, rel=1e-14)


def test_mhz_example():
    assert 1.5 * MHZ == pytest.approx(2 * math.pi * 1.5e6, rel=1e-14)


def test_gauss_example():
    assert 0.7 * GAUSS == pytest.approx(7.0e-5, rel=1e-14)


def test_microkelvin_uses_boltzmann():
    assert 20.0 * MICROKELVIN == pytest.approx(20e-6 * K_B, rel=1e-14)


@given(value=st.floats(-1e6, 1e6))
def test_degrees(value):
    assert math.radians(-90.0) == pytest.approx(-math.pi / 2, rel=1e-14)
    assert math.radians(value) == value * DEGREE  # bit for bit


@pytest.mark.parametrize("factor", FACTORS)
@given(value=FINITE)
def test_round_trip_identity(factor, value):
    # a lab value times its factor is SI; divided by it, the lab value again
    assert value * factor / factor == pytest.approx(value, rel=1e-14)
