import math

import pytest
from hypothesis import given, strategies as st

from ringtrap.constants import K_B
from ringtrap.errors import UnitError
from ringtrap.units import convert_units

FINITE = st.floats(
    min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False
)

PAIRS = [("G", "T"), ("G/cm", "T/m"), ("MHz", "rad/s"), ("deg", "rad"), ("uK", "J")]


def test_gauss_per_cm_example():
    assert convert_units(100.0, "G/cm", "T/m") == pytest.approx(1.0, rel=1e-14)


def test_mhz_example():
    assert convert_units(1.5, "MHz", "rad/s") == pytest.approx(
        2 * math.pi * 1.5e6, rel=1e-14
    )


def test_gauss_example():
    assert convert_units(0.7, "G", "T") == pytest.approx(7.0e-5, rel=1e-14)


def test_microkelvin_uses_boltzmann():
    assert convert_units(20.0, "uK", "J") == pytest.approx(20e-6 * K_B, rel=1e-14)


def test_degrees():
    assert convert_units(-90.0, "deg", "rad") == pytest.approx(-math.pi / 2, rel=1e-14)


@pytest.mark.parametrize("a,b", PAIRS)
@given(value=FINITE)
def test_round_trip_identity(a, b, value):
    back = convert_units(convert_units(value, a, b), b, a)
    assert back == pytest.approx(value, rel=1e-14)


def test_unknown_pair_rejected():
    with pytest.raises(UnitError):
        convert_units(1.0, "G", "rad/s")
    with pytest.raises(UnitError):
        convert_units(1.0, "furlong", "m")
    with pytest.raises(UnitError):
        convert_units(1.0, "G", "G")
