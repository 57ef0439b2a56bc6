"""Unit conversions between the report/config vocabulary and internal SI.

Field amplitudes are quoted in gauss, gradients in G/cm, frequencies in MHz
and phases in degrees at the configuration boundary; everything internal is
tesla, T/m, rad/s and radians. Each supported conversion is an exact linear
map, so round trips are identities to machine precision.
"""

from __future__ import annotations

import math

from .constants import K_B
from .errors import UnitError

# multiplicative factors from the first unit to the second; the reverse
# direction divides by the same factor
_FACTORS = {
    ("G", "T"): 1e-4,
    ("G/cm", "T/m"): 1e-2,
    ("MHz", "rad/s"): 2 * math.pi * 1e6,
    ("deg", "rad"): math.pi / 180.0,
    ("uK", "J"): K_B * 1e-6,
}


def convert_units(value: float, from_unit: str, to_unit: str) -> float:
    """Convert ``value`` between a supported unit pair.

    Supported pairs (either direction): G<->T, G/cm<->T/m, MHz<->rad/s,
    deg<->rad, uK<->J. Anything else raises :class:`UnitError`.
    """
    if from_unit == to_unit:
        raise UnitError(f"no conversion defined from {from_unit!r} to itself")
    if (from_unit, to_unit) in _FACTORS:
        return value * _FACTORS[(from_unit, to_unit)]
    if (to_unit, from_unit) in _FACTORS:
        return value / _FACTORS[(to_unit, from_unit)]
    raise UnitError(f"unsupported unit pair {from_unit!r} -> {to_unit!r}")
