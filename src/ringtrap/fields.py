"""Static quadrupole and oscillating rf field models.

The quadrupole symmetry axis is fixed to z and gravity acts along -y
(potential term +m*g*y); arbitrary trap orientations are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import AtomSpecies


def _reduce_phase(phi: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    out = math.remainder(phi, 2 * math.pi)  # result in [-pi, pi]
    if out == -math.pi:
        out = math.pi
    return out


@dataclass(frozen=True)
class QuadrupoleConfig:
    """Quadrupole trap field B_q*(x, y, -2z).

    ``gradient`` is the radial gradient B_q [T/m]; the axial gradient along z
    is -2*B_q by construction.
    """

    gradient: float

    def __post_init__(self):
        if not self.gradient > 0:
            raise ValueError("quadrupole gradient must be positive")


@dataclass(frozen=True)
class RfConfig:
    """Dressing rf field (B_x cos wt, B_y cos(wt - alpha), B_z cos(wt - beta)).

    Amplitudes in tesla, phases in radians (stored reduced to (-pi, pi]),
    ``omega`` is the dressing angular frequency [rad/s].
    """

    b_x: float
    b_y: float
    b_z: float
    alpha: float = 0.0
    beta: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        if min(self.b_x, self.b_y, self.b_z) < 0:
            raise ValueError("rf amplitudes must be non-negative")
        if not self.omega > 0:
            raise ValueError("dressing frequency omega must be positive")
        object.__setattr__(self, "alpha", _reduce_phase(self.alpha))
        object.__setattr__(self, "beta", _reduce_phase(self.beta))


@dataclass(frozen=True)
class TrapConfig:
    """Full parameter set of one rf-dressed quadrupole trap.

    When ``gravity_on``, the potential includes +m*g*y (pull toward -y).
    """

    atom: AtomSpecies
    quad: QuadrupoleConfig
    rf: RfConfig
    gravity_on: bool = True

    def with_rf(self, **changes) -> "TrapConfig":
        """Copy of this config with rf parameters replaced."""
        return replace(self, rf=replace(self.rf, **changes))


def quadrupole_field(r, quad: QuadrupoleConfig):
    """Quadrupole field vector B_q*(x, y, -2z) at position(s) ``r``.

    ``r`` is an array of shape (..., 3) in meters; returns the same shape
    in tesla.
    """
    r = np.asarray(r, dtype=float)
    return quad.gradient * (r * np.array([1.0, 1.0, -2.0]))


def field_magnitude(r, quad: QuadrupoleConfig):
    """|B| = B_q * sqrt(x^2 + y^2 + 4 z^2); exactly zero at the origin."""
    r = np.asarray(r, dtype=float)
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    return quad.gradient * np.sqrt(x * x + y * y + 4.0 * z * z)
