"""The trap model: a quadrupole gradient, an oscillating rf field and an atom.

The quadrupole symmetry axis is fixed to z and gravity acts along -y
(potential term +m*g*y); arbitrary trap orientations are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .constants import HBAR, MU_B, AtomSpecies


def _reduce_phase(phi: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    out = math.remainder(phi, 2 * math.pi)  # result in [-pi, pi]
    if out == -math.pi:
        out = math.pi
    return out


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
        values = (self.b_x, self.b_y, self.b_z, self.alpha, self.beta, self.omega)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("rf amplitudes, phases and omega must be finite")
        if min(self.b_x, self.b_y, self.b_z) < 0:
            raise ValueError("rf amplitudes must be non-negative")
        if not self.omega > 0:
            raise ValueError("dressing frequency omega must be positive")
        object.__setattr__(self, "alpha", _reduce_phase(self.alpha))
        object.__setattr__(self, "beta", _reduce_phase(self.beta))


@dataclass(frozen=True)
class TrapConfig:
    """Full parameter set of one rf-dressed quadrupole trap.

    The quadrupole field is B_q (x, y, -2 z), with ``gradient`` the radial
    gradient B_q [T/m]; the axial gradient along z is -2 B_q by construction.
    When ``gravity_on``, the potential includes +m*g*y (pull toward -y).
    The gradient must be finite, positive and large enough that
    g_F mu_B B_q, the Zeeman energy slope that every length scale divides
    by, does not underflow to zero.
    The rf amplitudes must be small enough that the Rabi coupling of every
    field direction is finite: 16 C^2 (B_x^2 + B_y^2 + B_z^2), with
    C = g_F mu_B / (2 hbar), which bounds every square the kernel forms from
    ``coupling_parts``, must be finite.
    """

    atom: AtomSpecies
    gradient: float
    rf: RfConfig
    gravity_on: bool = True

    def __post_init__(self):
        if not math.isfinite(self.gradient):
            raise ValueError("quadrupole gradient must be finite")
        if not self.gradient > 0:
            raise ValueError("quadrupole gradient must be positive")
        if not self.atom.g_F * MU_B * self.gradient > 0:
            raise ValueError(
                f"quadrupole gradient {self.gradient!r} T/m is too small: "
                "g_F mu_B B_q underflows to zero"
            )
        # C^2 (B_x^2 + B_y^2 + B_z^2) = |a'|^2 + |b'|^2, in float arithmetic,
        # where an overflow is inf, unwarned
        c = self.coupling_prefactor
        amplitudes = (self.rf.b_x, self.rf.b_y, self.rf.b_z)
        if not math.isfinite(16.0 * sum((c * b) * (c * b) for b in amplitudes)):
            raise ValueError(
                f"rf amplitudes {amplitudes!r} T are too large: the Rabi "
                "coupling g_F mu_B |B_rf| / (2 hbar) overflows"
            )

    @cached_property
    def coupling_prefactor(self) -> float:
        """C = g_F mu_B / (2 hbar): Rabi rad/s per tesla of resonant rf amplitude."""
        return self.atom.g_F * MU_B / (2.0 * HBAR)

    @cached_property
    def coupling_parts(self) -> tuple:
        """(a_x, a_y, a_z, b_y, b_z): the real part a and imaginary part b of
        the complex rf amplitude (B_x, B_y e^{i alpha}, B_z e^{i beta}), whose
        b_x is 0, times C (``coupling_prefactor``), in rad/s: |Omega|^2 is
        the squared norm of a - (n.a) n + n x b in these parts, with no
        further factor. Computed once per config. The sine of a subnormal
        phase, and its products, may underflow, to a part that changes
        nothing."""
        c, rf = self.coupling_prefactor, self.rf
        with np.errstate(under="ignore"):
            parts = (
                rf.b_x,
                rf.b_y * np.cos(rf.alpha),
                rf.b_z * np.cos(rf.beta),
                rf.b_y * np.sin(rf.alpha),
                rf.b_z * np.sin(rf.beta),
            )
            return tuple(float(c * p) for p in parts)

    @cached_property
    def larmor_slope(self) -> float:
        """g_F mu_B B_q / hbar: the Larmor frequency per meter of R, where
        R^2 = x^2 + y^2 + 4 z^2 [rad/s/m]."""
        return self.atom.g_F * MU_B * self.gradient / HBAR

    def with_rf(self, **changes) -> "TrapConfig":
        """Copy of this config with rf parameters replaced."""
        return replace(self, rf=replace(self.rf, **changes))
