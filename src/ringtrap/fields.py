"""Static quadrupole and oscillating rf field models.

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
class QuadrupoleConfig:
    """Quadrupole trap field B_q*(x, y, -2z).

    ``gradient`` is the radial gradient B_q [T/m]; the axial gradient along z
    is -2*B_q by construction.
    """

    gradient: float

    def __post_init__(self):
        if not math.isfinite(self.gradient):
            raise ValueError("quadrupole gradient must be finite")
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
        values = (self.b_x, self.b_y, self.b_z, self.alpha, self.beta, self.omega)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("rf amplitudes, phases and omega must be finite")
        if min(self.b_x, self.b_y, self.b_z) < 0:
            raise ValueError("rf amplitudes must be non-negative")
        if not self.omega > 0:
            raise ValueError("dressing frequency omega must be positive")
        object.__setattr__(self, "alpha", _reduce_phase(self.alpha))
        object.__setattr__(self, "beta", _reduce_phase(self.beta))

    @cached_property
    def amplitude_parts(self) -> tuple:
        """(a_x, a_y, a_z, b_y, b_z): the real part a and imaginary part b of
        the complex amplitude (B_x, B_y e^{i alpha}, B_z e^{i beta}), whose
        b_x is 0. Computed once per config, not once per kernel call. The
        sine of a subnormal phase, and its product with an amplitude, may
        underflow, to a part that changes nothing."""
        with np.errstate(under="ignore"):
            return (
                self.b_x,
                self.b_y * np.cos(self.alpha),
                self.b_z * np.cos(self.beta),
                self.b_y * np.sin(self.alpha),
                self.b_z * np.sin(self.beta),
            )


@dataclass(frozen=True)
class TrapConfig:
    """Full parameter set of one rf-dressed quadrupole trap.

    When ``gravity_on``, the potential includes +m*g*y (pull toward -y).
    The gradient must be large enough that g_F mu_B B_q, the Zeeman energy
    slope that every length scale divides by, does not underflow to zero.
    The rf amplitudes must be small enough that the Rabi coupling of every
    field direction is finite: 16 C^2 (B_x^2 + B_y^2 + B_z^2), with
    C = g_F mu_B / (2 hbar), which bounds every square the kernel forms from
    ``coupling_parts``, must be finite.
    """

    atom: AtomSpecies
    quad: QuadrupoleConfig
    rf: RfConfig
    gravity_on: bool = True

    def __post_init__(self):
        if not self.atom.g_F * MU_B * self.quad.gradient > 0:
            raise ValueError(
                f"quadrupole gradient {self.quad.gradient!r} T/m is too small: "
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
        """(a_x, a_y, a_z, b_y, b_z) of ``RfConfig.amplitude_parts`` times
        C (``coupling_prefactor``), in rad/s: |Omega|^2 is the squared norm of
        a - (n.a) n + n x b in these parts, with no further factor. Computed
        once per config, in float arithmetic: a part that underflows is a 0
        that changes nothing."""
        c = self.coupling_prefactor
        return tuple(c * float(p) for p in self.rf.amplitude_parts)

    @cached_property
    def larmor_slope(self) -> float:
        """g_F mu_B B_q / hbar: the Larmor frequency per meter of R, where
        R^2 = x^2 + y^2 + 4 z^2 [rad/s/m]."""
        return self.atom.g_F * MU_B * self.quad.gradient / HBAR

    def with_rf(self, **changes) -> "TrapConfig":
        """Copy of this config with rf parameters replaced."""
        return replace(self, rf=replace(self.rf, **changes))
