"""Physical constants and atomic species data.

All internal computation is in SI units. CODATA 2018 values are hard-coded;
they set the energy scales for every potential evaluated by this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HBAR = 1.054571817e-34  # reduced Planck constant [J s]
MU_B = 9.2740100783e-24  # Bohr magneton [J/T]
K_B = 1.380649e-23  # Boltzmann constant [J/K] (exact)
G_ACCEL = 9.80665  # standard gravity [m/s^2] (exact)

# The lab units of the config and the reports, each as its SI value: a lab
# value times the factor is SI, and an SI value divided by it is the lab value.
GAUSS = 1e-4  # [T]
GAUSS_PER_CM = 1e-2  # [T/m]
MHZ = 2 * math.pi * 1e6  # a frequency of 1 MHz as an angular frequency [rad/s]
MICROKELVIN = K_B * 1e-6  # k_B times 1 uK [J]


@dataclass(frozen=True)
class AtomSpecies:
    """Atomic constants of one trapped species.

    The species must be a low-field-seeking state: ``g_F * m_F > 0`` with
    ``m_F >= 1`` (weak-field trapping convention used throughout).

    Parameters
    ----------
    mass : float
        Atomic mass [kg].
    g_F : float
        Lande g-factor of the hyperfine level (dimensionless).
    m_F : int
        Zeeman sub-level.
    label : str
        Human-readable name, e.g. ``"87Rb |F=2,mF=2>"``.
    """

    mass: float
    g_F: float
    m_F: int
    label: str = ""

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.mass, self.g_F, self.m_F)):
            raise ValueError("atom mass, g_F and m_F must be finite")
        if not self.mass > 0:
            raise ValueError("atom mass must be positive")
        if self.m_F < 1 or self.g_F * self.m_F <= 0:
            raise ValueError(
                "trappable low-field seeker requires m_F >= 1 and g_F*m_F > 0"
            )


#: 87Rb in |F=2, m_F=2>, the workhorse species for rf-dressed quadrupole traps.
RB87 = AtomSpecies(mass=1.44316e-25, g_F=0.5, m_F=2, label="87Rb |F=2,mF=2>")

SPECIES_PRESETS = {"Rb87": RB87, "87Rb": RB87}
