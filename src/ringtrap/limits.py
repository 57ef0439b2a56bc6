"""Input limits and checks that the config loader and the valley profile share.

:mod:`ringtrap.config` enforces them when a config loads and
:mod:`ringtrap.valley` when it is called, so a run that profiles no valley
imports no valley code to check its config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: fewest profile azimuths the geometry classifier accepts
MIN_CLASSIFY_AZIMUTHS = 64

#: entries of each closed-form array (one per ray and frequency) that a
#: batch of profile columns may fill, so that a batch stays cache-sized:
#: up to 64 frequencies at 256 azimuths in the plane, and in a z band
#: (2 * 97 slopes per azimuth, ``valley.PROFILE_ZOOM``) one frequency on
#: up to 84 azimuths
PROFILE_BATCH_POINTS = 2**14

#: most azimuths a valley profile may have: then one frequency's plane batch,
#: a batch's smallest, fits within ``PROFILE_BATCH_POINTS`` entries
MAX_PROFILE_AZIMUTHS = PROFILE_BATCH_POINTS


def check_frequencies(omegas):
    """Raise ValueError unless ``omegas`` holds at least one dressing
    frequency and every one is positive and finite."""
    ws = np.asarray(omegas, dtype=float)
    if not (ws.size and np.all((ws > 0) & (ws < np.inf))):
        raise ValueError("dressing frequencies must be one or more, positive and finite")


def check_rho_factors(rho_factors):
    """Raise ValueError unless the rho window factors satisfy 0 < lower < upper."""
    if not 0 < rho_factors[0] < rho_factors[1]:
        raise ValueError(
            f"rho window factors must satisfy 0 < lower < upper, got {tuple(rho_factors)}"
        )


@dataclass(frozen=True)
class ClassifierTolerances:
    """Explicit thresholds for the geometry classifier.

    rel_flat:   peak-to-peak valley variation below rel_flat * (m_F hbar omega)
                counts as azimuthally flat.
    match_depth: relative depth mismatch allowed between the two wells of a
                double-well.
    closure:    valley coupling below closure * max profile coupling marks a
                closed avoided crossing (a true well, not a modulated ring).
    """

    rel_flat: float = 1e-3
    match_depth: float = 1e-2
    closure: float = 0.05

    def halved(self) -> "ClassifierTolerances":
        return ClassifierTolerances(
            self.rel_flat / 2, self.match_depth / 2, self.closure / 2
        )
