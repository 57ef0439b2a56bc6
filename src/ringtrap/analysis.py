"""Trap geometry analysis: ring radius, azimuthal structure, frequencies.

The toroidal valley of an rf-dressed quadrupole trap lives on the resonance
shell sqrt(x^2+y^2+4z^2) = hbar*omega/(g_F mu_B B_q); its z=0 circle is the
ring. Because the Rabi coupling is independent of radius in the z=0 plane,
the in-plane valley floor sits exactly at zero detuning, which is what the
two-Gaussian image measurement tracks. The azimuthal profile of that valley
separates the geometries: a flat profile is a symmetric ring, coupling-closed
zeros pinch the ring into a double well, and an azimuthally modulated but
open valley is an asymmetric ring.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import G_ACCEL, HBAR, MU_B
from .dressed import (
    dressed_potential,
    potential_hessian,
    rabi_frequency,
    rabi_squared,
    resonance_radius,
)
from .errors import ConvergenceError, NotAMinimumError, RingtrapError
from .fields import TrapConfig
from .minimize import SMOOTH_RABI_FRACTION, MinimizationResult, find_minimum

#: fewest profile azimuths the geometry classifier accepts
MIN_CLASSIFY_AZIMUTHS = 64

#: valley-profile grid zoom: radial nodes, axial nodes (z band only), passes
PROFILE_ZOOM = (96, 25, 7)

#: profile coupling below this fraction of m_F * omega everywhere means the
#: trap is effectively undressed (center trap)
CENTER_TRAP_COUPLING = 1e-9

#: an azimuthal trap frequency below this fraction of omega_rho is reported
#: as exactly zero (flat ring direction)
FLAT_PHI_FRACTION = 1e-3

#: kappa above this counts as gravity negligible
GRAVITY_NEGLIGIBLE_KAPPA = 5.0


class Geometry(str, enum.Enum):
    DOUBLE_WELL = "double-well"
    SYMMETRIC_RING = "symmetric-ring"
    ASYMMETRIC_RING = "asymmetric-ring"
    CENTER_TRAP = "center-trap"

    def __str__(self):
        return self.value


# ---------------------------------------------------------------------------
# azimuthal valley profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AzimuthalProfile:
    """Valley floor versus azimuth, plus the scales the classifier needs.

    Entry i of each array belongs to azimuth ``azimuths[i]``: the floor sits
    at cylindrical (``radii[i]``, ``z[i]``) with potential ``potentials[i]``
    [J] and Rabi coupling ``rabis[i]`` [rad/s].
    """

    azimuths: np.ndarray
    radii: np.ndarray
    z: np.ndarray
    potentials: np.ndarray
    rabis: np.ndarray
    energy_scale: float  # m_F * hbar * omega: natural dressing energy [J]
    resonance_radius: float

    def __len__(self):
        return len(self.azimuths)

    def position(self, i: int) -> np.ndarray:
        """Cartesian position of the valley floor at azimuth index ``i``."""
        phi, rho = float(self.azimuths[i]), float(self.radii[i])
        return np.array([rho * math.cos(phi), rho * math.sin(phi), float(self.z[i])])

    def barrier_height(self) -> float:
        """Azimuthal max - min of the valley floor [J]."""
        return float(self.potentials.max() - self.potentials.min())

    def numeric_radius(self) -> float:
        """Azimuth-averaged radial coordinate of the valley floor [m]."""
        return float(self.radii.mean())


def azimuthal_profile(
    cfg: TrapConfig,
    n_phi: int = 64,
    rho_factors: tuple[float, float] = (0.2, 3.0),
    z_band: float = 0.0,
) -> AzimuthalProfile:
    """Minimise V over the radial(-axial) window at each azimuth.

    For every azimuth phi the potential is minimised over
    rho in [0.2, 3] * r0 (factors configurable) and, when ``z_band`` > 0,
    z in [-z_band, z_band]. The default is the z = 0 plane: that is the
    plane the ring, wells and any azimuthal asymmetry live in, and the
    plane absorption images project onto. The minimisation is an iterated
    grid zoom, evaluated for all azimuths in lockstep; it is deterministic
    and is not derailed by the conical valley sections (see ``PROFILE_ZOOM``).
    """
    if n_phi < 8:
        raise ValueError("n_phi must be at least 8")
    if z_band < 0:
        raise ValueError("z_band must be non-negative")
    n_rho, n_z, zoom_iters = PROFILE_ZOOM
    r0 = resonance_radius(cfg)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    cosp, sinp = np.cos(phis), np.sin(phis)

    rho_lo = np.full(n_phi, rho_factors[0] * r0)
    rho_hi = np.full(n_phi, rho_factors[1] * r0)
    z_lo = np.full(n_phi, -z_band)
    z_hi = np.full(n_phi, z_band)
    nz = n_z if z_band > 0.0 else 1  # the z = 0 plane is a one-row band

    for _ in range(zoom_iters):
        frac_r = np.linspace(0.0, 1.0, n_rho)
        rr = rho_lo[None, :] + (rho_hi - rho_lo)[None, :] * frac_r[:, None]
        frac_z = np.linspace(0.0, 1.0, nz)
        zz = z_lo[None, :] + (z_hi - z_lo)[None, :] * frac_z[:, None]
        pts = np.empty((n_rho, nz, n_phi, 3))
        pts[..., 0] = rr[:, None, :] * cosp
        pts[..., 1] = rr[:, None, :] * sinp
        pts[..., 2] = zz[None, :, :]
        vals = dressed_potential(pts, cfg)
        flat = vals.reshape(-1, n_phi)
        kmin = np.argmin(flat, axis=0)
        ir, iz = np.unravel_index(kmin, vals.shape[:2])
        best_v = flat[kmin, np.arange(n_phi)]
        best_rho = rr[ir, np.arange(n_phi)]
        best_z = zz[iz, np.arange(n_phi)]
        # shrink the window to 2.5 cells around the incumbent
        half_r = 2.5 * (rho_hi - rho_lo) / (n_rho - 1)
        rho_lo = np.clip(best_rho - half_r, rho_factors[0] * r0, None)
        rho_hi = np.clip(best_rho + half_r, None, rho_factors[1] * r0)
        half_z = 2.5 * (z_hi - z_lo) / max(nz - 1, 1)
        z_lo = np.clip(best_z - half_z, -z_band, None)
        z_hi = np.clip(best_z + half_z, None, z_band)

    pts_min = np.stack(
        [best_rho * cosp, best_rho * sinp, best_z], axis=-1
    )
    return AzimuthalProfile(
        azimuths=phis,
        radii=best_rho,
        z=best_z,
        potentials=best_v,
        rabis=np.sqrt(rabi_squared(pts_min, cfg)),
        energy_scale=cfg.atom.m_F * HBAR * cfg.rf.omega,
        resonance_radius=r0,
    )


# ---------------------------------------------------------------------------
# geometry classification
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class Classification:
    geometry: Geometry
    low_confidence: bool = False
    n_minima: int = 0
    minima_indices: tuple = ()


def _local_minima_indices(pots: np.ndarray, depth_floor: float) -> list[int]:
    """Indices of periodic local minima deeper than ``depth_floor``."""
    prev = np.roll(pots, 1)
    nxt = np.roll(pots, -1)
    cand = np.where((pots < prev) & (pots <= nxt))[0]
    vmax = pots.max()
    return [int(i) for i in cand if vmax - pots[i] > depth_floor]


def _classify_once(profile: AzimuthalProfile, tol: ClassifierTolerances):
    pots, rabis = profile.potentials, profile.rabis
    omega_scale = profile.energy_scale / HBAR  # m_F * omega; rabi comparison scale
    if rabis.max() < CENTER_TRAP_COUPLING * omega_scale:
        return Geometry.CENTER_TRAP, []
    span = float(pots.max() - pots.min())
    if span < tol.rel_flat * profile.energy_scale:
        return Geometry.SYMMETRIC_RING, []
    minima = _local_minima_indices(pots, tol.rel_flat * profile.energy_scale)
    if len(minima) == 2:
        d1, d2 = (float(pots.max() - pots[i]) for i in minima)
        depths_match = abs(d1 - d2) <= tol.match_depth * max(d1, d2)
        closed = all(
            rabis[i] <= tol.closure * rabis.max() for i in minima
        )
        if depths_match and closed:
            return Geometry.DOUBLE_WELL, minima
    return Geometry.ASYMMETRIC_RING, minima


def classify_geometry(
    profile: AzimuthalProfile, tolerances: ClassifierTolerances | None = None
) -> Classification:
    """Classify the trap geometry from an azimuthal valley profile.

    Rules, in order: coupling negligible everywhere on the valley ->
    center-trap (no dressed off-center structure); flat profile ->
    symmetric-ring; exactly two depth-matched minima whose valley coupling
    closes (Rabi ~ 0: the avoided crossing pinches shut) -> double-well;
    anything else -> asymmetric-ring. A closed-coupling well pair is what
    distinguishes a true double well from a modulated but connected ring,
    whose minima can be depth-matched by symmetry.

    The classification is re-run with halved tolerances; disagreement sets
    ``low_confidence``.
    """
    if len(profile) < MIN_CLASSIFY_AZIMUTHS:
        raise ValueError(
            f"classification requires a profile with >= {MIN_CLASSIFY_AZIMUTHS} azimuths"
        )
    tol = tolerances or ClassifierTolerances()
    geometry, minima = _classify_once(profile, tol)
    geometry_halved, _ = _classify_once(profile, tol.halved())
    return Classification(
        geometry=geometry,
        low_confidence=geometry_halved is not geometry,
        n_minima=len(minima),
        minima_indices=tuple(minima),
    )


# ---------------------------------------------------------------------------
# harmonic trap frequencies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrapFrequencies:
    omega_rho: float
    omega_z: float
    omega_phi: float
    eigenvalues: tuple  # curvature [J/m^2] paired as (rho, phi, z)


def trap_frequencies(cfg: TrapConfig, minimum) -> TrapFrequencies:
    """Harmonic frequencies at a converged smooth minimum.

    The Hessian of V is rotated into the local cylindrical frame
    (rho-hat, phi-hat, z-hat) at the minimum and diagonalised; each
    eigenvalue is paired to the axis its eigenvector aligns with best, and
    omega_i = sqrt(lambda_i / m). An azimuthal frequency below
    ``FLAT_PHI_FRACTION * omega_rho`` is reported as exactly zero (flat ring
    direction).

    Raises :class:`NotAMinimumError` at coupling-closed cusp points (the
    potential is conical there, not harmonic) and for negative curvature
    along rho-hat or z-hat.
    """
    r = np.asarray(minimum, dtype=float)
    omega = cfg.rf.omega
    rabi = float(rabi_frequency(r, cfg))
    if rabi < SMOOTH_RABI_FRACTION * omega:
        raise NotAMinimumError(
            "coupling closes at this point; the valley is a cusp with no "
            "harmonic expansion"
        )
    hess = potential_hessian(r, cfg)
    phi = math.atan2(r[1], r[0])
    rho_hat = np.array([math.cos(phi), math.sin(phi), 0.0])
    phi_hat = np.array([-math.sin(phi), math.cos(phi), 0.0])
    z_hat = np.array([0.0, 0.0, 1.0])
    basis = np.stack([rho_hat, phi_hat, z_hat], axis=1)
    h_loc = basis.T @ hess @ basis
    lam, vec = np.linalg.eigh(h_loc)

    # pair eigenvalues to axes by total eigenvector alignment
    best_perm, best_score = None, -1.0
    for perm in itertools.permutations(range(3)):
        score = sum(abs(vec[axis, k]) for axis, k in zip(perm, range(3)))
        if score > best_score:
            best_perm, best_score = perm, score
    by_axis = {axis: lam[k] for axis, k in zip(best_perm, range(3))}
    lam_rho, lam_phi, lam_z = by_axis[0], by_axis[1], by_axis[2]

    neg_tol = 1e-9 * float(np.abs(lam).max())
    if lam_rho < -neg_tol or lam_z < -neg_tol:
        raise NotAMinimumError(
            f"negative curvature (lambda_rho={lam_rho:.3e}, "
            f"lambda_z={lam_z:.3e} J/m^2); point is not a harmonic minimum"
        )
    m = cfg.atom.mass
    w_rho = math.sqrt(max(lam_rho, 0.0) / m)
    w_z = math.sqrt(max(lam_z, 0.0) / m)
    w_phi = math.sqrt(max(lam_phi, 0.0) / m)
    if w_phi < FLAT_PHI_FRACTION * w_rho:
        w_phi = 0.0
    return TrapFrequencies(
        omega_rho=w_rho,
        omega_z=w_z,
        omega_phi=w_phi,
        eigenvalues=(float(lam_rho), float(lam_phi), float(lam_z)),
    )


# ---------------------------------------------------------------------------
# gravity / coupling dominance criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriteriaReport:
    """Dimensionless health checks of the trap parameter choice.

    kappa compares the magnetic force scale to gravity; omega_over_rabi
    (evaluated at the ring valley minimum) against kappa decides whether the
    potential minimum follows the coupling rather than gravity.
    """

    kappa: float
    omega_over_rabi: float
    coupling_dominated: bool
    gravity_negligible: bool


def criteria_report(
    cfg: TrapConfig, profile: AzimuthalProfile | None = None
) -> CriteriaReport:
    """kappa = g_F m_F mu_B B_q / (m g) and omega/Omega at the ring minimum.

    The ring minimum is the global minimum of ``profile`` (its first, if
    tied), by default :func:`azimuthal_profile` of ``cfg``.
    ``coupling_dominated`` is exactly (omega/Omega < kappa). When the
    coupling vanishes at the valley minimum, omega/Omega is +inf and the flag
    is False. ``gravity_negligible`` is kappa > ``GRAVITY_NEGLIGIBLE_KAPPA``.
    """
    atom = cfg.atom
    kappa = atom.g_F * atom.m_F * MU_B * cfg.quad.gradient / (atom.mass * G_ACCEL)
    if profile is None:
        profile = azimuthal_profile(cfg)
    rabi = float(profile.rabis[np.argmin(profile.potentials)])
    if rabi > 1e-12 * cfg.rf.omega:
        omega_over_rabi = cfg.rf.omega / rabi
    else:
        omega_over_rabi = math.inf
    return CriteriaReport(
        kappa=float(kappa),
        omega_over_rabi=float(omega_over_rabi),
        coupling_dominated=bool(omega_over_rabi < kappa),
        gravity_negligible=bool(kappa > GRAVITY_NEGLIGIBLE_KAPPA),
    )


# ---------------------------------------------------------------------------
# full ring analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingAnalysis:
    """Complete geometry analysis of one trap configuration."""

    geometry: Geometry
    ring_radius: float  # azimuth-averaged valley radius [m]
    resonance_radius: float  # analytic zero-detuning radius [m]
    minima: tuple  # (position ndarray, V [J], azimuth [rad]), V ascending
    barrier_height: float  # azimuthal max - min of the valley [J]
    depth: float  # saddle-limited escape estimate [J]
    omega_rho: float | None
    omega_z: float | None
    omega_phi: float | None
    low_confidence: bool
    minimum: MinimizationResult | None
    criteria: CriteriaReport  # taken at the global minimum of the analysed profile
    notes: tuple = ()


def _escape_depth(cfg: TrapConfig, origin: np.ndarray, v_min: float, r0: float) -> float:
    """Min over the 6 axis directions of the first ray maximum above v_min.

    Each ray is scanned up to its first sample k above v_min whose successor
    is lower (or up to the second-last sample); its depth is the highest
    value seen by then, floored at v_min, minus v_min.
    """
    step = r0 / 200.0
    n_steps = 800  # 4 * r0 reach
    directions = np.vstack([np.eye(3), -np.eye(3)])
    offsets = step * np.arange(1, n_steps + 1)[None, :, None] * directions[:, None, :]
    vals = dressed_potential(origin + offsets, cfg)  # (6 rays, n_steps)
    turns = (vals[:, :-1] > v_min) & (vals[:, 1:] < vals[:, :-1])
    stop = np.where(turns.any(axis=1), turns.argmax(axis=1), n_steps - 2)
    seen = np.arange(n_steps) <= stop[:, None]
    peaks = np.where(seen, vals, v_min).max(axis=1)
    return float((peaks - v_min).min())


def analyze_trap(
    cfg: TrapConfig,
    n_phi: int = 64,
    rho_factors: tuple[float, float] = (0.2, 3.0),
    z_band: float = 0.0,
    tolerances: ClassifierTolerances | None = None,
) -> RingAnalysis:
    """Profile, classify and harmonically characterise one trap config."""
    r0 = resonance_radius(cfg)
    profile = azimuthal_profile(cfg, n_phi=n_phi, rho_factors=rho_factors, z_band=z_band)
    cls = classify_geometry(profile, tolerances)
    notes = []

    pots = profile.potentials
    minima_idx = list(cls.minima_indices)
    if not minima_idx:  # flat ring or center trap: report the global minimum
        minima_idx = [int(np.argmin(pots))]
    minima = sorted(
        (
            (profile.position(i), float(pots[i]), float(profile.azimuths[i]))
            for i in minima_idx
        ),
        key=lambda t: t[1],
    )

    result = None
    freqs = None
    if cls.geometry is not Geometry.CENTER_TRAP:
        start = minima[0][0].copy()
        box = (
            np.array([-3.2 * r0, -3.2 * r0, -0.45 * r0]),
            np.array([3.2 * r0, 3.2 * r0, 0.45 * r0]),
        )
        try:
            result = find_minimum(cfg, start, bounds=box)
        except ConvergenceError as err:
            notes.append(f"minimum refinement did not converge: {err}")
            result = err.best
        if result is not None and result.stationary and result.smooth:
            try:
                freqs = trap_frequencies(cfg, result.position)
            except NotAMinimumError as err:
                notes.append(f"harmonic analysis unavailable: {err}")
        elif result is not None and not result.smooth:
            notes.append(
                "coupling-closed (cusp) minimum; harmonic frequencies undefined"
            )
        elif result is not None:
            notes.append(
                "valley is not stationary in 3D (no harmonic minimum at the "
                "ring plane); frequencies unavailable"
            )
        # the search and the Newton polish clip to the box, so a stop on a
        # face is an exact match with a bound
        if result is not None and np.any(
            (result.position == box[0]) | (result.position == box[1])
        ):
            notes.append(
                "minimum refinement stopped on a face of its search box; the "
                "escape depth is measured from that point"
            )

    v_ref = result.value if result is not None else minima[0][1]
    origin = result.position if result is not None else minima[0][0]
    depth = _escape_depth(cfg, np.asarray(origin, dtype=float), float(v_ref), r0)

    return RingAnalysis(
        geometry=cls.geometry,
        ring_radius=profile.numeric_radius(),
        resonance_radius=r0,
        minima=tuple(minima),
        barrier_height=profile.barrier_height(),
        depth=depth,
        omega_rho=freqs.omega_rho if freqs else None,
        omega_z=freqs.omega_z if freqs else None,
        omega_phi=freqs.omega_phi if freqs else None,
        low_confidence=cls.low_confidence,
        minimum=result,
        criteria=criteria_report(cfg, profile=profile),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# frequency sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    omega: float
    resonance_radius: float | None
    numeric_radius: float | None
    barrier_height: float | None
    geometry: Geometry | None
    low_confidence: bool = False
    error: str | None = None


def frequency_sweep(
    cfg: TrapConfig,
    omegas,
    amplitudes=None,
    n_phi: int = 64,
    rho_factors: tuple[float, float] = (0.2, 3.0),
    z_band: float = 0.0,
    tolerances: ClassifierTolerances | None = None,
) -> list[SweepPoint]:
    """Analyse the trap at each dressing frequency.

    ``amplitudes`` optionally overrides (b_x, b_y, b_z) per frequency
    (user-supplied antenna response table, tesla). A failure at one
    frequency is recorded on its row; the sweep continues.
    """
    omegas = [float(w) for w in omegas]
    if not omegas:
        raise ValueError("sweep requires at least one frequency")
    if any(w <= 0 for w in omegas):
        raise ValueError("sweep frequencies must be positive")
    if n_phi < MIN_CLASSIFY_AZIMUTHS:
        raise ValueError(f"sweep classification requires n_phi >= {MIN_CLASSIFY_AZIMUTHS}")
    if amplitudes is not None and len(amplitudes) != len(omegas):
        raise ValueError("amplitudes table must match the frequency list length")

    rows = []
    for i, w in enumerate(omegas):
        changes = {"omega": w}
        if amplitudes is not None:
            bx, by, bz = amplitudes[i]
            changes.update(b_x=float(bx), b_y=float(by), b_z=float(bz))
        try:
            cfg_i = cfg.with_rf(**changes)
            r_res = resonance_radius(cfg_i)
            profile = azimuthal_profile(
                cfg_i, n_phi=n_phi, rho_factors=rho_factors, z_band=z_band
            )
            cls = classify_geometry(profile, tolerances)
            rows.append(
                SweepPoint(
                    omega=w,
                    resonance_radius=r_res,
                    numeric_radius=profile.numeric_radius(),
                    barrier_height=profile.barrier_height(),
                    geometry=cls.geometry,
                    low_confidence=cls.low_confidence,
                )
            )
        except (RingtrapError, ValueError) as err:  # per-row failure; keep sweeping
            rows.append(
                SweepPoint(
                    omega=w,
                    resonance_radius=None,
                    numeric_radius=None,
                    barrier_height=None,
                    geometry=None,
                    error=f"{type(err).__name__}: {err}",
                )
            )
    return rows
