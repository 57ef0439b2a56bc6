"""Trap geometry analysis: ring radius, azimuthal structure, frequencies.

The toroidal valley of an rf-dressed quadrupole trap lives on the resonance
shell sqrt(x^2+y^2+4z^2) = hbar*omega/(g_F mu_B B_q); its z=0 circle is the
ring. Along any ray of constant z / rho the field direction, and so the Rabi
coupling, is fixed: V is a hyperbola in the detuning plus the gravity term,
which is linear along the ray, and its minimum has a closed form. The z=0
plane is one such ray per azimuth; without gravity its valley floor sits
exactly at zero detuning, which is what the two-Gaussian image measurement
tracks. An off-plane z band searches only over the ray slope. The
azimuthal profile of that valley separates the geometries: a flat profile is
a symmetric ring, coupling-closed zeros pinch the ring into a double well,
and an azimuthally modulated but open valley is an asymmetric ring.

The same closed form turns the 3-D minimum into a 2-D question: the minimum
of V is the minimum of the ray floor over the unit sphere of field
directions, with no box and no window. ``shell_minimum`` takes it from the
coupling holes, where |Omega| closes, in closed form. Under gravity the
candidates are the holes whose cone the gravity tilt does not beat and the
local minima of a map of directions; only the map's minima are polished,
by one trust-region Newton iteration in the tangent plane whose step has
its shift in closed form. Where the coupling is open, the polish brings the
gradient of V, given by the envelope theorem, below 1e-8 m g.
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
from .errors import NotAMinimumError
from .fields import TrapConfig

#: fewest profile azimuths the geometry classifier accepts
MIN_CLASSIFY_AZIMUTHS = 64

#: valley-profile zoom over the ray slope z / rho in each half of a z band
#: (the z = 0 plane is the one slope 0): slope nodes, passes
PROFILE_ZOOM = (97, 12)

#: entries of each closed-form array (one per ray and frequency) that a
#: batch of profile columns may fill, so that a batch stays cache-sized:
#: up to 64 frequencies at 256 azimuths in the plane, and in a z band
#: (2 * 97 slopes per azimuth) one frequency on up to 84 azimuths
PROFILE_BATCH_POINTS = 2**14

#: most azimuths a valley profile may have: then one frequency's plane batch,
#: a batch's smallest, fits within ``PROFILE_BATCH_POINTS`` entries
MAX_PROFILE_AZIMUTHS = PROFILE_BATCH_POINTS

#: fraction of the dressing frequency below which a point counts as
#: coupling-closed (cusp): it has no gradient and no harmonic expansion
SMOOTH_RABI_FRACTION = 0.01

#: stationarity threshold on the gradient norm, in units of m*g
STATIONARY_GRAD_FACTOR = 1e-8

#: the shell polish stops a candidate where the coupling is closed once its
#: step is below this [m] of position, MIN_MESH_STEP / r0 in angle; where the
#: coupling is open it stops on the gradient instead, as a Newton step near
#: the stationarity target is far shorter than this
MIN_MESH_STEP = 1e-12

#: the map of field directions ``shell_minimum`` starts from under gravity:
#: latitudes, set half a row off each pole, and azimuths. Its 2,112 rays are
#: fewer than the 4,800 points of ``_escape_depth``'s scan, so the map does
#: not set the memory peak of a run
SHELL_MAP = (33, 64)

#: angle [rad] of the tangent-plane finite differences of the shell polish
#: and of the neighbours that test a coupling hole for a local minimum
SHELL_PROBE_ANGLE = 1e-6

#: shell minima within this fraction of m_F hbar omega of the lowest tie;
#: the one whose direction is nearest the start wins
SHELL_TIE_FRACTION = 1e-12

#: maps a unit field direction n to the point (n_x, n_y, -n_z / 2) at R = 1
#: of its ray
_RAY = np.array([1.0, 1.0, -0.5])

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
    [J] and Rabi coupling ``rabis[i]`` [rad/s]. The profiles of several
    dressing frequencies stack as rows: the arrays are then (F, n_phi), and
    ``energy_scale`` and ``resonance_radius`` hold one value per row.
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

    def barrier_height(self):
        """Azimuthal max - min of the valley floor [J]; a list over rows."""
        return (self.potentials.max(axis=-1) - self.potentials.min(axis=-1)).tolist()

    def numeric_radius(self):
        """Azimuth-averaged radial coordinate of the valley floor [m]; a list
        over rows."""
        return self.radii.mean(axis=-1).tolist()


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


def _lowest(rays):
    """``rays`` (quantity, candidate, ...) at the candidate of lowest V (row 3)."""
    k = np.argmin(rays[3], axis=0)
    return np.take_along_axis(rays, k[None, None], axis=1)[:, 0]


def _ray_floor(cfg, u, r0=None, window=None):
    """Closed-form floor of V along the rays r = R u, R >= 0, through the
    points ``u`` = (n_x, n_y, -n_z / 2) (..., 3) of unit field directions n:
    the radius R*, the floor V* and the Rabi coupling |Omega|.

    Along such a ray the field direction is n, so E = m_F hbar |Omega(n)| is
    fixed, and V = sqrt(A^2 (R - r0)^2 + E^2) + c R with
    A = m_F g_F mu_B B_q and c = m g n_y (0 without gravity). V is convex in
    R. When |c| < A its minimum is at R* = r0 - c E / (A sqrt(A^2 - c^2)),
    where V* = c r0 + E sqrt(1 - c^2 / A^2). Otherwise the ray has no floor:
    R* = +inf where V falls without end (c <= -A) and -inf where it rises
    from the centre (c >= A). V* is the floor only where 0 < R* < inf.

    ``r0`` is the resonance radius, by default that of ``cfg``; an array
    that broadcasts with the rays gives each ray the r0 of its own dressing
    frequency, as only r0 depends on it.

    A ``window`` (k, lo, hi) of arrays that broadcast with the rays bounds
    the cylindrical radius rho = k R of each ray to [lo, hi]. R* k is then
    clipped to the window, and that rho and V at R = rho / k take the place
    of R* and V*: V is convex in R, so this is the lowest V on the part of
    the ray in the window, whether or not the ray has a floor.
    """
    atom = cfg.atom
    r0 = resonance_radius(cfg) if r0 is None else r0
    a = atom.m_F * atom.g_F * MU_B * cfg.quad.gradient
    rabis = np.sqrt(rabi_squared(u.reshape(-1, 3), cfg)).reshape(u.shape[:-1])
    e = atom.m_F * HBAR * rabis
    c = atom.mass * G_ACCEL * u[..., 1] if cfg.gravity_on else 0.0
    bound = np.abs(c) < a  # the magnetic slope can hold the atom against c
    root = np.sqrt(np.where(bound, a * a - c * c, 1.0))
    radius = np.where(bound, r0 - c * e / (a * root), np.copysign(np.inf, -c))
    if window is None:
        return radius, c * r0 + e * root / a, rabis
    k, lo, hi = window
    rho = radius * k
    np.maximum(rho, lo, out=rho)
    np.minimum(rho, hi, out=rho)
    radius = rho / k  # R at the clipped rho
    v = radius - r0  # then A (R - r0), then V, in place
    v *= a
    np.hypot(v, e, out=v)
    if cfg.gravity_on:
        v += c * radius
    return rho, v, rabis


def _valley_floor(cfg, cosp, sinp, r0, rho_min, rho_max, z_band, out):
    """Valley floor of each column over rho in [rho_min, rho_max] and
    |z| <= z_band, written into ``out`` (4, F, n_phi): radii, z, potentials,
    rabis.

    A column is one (dressing frequency, azimuth) pair, and the columns
    form an (F, n_phi) array: ``cosp`` and ``sinp`` (n_phi,) give the
    azimuths, and ``r0`` (the resonance radius) and the window ``rho_min``,
    ``rho_max`` and ``z_band`` (F, 1) belong to the frequencies. The rf
    amplitudes are those of ``cfg``, whose own omega is not used.

    Along a ray of slope s = z / rho at azimuth phi the field direction
    n = (cos phi, sin phi, -2 s) / q, q = sqrt(1 + 4 s^2), is fixed, and
    ``_ray_floor`` gives the lowest V in closed form over the part of the
    window the ray crosses, rho in [rho_min, min(rho_max, z_band / |s|)],
    from one kernel call of the coupling on the ray directions. The z = 0
    plane is the single ray s = 0, whose n_phi directions carry no
    frequency axis. A z band zooms s over [-z_band / rho_min, 0] and
    [0, z_band / rho_min] by ``PROFILE_ZOOM`` and keeps the lowest ray seen;
    s = 0 is a node of the first pass, so the band floor is never above the
    plane floor. Every column is computed with the operations of its own,
    so a column's floor has the same bits in any batch.
    """
    band = bool(np.any(z_band > 0))
    n_s, passes = PROFILE_ZOOM if band else (1, 1)
    # slope windows on axes (half, frequency, azimuth): each sign of z is
    # zoomed on its own, as the valleys at +-z mirror each other up to the
    # polarisation cross terms, too close in V for a coarse pass to rank.
    # The plane is the one slope 0 of every frequency, so its ray points, and
    # the coupling on them, carry no frequency axis.
    s_max = z_band / rho_min
    zero = np.zeros_like(s_max if band else s_max[:1])
    halves = [-s_max, zero, zero, s_max] if band else [zero, zero]
    s_lo, s_hi = np.reshape(halves, (2, -1) + zero.shape)
    lo, hi = s_lo, s_hi  # the first pass shares its slopes across azimuths
    frac = (np.arange(n_s) / max(n_s - 1, 1)).reshape(-1, 1, 1, 1)
    best = None  # s, rho, z, V, |Omega| of each window's lowest ray so far
    for _ in range(passes):
        # (slope, half, frequency or 1, azimuth or 1); +0.0 in the plane
        s = lo + (hi - lo) * frac
        inv_q = 1.0 / np.hypot(1.0, 2.0 * s)  # 1 / q: exactly 1 in the plane
        pts = np.empty(np.broadcast_shapes(s.shape, cosp.shape) + (3,))
        for k, coord in enumerate((cosp, sinp, s)):  # the ray points at R = 1
            np.multiply(coord, inv_q, out=pts[..., k])
        if not band:  # the plane: one ray per column, which stays in it
            radii, v, rabis = _ray_floor(cfg, pts, r0, (inv_q, rho_min, rho_max))
            out[0], out[1], out[2], out[3] = radii[0, 0], 0.0, v[0, 0], rabis[0, 0]
            return
        # the ray leaves the band at rho = z_band / |s|, kept >= rho_min
        abs_s = np.abs(s)
        leaves = abs_s * rho_max > z_band
        rho_hi = np.where(leaves, z_band, rho_max)
        np.divide(rho_hi, abs_s, out=rho_hi, where=leaves)
        np.maximum(rho_hi, rho_min, out=rho_hi)
        radii, v, rabis = _ray_floor(cfg, pts, r0, (inv_q, rho_min, rho_hi))
        z = np.copysign(np.minimum(abs_s * radii, z_band), s)  # |z| <= z_band
        lowest = _lowest(np.stack(np.broadcast_arrays(s, radii, z, v, rabis)))
        best = lowest if best is None else np.where(lowest[3] < best[3], lowest, best)
        # shrink each slope window to 2.5 cells around its lowest ray
        half = 2.5 * (hi - lo) / (n_s - 1)
        lo = np.maximum(best[0] - half, s_lo)
        hi = np.minimum(best[0] + half, s_hi)
    out[:] = _lowest(best)[1:]


def azimuthal_profile(
    cfg: TrapConfig,
    n_phi: int = 64,
    rho_factors: tuple[float, float] = (0.2, 3.0),
    z_band_factor: float = 0.0,
    omegas=None,
):
    """Minimise V over the radial(-axial) window at each azimuth.

    For every azimuth phi the potential is minimised over
    rho in [0.2, 3] * r0 (factors configurable, 0 < lower < upper) and
    |z| <= ``z_band_factor`` * r0, where r0 is the resonance radius of
    ``cfg``, on 8 to ``MAX_PROFILE_AZIMUTHS`` azimuths ``n_phi``. The
    default band is 0, the z = 0 plane: the plane the ring,
    wells and any azimuthal asymmetry live in, and the plane absorption
    images project onto. Along every ray of constant z / rho the field
    direction is fixed and V has a closed-form minimum (``_valley_floor``):
    the plane is one such ray per azimuth (one kernel call of the coupling
    on ``n_phi`` directions); a z band zooms over the ray slope for the
    azimuths of a batch in lockstep (one kernel call per pass of
    ``PROFILE_ZOOM``).

    Given a sequence ``omegas``, returns one profile whose rows are the
    profiles of ``cfg.with_rf(omega=w)`` for each w, each with the bits of
    its own call. The rows are computed in batches of (frequency, azimuth)
    columns, as many frequencies as keep a batch's closed-form arrays within
    ``PROFILE_BATCH_POINTS`` entries, and at least one. In the plane a batch
    is one kernel call, the coupling on the ``n_phi`` ray directions, which
    do not depend on the frequency; its floors go straight into the
    profile's arrays. A z band takes one frequency at a time, on as few
    near-equal parts of the azimuths as keep each within the budget.
    """
    if n_phi < 8:
        raise ValueError("n_phi must be at least 8")
    if n_phi > MAX_PROFILE_AZIMUTHS:
        raise ValueError(f"n_phi must be at most {MAX_PROFILE_AZIMUTHS}")
    if z_band_factor < 0:
        raise ValueError("z_band_factor must be non-negative")
    check_rho_factors(rho_factors)
    ws = np.array([cfg.rf.omega] if omegas is None else omegas, dtype=float)
    check_frequencies(ws)
    r0 = resonance_radius(cfg, ws)
    # np.linspace(0, 2 pi, n_phi, endpoint=False) bit for bit, at half its cost
    phis = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    cosp, sinp = np.cos(phis), np.sin(phis)
    rays = 2 * PROFILE_ZOOM[0] if z_band_factor > 0 else 1
    per_batch = min(len(ws), max(1, PROFILE_BATCH_POINTS // (rays * n_phi)))
    # a band batch of one frequency splits its azimuths into near-equal parts
    # that fit the budget; a plane batch always takes all of them
    parts = -(-n_phi // (PROFILE_BATCH_POINTS // rays))
    width = -(-n_phi // parts)
    floors = np.empty((4, len(ws), n_phi))  # radii, z, potentials, rabis
    for start in range(0, len(ws), per_batch):
        rows = slice(start, start + per_batch)
        col = r0[rows, None]  # one row of columns per frequency
        for first in range(0, n_phi, width):
            cols = slice(first, first + width)
            _valley_floor(
                cfg, cosp[cols], sinp[cols], col, rho_factors[0] * col,
                rho_factors[1] * col, z_band_factor * col, floors[:, rows, cols],
            )
    scales = cfg.atom.m_F * HBAR * ws
    if omegas is None:
        return AzimuthalProfile(phis, *floors[:, 0], float(scales[0]), float(r0[0]))
    return AzimuthalProfile(phis, *floors, scales, r0)


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
    minima_indices: tuple = ()


#: the geometry of each outcome code of ``_classify_rows``, in rule order
_GEOMETRIES = (Geometry.CENTER_TRAP, Geometry.SYMMETRIC_RING, Geometry.DOUBLE_WELL,
               Geometry.ASYMMETRIC_RING)


def _classify_rows(profile: AzimuthalProfile, tol: ClassifierTolerances):
    """The classifier's rules on every row of ``profile`` under ``tol`` and
    ``tol.halved()`` at once, which broadcast on a leading axis; each
    comparison is the one a row would make on its own.

    Returns the codes (2, ...) into ``_GEOMETRIES`` per tolerance set and
    row, and the masks (2, ..., n_phi) of the periodic local minima deeper
    than the flat threshold (None when every row is a center trap or flat),
    which count only where the code is 2 or 3.
    """
    pots, rabis = profile.potentials, profile.rabis
    scale = np.asarray(profile.energy_scale)[..., None]  # m_F hbar omega [J]
    rel_flat, match, closure = np.array(
        [[t.rel_flat, t.match_depth, t.closure] for t in (tol, tol.halved())]
    ).T.reshape((3, 2) + (1,) * pots.ndim)
    vmax = pots.max(axis=-1, keepdims=True)
    rmax = rabis.max(axis=-1, keepdims=True)
    flat = rel_flat * scale
    code = np.where(
        rmax < CENTER_TRAP_COUPLING * (scale / HBAR), 0,
        np.where(vmax - pots.min(axis=-1, keepdims=True) < flat, 1, 3),
    )
    minima = None
    if code.max() == 3:  # some row has azimuthal structure
        depth = vmax - pots
        ring = np.concatenate((pots[..., -1:], pots, pots[..., :1]), axis=-1)  # wraps
        minima = (pots < ring[..., :-2]) & (pots <= ring[..., 2:]) & (depth > flat)
        # |d1 - d2| <= match * max(d1, d2) of exactly two minima d1, d2
        deep = np.where(minima, depth, 0.0).max(axis=-1, keepdims=True)
        shallow = np.where(minima, depth, np.inf).min(axis=-1, keepdims=True)
        double = (
            (minima.sum(axis=-1, keepdims=True) == 2)
            & (deep - shallow <= match * deep)
            & (~minima | (rabis <= closure * rmax)).all(axis=-1, keepdims=True)
        )
        code[double & (code == 3)] = 2
    return code[..., 0], minima


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
    ``low_confidence``. This is ``_classify_rows``, the pass that classifies
    every row of a sweep at once, on one row.
    """
    if len(profile) < MIN_CLASSIFY_AZIMUTHS:
        raise ValueError(
            f"classification requires a profile with >= {MIN_CLASSIFY_AZIMUTHS} azimuths"
        )
    codes, minima = _classify_rows(profile, tolerances or ClassifierTolerances())
    code, code_halved = codes.tolist()
    return Classification(
        geometry=_GEOMETRIES[code],
        low_confidence=code_halved != code,
        minima_indices=tuple(np.flatnonzero(minima[0]).tolist()) if code > 1 else (),
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
    direction); so is a negative eigenvalue within rounding (1e-9 of the
    largest in size) of zero.

    Raises :class:`NotAMinimumError` at coupling-closed cusp points (the
    potential is conical there, not harmonic) and for negative curvature
    along any axis beyond that rounding: a saddle is not a trap.
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
    if lam.min() < -neg_tol:
        raise NotAMinimumError(
            f"negative curvature (lambda_rho={lam_rho:.3e}, lambda_phi={lam_phi:.3e}, "
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
class MinimizationResult:
    """Outcome of the search for the minimum of the potential."""

    position: np.ndarray
    value: float
    converged: bool  # the search ended within its iteration cap
    stationary: bool  # gradient norm below 1e-8 * m * g
    smooth: bool  # coupling open at the minimum; harmonic analysis valid
    # |grad V| [N] at the ray floor; None where the coupling is closed or the polish capped
    grad_norm: float | None
    iterations: int  # of the shell polish, each one kernel call
    f_evals: int  # directions evaluated


@dataclass(frozen=True)
class RingAnalysis:
    """Complete geometry analysis of one trap configuration."""

    geometry: Geometry
    ring_radius: float  # azimuth-averaged valley radius [m]
    resonance_radius: float  # analytic zero-detuning radius [m]
    minima: tuple  # (position ndarray, V [J], azimuth [rad]), V ascending
    barrier_height: float  # azimuthal max - min of the valley [J]
    # the lowest first maximum of V above the minimum along the six
    # axis-aligned rays from it [J]: it depends on the minimum's azimuth and
    # the rays' reach, so it is no saddle height
    depth: float
    omega_rho: float | None
    omega_z: float | None
    omega_phi: float | None
    low_confidence: bool
    minimum: MinimizationResult | None
    criteria: CriteriaReport  # taken at the global minimum of the analysed profile
    # the refined 3D minimum when it is smooth and stationary; None otherwise
    refined_minimum: np.ndarray | None
    notes: tuple = ()


def _escape_depth(cfg: TrapConfig, origin: np.ndarray, v_min: float, r0: float) -> float:
    """Min over the 6 axis directions of the first ray maximum above v_min.

    Each ray is scanned up to its first sample k above v_min whose successor
    is lower (or up to the second-last sample); its depth is the highest
    value seen by then, floored at v_min, minus v_min.
    """
    step = r0 / 200.0
    n_steps = 800  # 4 * r0 reach
    directions = np.hstack([np.eye(3), -np.eye(3)])  # column j: ray j's direction
    # the coordinates of the (6 rays, n_steps) points, each C-contiguous
    points = directions[:, :, None] * (step * np.arange(1, n_steps + 1))
    points += origin[:, None, None]
    vals = dressed_potential(tuple(points), cfg)
    turns = (vals[:, :-1] > v_min) & (vals[:, 1:] < vals[:, :-1])
    stop = np.where(turns.any(axis=1), turns.argmax(axis=1), n_steps - 2)
    seen = np.arange(n_steps) <= stop[:, None]
    peaks = np.where(seen, vals, v_min).max(axis=1)
    return float((peaks - v_min).min())


def _field_direction(r) -> np.ndarray:
    """Unit field direction (x, y, -2 z) / R of the point ``r``."""
    w = np.asarray(r, dtype=float) * np.array([1.0, 1.0, -2.0])
    return w / np.linalg.norm(w)


def _shell_floor(cfg, n):
    """R*, V* [J] and |Omega| on the rays of the unit field directions ``n``
    (..., 3); V* is +inf on a ray whose floor lies behind the centre or that
    has none."""
    radius, v, rabis = _ray_floor(cfg, n * _RAY)
    return radius, np.where((radius > 0) & (radius < np.inf), v, np.inf), rabis


def _coupling_holes(cfg) -> np.ndarray:
    """The unit field directions (k, 3) where |Omega| is least on the sphere.

    |Omega|^2 / C^2 = |a|^2 + |b|^2 - n.P n + 2 n.w, with P = a a^T + b b^T
    and w = b x a, which P maps to 0. With P's largest eigenpair (p1, e1),
    the least value on |n| = 1 is at n = -w / p1 +- sqrt(1 - |w|^2 / p1^2) e1.
    |w|^2 = p1 p2 <= p1^2, so the coupling closes there: at two holes, which
    merge into -w / |w| for circular polarisation (p1 = p2). Linear rf
    (b = 0) has its holes at +-a / |a|. Where the rf vanishes (P = 0) no
    direction stands out and none is returned.
    """
    parts = np.array(cfg.rf.amplitude_parts)
    big = np.abs(parts).max()
    if big == 0:
        return np.empty((0, 3))
    # a part, or a product of parts below ~1e-154 of the largest, may
    # underflow to 0, which moves nothing
    with np.errstate(under="ignore"):
        ax, ay, az, by, bz = parts / big  # the holes do not depend on the scale
        a, b = np.array([ax, ay, az]), np.array([0.0, by, bz])
        w = np.array([by * az - bz * ay, bz * ax, -by * ax])  # b x a
        p, e = np.linalg.eigh(np.outer(a, a) + np.outer(b, b))
        side = math.sqrt(max(1.0 - (w @ w) / (p[-1] * p[-1]), 0.0))
        holes = -w / p[-1] + np.array([[side], [-side]]) * e[:, -1]
        return holes / np.sqrt((holes * holes).sum(axis=1, keepdims=True))


def _frames(n) -> np.ndarray:
    """Orthonormal bases (k, 3, 3) with rows (n, t1, t2) at the unit vectors
    ``n`` (k, 3), by the branchless construction of Duff et al. (2017), so
    that no chart and no pole enters the polish."""
    x, y, z = n.T
    sign = np.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    basis = np.empty((len(n), 3, 3))
    basis[:, 0] = n
    basis[:, 1, 0] = 1.0 + sign * x * x * a
    basis[:, 1, 1] = sign * b
    basis[:, 1, 2] = -sign * x
    basis[:, 2, 0] = b
    basis[:, 2, 1] = sign + y * y * a
    basis[:, 2, 2] = -y
    return basis


def _turn(basis, coeffs) -> np.ndarray:
    """The unit directions n + s1 t1 + s2 t2 for ``coeffs`` rows (1, s1, s2)
    on ``basis`` (k, 3, 3): (k, m, 3) for coefficients (m, 3) or (k, m, 3)."""
    d = np.matmul(coeffs, basis)
    return d / np.sqrt((d * d).sum(axis=-1, keepdims=True))


#: coefficients on (n, t1, t2) of the 9-direction stencil: the centre, then
#: -+t1, -+t2 and the four diagonals at SHELL_PROBE_ANGLE
_STENCIL = np.column_stack([np.ones(9), SHELL_PROBE_ANGLE * np.array(
    [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1]]
)])

#: weights (9, 5) that take the stencil's values to their central
#: differences: the gradient (g1, g2) and the Hessian (h11, h12, h22)
_DIFFERENCES = np.array([
    [0, 1, -1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, -1, 0, 0, 0, 0],
    [-2, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0.25, -0.25, -0.25, 0.25],
    [-2, 0, 0, 1, 1, 0, 0, 0, 0],
]).T / np.array([2 * SHELL_PROBE_ANGLE] * 2 + [SHELL_PROBE_ANGLE**2] * 3)


def _probe(cfg, n, scale):
    """The stencil around each unit direction of ``n`` (k, 3), in one kernel
    call: the bases of ``_frames``, then at the centres R*, V* [J] and
    |Omega|, and the central-difference gradient (k, 2) and Hessian entries
    (h11, h12, h22) (k, 3) of V* / ``scale`` in the tangent frame. Where a
    stencil ray has no floor the centre's V* is +inf and the differences
    are 0."""
    basis = _frames(n)
    radius, v, rabis = _shell_floor(cfg, _turn(basis, _STENCIL))
    ok = np.isfinite(v).all(axis=1)
    diffs = np.where(ok[:, None], v, 0.0) @ _DIFFERENCES
    diffs /= scale
    value = np.where(ok, v[:, 0], np.inf)
    return basis, radius[:, 0], value, rabis[:, 0], diffs[:, :2], diffs[:, 2:]


def _hole_cones(around, scale):
    """Which coupling holes are local minima of V*, from the stencil values
    ``around`` (k, 9) [J] at each.

    At a hole V* is a cone with a tilt: V*(p + d t) = V*(p) + d (|t|_K + g.t)
    to first order in the tangent offset d t, where |t|_K^2 = t.K t. The
    stencil gives g from its odd part and K from its even part along t1, t2
    and t1 + t2. The hole is a local minimum when the tilt never beats the
    cone, max over t of -g.t / |t|_K = |g|_{K^-1} <= 1, that is
    g.adj(K) g <= det K with K positive definite. A cone that closes
    quadratically (circular rf) has K of order d^2 and is a minimum only
    without tilt.
    """
    d = (around[:, 1:] - around[:, :1]) / scale  # +-t1, +-t2, diagonals
    q1, q2, qd = (d[:, 0] + d[:, 1]) / 2, (d[:, 2] + d[:, 3]) / 2, (d[:, 4] + d[:, 7]) / 2
    g1, g2 = (d[:, 0] - d[:, 1]) / 2, (d[:, 2] - d[:, 3]) / 2
    k11, k22 = q1 * q1, q2 * q2
    k12 = (qd * qd - k11 - k22) / 2
    det = k11 * k22 - k12 * k12
    tilt = -((k12 * g2 - k22 * g1) * g1 + (k12 * g1 - k11 * g2) * g2)  # g.adj(K) g
    return np.isfinite(around).all(axis=1) & (det > 0) & (tilt <= det)


def _trust_steps(grad, curv, radius):
    """Steps (k, 2) that lower the model g.s + s.H s / 2 within |s| <=
    ``radius``, and their lengths.

    In the eigenbasis of H, eigenvalues mu_lo <= mu_hi, the step of shift
    lam is s_i(lam) = -g_i / (mu_i + lam). Where H is positive definite and
    the Newton step s(0) fits, it is the step. Otherwise the step meets the
    radius: with lam = max(0, |g_lo| / radius - mu_lo), the smallest shift
    that keeps s_lo(lam) within the radius, the upper part of the step is
    s_hi(lam), and the lower part takes the rest of the radius, downhill.
    Neither part raises the model, and where g has no part along the lower
    eigenvector (the hard case of More and Sorensen) lam = -mu_lo exactly.
    """
    h11, h12, h22 = curv.T
    mid, half = (h11 + h22) / 2, np.hypot((h11 - h22) / 2, h12)
    mu = np.column_stack([mid - half, mid + half])
    psi = 0.5 * np.arctan2(2.0 * h12, h11 - h22)  # the upper eigenvector's angle
    cos, sin = np.cos(psi), np.sin(psi)
    g = np.column_stack([cos * grad[:, 1] - sin * grad[:, 0],
                         cos * grad[:, 0] + sin * grad[:, 1]])
    convex = mu[:, 0] > 0
    step = -g / np.where(convex[:, None], mu, 1.0)
    boundary = ~convex | ((step * step).sum(axis=1) > radius * radius)
    if boundary.any():
        g, mu, r = g[boundary], mu[boundary], radius[boundary]
        lam = np.maximum(0.0, np.abs(g[:, 0]) / r - mu[:, 0])
        # mu + lam stays above rounding of the model's own scale
        floor = 1e-15 * (np.abs(mu).max(axis=1) + np.abs(g).max(axis=1) / r)
        upper = np.clip(-g[:, 1] / np.maximum(mu[:, 1] + lam, floor), -r, r)
        lower = np.sqrt(r * r - upper * upper)
        step[boundary] = np.column_stack([np.where(g[:, 0] > 0, -lower, lower), upper])
    step = np.column_stack([cos * step[:, 1] - sin * step[:, 0],
                            sin * step[:, 1] + cos * step[:, 0]])
    return step, np.sqrt((step * step).sum(axis=1))


def _floor_gradient(probe, scale):
    """|grad V| [N] at the ray floor of each centre of ``probe`` (a
    ``_probe`` of V* / ``scale``), by the envelope theorem: at r = R* u(n),
    u = D n with D = diag(1, 1, -1/2), the closed form gives dV/dR = 0, so
    grad V . u = 0, and turning n along the tangent t_i gives
    grad V . (R* D t_i) = dV*/ds_i. With (n, t1, t2) orthonormal the
    solution is grad V = D^-1 (g1 t1 + g2 t2) / R*. A centre without a
    floor, or with a stencil ray that has none, reads +inf."""
    basis, radius, value, _, grad, _ = probe
    tangent = np.matmul(grad[:, None], basis[:, 1:])[:, 0] / _RAY
    norm = np.sqrt((tangent * tangent).sum(axis=1)) * (scale / radius)
    return np.where(np.isfinite(value), norm, np.inf)


def _polish_on_shell(cfg, n, max_iter, kept):
    """Take the unit directions ``n`` (k, 3) together down to local minima
    of V*: a trust-region Newton iteration in each one's tangent plane
    (``_trust_steps``), one kernel call of 9 directions per candidate per
    iteration (``_probe``).

    A trial is taken when V* falls, or when V* stays within
    ``SHELL_TIE_FRACTION`` of m_F hbar omega of its old value and the
    gradient of V at the ray floor (``_floor_gradient``) shrinks: near a
    smooth minimum V* falls by less than its own rounding, so its fall
    tells nothing. A taken trial grows the trust radius to twice the step;
    otherwise it shrinks to a quarter of the step. Each candidate stops by
    its kind: where the coupling is open (|Omega| > ``SMOOTH_RABI_FRACTION``
    omega), once that gradient is below ``STATIONARY_GRAD_FACTOR`` m g or
    its step below rounding; where it is closed, V* has a cusp and no
    gradient, and the candidate stops once its step is below
    ``MIN_MESH_STEP`` of position. Any candidate stops once one of the
    coupling holes ``kept`` (m, 3) lies within its step: it is sliding into
    a cusp that is a candidate already.

    Returns the directions, R*, V* [J], |Omega| and the floor gradient [N]
    there, the iterations, the directions evaluated, and whether
    ``max_iter`` stopped the polish first.
    """
    scale = cfg.atom.m_F * HBAR * cfg.rf.omega
    tie = SHELL_TIE_FRACTION * scale
    target = STATIONARY_GRAD_FACTOR * cfg.atom.mass * G_ACCEL
    mesh = MIN_MESH_STEP / resonance_radius(cfg)
    state = _probe(cfg, n, scale)  # basis, R*, V*, |Omega|, gradient, Hessian
    basis, _, value, rabi, grad, curv = state
    norm = _floor_gradient(state, scale)
    active = np.isfinite(value)
    trust = np.full(len(n), np.pi / SHELL_MAP[0])  # a row of the map
    it, evals = 0, len(_STENCIL) * len(n)
    while True:
        step, length = _trust_steps(grad, curv, trust)
        open_ = rabi > SMOOTH_RABI_FRACTION * cfg.rf.omega
        active &= np.where(open_, (norm >= target) & (length >= np.finfo(float).eps),
                           length >= mesh)
        chord = np.sqrt(((basis[:, None, 0] - kept) ** 2).sum(axis=-1))  # to each kept hole
        active &= chord.min(axis=1, initial=np.inf) > length
        if not active.any() or it == max_iter:
            return (basis[:, 0],) + state[1:4] + (norm, it, evals, bool(active.any()))
        it += 1
        k = np.flatnonzero(active)
        coeffs = np.column_stack([np.ones(len(k)), step[k]])[:, None]
        got = _probe(cfg, _turn(basis[k], coeffs)[:, 0], scale)
        got_norm = _floor_gradient(got, scale)
        evals += len(_STENCIL) * len(k)
        better = (got[2] < value[k]) | ((got[2] <= value[k] + tie) & (got_norm < norm[k]))
        trust[k] = np.where(better, np.maximum(trust[k], 2.0 * length[k]), 0.25 * length[k])
        for old, new in zip(state + (norm,), got + (got_norm,)):
            old[k[better]] = new[better]


def _map_minima(v) -> np.ndarray:
    """Mask of the nodes of the direction map ``v`` (latitude, azimuth) that
    are finite and no higher than any of their 8 neighbours: equal to the
    least value of their 3 x 3 block, taken along azimuth, then along
    latitude. Across a pole the next row is the same row, half a turn on."""
    lats, azimuths = v.shape
    wrap = np.empty((lats, azimuths + 2))
    wrap[:, 1:-1], wrap[:, 0], wrap[:, -1] = v, v[:, -1], v[:, 0]
    rows = np.empty((lats + 2, azimuths))
    np.minimum(np.minimum(wrap[:, :-2], wrap[:, 1:-1]), wrap[:, 2:], out=rows[1:-1])
    turn = azimuths // 2
    for pole, row in ((0, 1), (-1, -2)):
        rows[pole, :turn], rows[pole, turn:] = rows[row, turn:], rows[row, :turn]
    low = np.minimum(np.minimum(rows[:-2], rows[1:-1]), rows[2:])
    return (v == low) & np.isfinite(v)


def _map_directions(lats: int, azimuths: int) -> np.ndarray:
    """Unit directions (lats * azimuths, 3), latitude by azimuth, on a map
    whose rows sit half a row off the poles."""
    theta = (np.arange(lats) + 0.5) * (np.pi / lats)
    phi = np.arange(azimuths) * (2.0 * np.pi / azimuths)
    sin_t = np.sin(theta)[:, None]
    return np.stack(
        np.broadcast_arrays(sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)[:, None]),
        axis=-1,
    ).reshape(-1, 3)


_SHELL_DIRECTIONS = _map_directions(*SHELL_MAP)


def shell_minimum(cfg: TrapConfig, start, max_iter: int = 100) -> MinimizationResult:
    """Global minimum of V over all space, found on the sphere of field
    directions; ties go to the direction nearest the unit vector ``start``.

    Every ray of fixed field direction n has the closed-form floor V*(n) of
    ``_ray_floor`` at R*(n) (n_x, n_y, -n_z / 2), so the minimum of V is the
    minimum of V* on the unit sphere. V* is smooth except at the coupling
    holes (``_coupling_holes``), where |Omega| closes and V* has a conical
    cusp. Without gravity V* = m_F hbar |Omega|, so the holes are the global
    minima and no search is needed. With gravity the candidates are the holes
    whose cone the gravity tilt does not beat (``_hole_cones``, from a
    stencil at ``SHELL_PROBE_ANGLE``), and the local minima of V* on a
    ``SHELL_MAP`` of directions, polished together by ``_polish_on_shell``;
    a polish that slides into a kept hole stops there. The map and the
    holes' stencils take one kernel call. Map minima are taken whatever
    their coupling: with nearly circular rf, |Omega| closes quadratically at
    its holes, and gravity can hold a smooth minimum where it is below
    0.01 omega.

    The lowest candidate wins; those within ``SHELL_TIE_FRACTION`` of
    m_F hbar omega of it tie, and the one whose direction is nearest
    ``start`` wins. Where the coupling is open (|Omega| >
    ``SMOOTH_RABI_FRACTION`` omega) ``grad_norm`` is the gradient of V at
    the winner's ray floor, and ``stationary`` says whether the polish took
    it below ``STATIONARY_GRAD_FACTOR`` m g. At a coupling-closed winner V
    has a cusp and no gradient: ``grad_norm`` is None, ``stationary`` False
    and ``smooth`` False. ``iterations`` counts the polish iterations, each
    one kernel call, and ``f_evals`` the directions evaluated. The caller
    must know that V is bounded below (no gravity, or kappa > 1): otherwise
    V* falls toward the rays that have no floor, where R* grows without
    bound.

    A polish stopped by its cap of ``max_iter`` iterations returns its
    lowest candidate with ``converged`` False and ``iterations`` equal to
    the cap; ``grad_norm`` is then None and ``stationary`` False, while
    ``smooth`` still says whether the coupling is open there.
    """
    start = np.asarray(start, dtype=float)
    # the components of directions hundreds of decades apart, such as those
    # of an rf phase of 1e-193 rad, underflow in their squares and products
    # to a 0 that moves nothing
    with np.errstate(under="ignore"):
        holes = _coupling_holes(cfg)
        if not len(holes):  # the rf vanishes: every direction is a hole
            holes = start[None, :]
        it, evals, capped = 0, len(holes), False
        unknown = np.full(len(holes), np.inf)  # no floor gradient at a cusp
        if not cfg.gravity_on:
            cands = (holes,) + _shell_floor(cfg, holes) + (unknown,)
        else:
            directions = _SHELL_DIRECTIONS
            m = len(directions)
            around = _turn(_frames(holes), _STENCIL).reshape(-1, 3)
            floors = _shell_floor(cfg, np.concatenate([directions, around]))
            evals = len(around) + m
            around = floors[1][m:].reshape(len(holes), -1)
            kept = _hole_cones(around, cfg.atom.m_F * HBAR * cfg.rf.omega)
            starts = _map_minima(floors[1][:m].reshape(SHELL_MAP)).reshape(-1)
            *found, it, more, capped = _polish_on_shell(
                cfg, directions[starts], max_iter, holes[kept]
            )
            evals += more
            # the holes' rows are the centres of their stencils
            at_holes = [holes] + [f[m::len(_STENCIL)] for f in floors] + [unknown]
            cands = tuple(np.concatenate([h[kept], f]) for h, f in zip(at_holes, found))
        values = cands[2]
        tie = SHELL_TIE_FRACTION * cfg.atom.m_F * HBAR * cfg.rf.omega
        near = values <= values.min() + tie
        best = int(np.argmax(np.where(near, cands[0] @ start, -np.inf)))
        n, radius, value, rabi, norm = (c[best] for c in cands)
        smooth = bool(rabi > SMOOTH_RABI_FRACTION * cfg.rf.omega)
        target = STATIONARY_GRAD_FACTOR * cfg.atom.mass * G_ACCEL
        grad_norm = float(norm) if smooth and not capped else None
        return MinimizationResult(
            position=radius * n * _RAY, value=float(value), converged=not capped,
            stationary=grad_norm is not None and grad_norm < target, smooth=smooth,
            grad_norm=grad_norm, iterations=it, f_evals=evals,
        )


def analyze_trap(
    cfg: TrapConfig,
    n_phi: int = 64,
    rho_factors: tuple[float, float] = (0.2, 3.0),
    z_band_factor: float = 0.0,
    tolerances: ClassifierTolerances | None = None,
) -> RingAnalysis:
    """Profile, classify and harmonically characterise one trap config.

    ``shell_minimum`` refines the minimum to the global minimum of V over
    all space, the lowest point of the dressed shell, where cold atoms
    settle; of tied minima it takes the one nearest the field direction of
    the profile minimum (the first listed minimum). It may lie outside the
    rho window and the z band. The depth, the lowest first maximum along
    six axis rays (``_escape_depth``), is measured from it. Where
    it is smooth and stationary (its polish took the gradient of V below
    1e-8 m g) it is ``refined_minimum``, and the harmonic frequencies
    are taken there. A search stopped at its iteration cap
    (``converged`` False) is noted, and its lowest candidate kept. With
    gravity on and kappa <= 1, V has no bound minimum: nothing is refined, a
    note says so, and the depth is measured from the profile minimum.
    """
    r0 = resonance_radius(cfg)
    profile = azimuthal_profile(
        cfg, n_phi=n_phi, rho_factors=rho_factors, z_band_factor=z_band_factor
    )
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

    criteria = criteria_report(cfg, profile=profile)
    result = None
    freqs = None
    refined = None
    if cfg.gravity_on and criteria.kappa <= 1:
        notes.append(
            f"gravity exceeds the magnetic confinement (kappa = {criteria.kappa!r} "
            "<= 1): the potential has no bound minimum to refine"
        )
    elif cls.geometry is not Geometry.CENTER_TRAP:
        result = shell_minimum(cfg, _field_direction(minima[0][0]))
        if not result.converged:
            n = result.iterations
            notes.append(
                "minimum refinement did not converge: shell polish stopped at "
                f"its cap of {n} iteration{'' if n == 1 else 's'}"
            )
        if result.stationary and result.smooth:
            refined = result.position
            try:
                freqs = trap_frequencies(cfg, result.position)
            except NotAMinimumError as err:
                notes.append(f"harmonic analysis unavailable: {err}")
        elif not result.smooth:
            notes.append(
                "coupling-closed (cusp) minimum; harmonic frequencies undefined"
            )
        else:
            notes.append(
                "refined minimum is not stationary in 3D (no harmonic "
                "minimum); frequencies unavailable"
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
        criteria=criteria,
        refined_minimum=refined,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# frequency sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    omega: float
    resonance_radius: float
    numeric_radius: float
    barrier_height: float
    geometry: Geometry
    low_confidence: bool = False


def frequency_sweep(
    cfg: TrapConfig,
    omegas,
    amplitudes=None,
    n_phi: int = 64,
    rho_factors: tuple[float, float] = (0.2, 3.0),
    z_band_factor: float = 0.0,
    tolerances: ClassifierTolerances | None = None,
) -> list[SweepPoint]:
    """Analyse the trap at each dressing frequency.

    ``amplitudes`` optionally overrides (b_x, b_y, b_z) per frequency
    (user-supplied antenna response table, tesla). The rho window and the
    z band scale with each row's own resonance radius. Every input is
    checked before any row is profiled: a frequency that is not positive
    and finite, or an amplitude row that ``RfConfig`` rejects, raises
    ``ValueError``, and the sweep returns no partial result.

    Rows that share an amplitude triple (every row, without a table) are
    one array pass: one :func:`azimuthal_profile` call profiles them as the
    rows of one profile, in batches of at most ``PROFILE_BATCH_POINTS``
    closed-form entries (in the plane, one kernel call per batch);
    ``_classify_rows`` classifies all of them under both tolerance sets at
    once; and the radii and barriers are row reductions. Each row has the
    bits of a profile and a ``classify_geometry`` of its own.
    """
    omegas = [float(w) for w in omegas]
    check_frequencies(omegas)
    if n_phi < MIN_CLASSIFY_AZIMUTHS:
        raise ValueError(f"sweep classification requires n_phi >= {MIN_CLASSIFY_AZIMUTHS}")
    check_rho_factors(rho_factors)
    if amplitudes is None:
        groups = [(cfg, range(len(omegas)))]
    else:
        if len(amplitudes) != len(omegas):
            raise ValueError("amplitudes table must match the frequency list length")
        by_triple = {}  # amplitude triple -> row indices, in order of first use
        for i, triple in enumerate(amplitudes):
            by_triple.setdefault(tuple(float(b) for b in triple), []).append(i)
        # one config per group, each checked by RfConfig before any profile
        groups = [
            (cfg.with_rf(b_x=bx, b_y=by, b_z=bz), members)
            for (bx, by, bz), members in by_triple.items()
        ]

    tol = tolerances or ClassifierTolerances()
    rows = [None] * len(omegas)
    for cfg_g, members in groups:
        profile = azimuthal_profile(
            cfg_g, n_phi=n_phi, rho_factors=rho_factors,
            z_band_factor=z_band_factor, omegas=[omegas[i] for i in members],
        )
        codes, _ = _classify_rows(profile, tol)
        for i, r0, radius, barrier, code, code_halved in zip(
            members, profile.resonance_radius.tolist(), profile.numeric_radius(),
            profile.barrier_height(), *codes.tolist(),
        ):
            rows[i] = SweepPoint(
                omegas[i], r0, radius, barrier, _GEOMETRIES[code], code_halved != code
            )
    return rows
