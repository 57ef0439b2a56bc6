"""The azimuthal valley profile, the geometry classifier and the frequency sweep.

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

``frequency_sweep`` profiles and classifies the trap at each of a list of
dressing frequencies, which is how the ring radius is moved; it needs
nothing else. :mod:`ringtrap.analysis` analyses one trap on top of this
module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constants import G_ACCEL, HBAR, MU_B
from .dressed import rabi_squared, resonance_radius
from .fields import TrapConfig
from .limits import (
    MAX_PROFILE_AZIMUTHS,
    MIN_CLASSIFY_AZIMUTHS,
    PROFILE_BATCH_POINTS,
    ClassifierTolerances,
    check_frequencies,
    check_rho_factors,
)

#: valley-profile zoom over the ray slope z / rho in each half of a z band
#: (the z = 0 plane is the one slope 0): slope nodes, passes
PROFILE_ZOOM = (97, 12)

#: profile coupling below this fraction of m_F * omega everywhere means the
#: trap is effectively undressed (center trap)
CENTER_TRAP_COUPLING = 1e-9


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


def _lowest(rays):
    """``rays`` (quantity, candidate, ...) at the candidate of lowest V (row 3);
    of candidates tied in V, the one of least |s| (row 0), nearest the plane."""
    tied = rays[3] == rays[3].min(axis=0)
    k = np.argmin(np.where(tied, np.abs(rays[0]), np.inf), axis=0)
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
    a = atom.m_F * atom.g_F * MU_B * cfg.gradient
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
    [0, z_band / rho_min] by ``PROFILE_ZOOM`` and keeps the lowest ray seen,
    of rays tied in V the one nearest the plane; s = 0 is a node of the
    first pass, so the band floor is never above the plane floor. Every
    column is computed with the operations of its own, so a column's floor
    has the same bits in any batch.
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
class Classification:
    """A profile's geometry, its low-confidence flag and its minima's azimuth indices."""

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
# frequency sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One dressing frequency's row of a sweep: radii [m], barrier [J], geometry."""

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
    z band scale with each row's own resonance radius. A frequency that is
    not positive and finite, an amplitude row that ``RfConfig`` rejects or
    a bad rho window raises ``ValueError`` before any kernel call, and the
    sweep returns no partial result.

    Without a table all rows are one array pass: one
    :func:`azimuthal_profile` call profiles them as the rows of one profile,
    in batches of at most ``PROFILE_BATCH_POINTS`` closed-form entries (in
    the plane, one kernel call per batch); ``_classify_rows`` classifies all
    of them under both tolerance sets at once; and the radii and barriers are
    row reductions. With a table each row is a pass of its own. Each row has
    the bits of a profile and a ``classify_geometry`` of its own.
    """
    omegas = [float(w) for w in omegas]
    check_frequencies(omegas)
    if n_phi < MIN_CLASSIFY_AZIMUTHS:
        raise ValueError(f"sweep classification requires n_phi >= {MIN_CLASSIFY_AZIMUTHS}")
    if amplitudes is None:
        passes = [(cfg, omegas)]
    else:
        if len(amplitudes) != len(omegas):
            raise ValueError("amplitudes table must match the frequency list length")
        # one config per row, each checked by RfConfig before any profile
        passes = [
            (cfg.with_rf(b_x=float(bx), b_y=float(by), b_z=float(bz)), [w])
            for w, (bx, by, bz) in zip(omegas, amplitudes)
        ]

    tol = tolerances or ClassifierTolerances()
    rows = []
    for cfg_p, group in passes:
        profile = azimuthal_profile(
            cfg_p, n_phi=n_phi, rho_factors=rho_factors,
            z_band_factor=z_band_factor, omegas=group,
        )
        codes, _ = _classify_rows(profile, tol)
        for w, r0, radius, barrier, code, code_halved in zip(
            group, profile.resonance_radius.tolist(), profile.numeric_radius(),
            profile.barrier_height(), *codes.tolist(),
        ):
            rows.append(
                SweepPoint(w, r0, radius, barrier, _GEOMETRIES[code], code_halved != code)
            )
    return rows
