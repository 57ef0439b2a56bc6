"""Trap analysis at one dressing frequency: minimum, frequencies, depth.

``analyze_trap`` profiles and classifies the valley (:mod:`ringtrap.valley`)
and takes the gravity and coupling criteria at its lowest point; then it
refines the minimum and takes the harmonic trap frequencies and the escape
depth there.

The closed-form floor of V along a ray of fixed field direction
(``valley._ray_floor``) turns the 3-D minimum into a 2-D question: the minimum
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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import G_ACCEL, HBAR, MU_B
from .dressed import dressed_potential, potential_hessian, rabi_frequency, resonance_radius
from .errors import NotAMinimumError
from .fields import TrapConfig
from .limits import ClassifierTolerances
from .valley import (
    AzimuthalProfile,
    Geometry,
    _ray_floor,
    azimuthal_profile,
    classify_geometry,
)

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

#: an azimuthal trap frequency below this fraction of omega_rho is reported
#: as exactly zero (flat ring direction)
FLAT_PHI_FRACTION = 1e-3

#: kappa above this counts as gravity negligible
GRAVITY_NEGLIGIBLE_KAPPA = 5.0


# ---------------------------------------------------------------------------
# harmonic trap frequencies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrapFrequencies:
    """Harmonic angular frequencies [rad/s] along rho, z and phi at a minimum."""

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
