"""RF-dressed adiabatic potential of a quadrupole trap.

An atom in a hyperfine sub-level m_F, held in a quadrupole field and driven
by an rf field near the local Larmor frequency, experiences the adiabatic
potential (rotating-wave approximation)

    V(r) = m_F * hbar * sqrt(delta(r)^2 + |Omega(r)|^2)  [+ m*g*y]

where delta = omega - omega_0(r) is the local detuning of the dressing
frequency from the Larmor frequency

    omega_0(r) = g_F * mu_B * B_q * sqrt(x^2 + y^2 + 4 z^2) / hbar

and |Omega| is the position-dependent Rabi coupling between adjacent Zeeman
sub-levels. For the rf field (B_x cos wt, B_y cos(wt-alpha), B_z cos(wt-beta))
with complex amplitude B~ = (B_x, B_y e^{i alpha}, B_z e^{i beta}) = a + i b,

    a = Re B~ = (B_x, B_y cos alpha, B_z cos beta)
    b = Im B~ = (0,   B_y sin alpha, B_z sin beta),

only the part of B~ transverse to the local field direction
n = (x, y, -2z)/R, R^2 = x^2 + y^2 + 4z^2, drives the transition. In the
rotating-wave approximation

    |Omega|^2 = C^2 (|B~|^2 - |n.B~|^2 - i n.(B~ x B~*))
              = C^2 |a - (n.a) n + n x b|^2,       C = g_F mu_B / (2 hbar).

The second form is a sum of squares, so the coupling is non-negative in
floating point, and it depends on position only through n. On the z-axis n
is (0, 0, -sgn z), which gives the unique axial limit

    |Omega|^2_axis = C^2 [B_x^2 + B_y^2 + 2 B_x B_y sin(alpha) sgn(z)].

Only the trap centre r = 0 has no field direction; there the coupling is
taken as C^2 (B_x^2 + B_y^2), the average of the two axial limits. A point
so close to the centre that R underflows still has its own direction.

How the kernel evaluates it. C is folded into a' = C a and b' = C b, and
g_F mu_B B_q / hbar into one slope K, once per config
(``TrapConfig.coupling_parts`` and ``TrapConfig.larmor_slope``). With the
unnormalised field direction P = (x, y, w), w = -2z, s = 1/R and
m = (P.a') s, the component of a' along n times R,

    u = a' - (n.a') n + n x b' = a' - s (m P - P x b'),    |Omega|^2 = |u|^2,

the same vector as above, and still a sum of squares. P x b' is
(U, -x b'_z, x b'_y) with U = y b'_z - w b'_y, as b'_x = 0.

The kernel runs in two stages. The first (:func:`yz_planes`) forms the
terms of (y, z) alone, five planes: y, w, S = y^2 + w^2,
T = y a'_y + w a'_z and U. The second adds the x coordinates:
R = sqrt(x^2 + S), omega_0 = K R, s = 1/R, m = (x a'_x + T) s, then

    -u_x = s (m x - U) - a'_x,
    -u_y = s (m y + x b'_z) - a'_y,
    -u_z = s (m w - x b'_y) - a'_z,

each squared into the sum |Omega|^2 once formed. A grid fill forms the
planes once, as contiguous (1, ny, nz) arrays, and each block of whole
x-slabs adds its x column to them (``planes`` of
:func:`dressed_potential`): 24 passes over the block for |Omega|^2, and 5
more for V. Every other call forms the planes of its own points. s
multiplies twice in sequence, never as s^2: that order leaves the coupling
of fig. 2a an exact 0 at its resonance point on the x axis, where forming
(P.a') s^2 P leaves |Omega|^2 = 5e-20 (rad/s)^2.

A point with R below 2^-500 m, the centre among them, takes R = 1 in the
second stage, so that nothing divides by zero; then its coupling is formed
once more, on its own: its coordinates, scaled by 2^600 (exact), run
through both stages, and the centre, the one point whose scaled R is still
0, takes the average of the axial limits.

Every function of a position takes it in either of two forms: an (..., 3)
array of positions, or a tuple (x, y, z) of coordinate arrays that broadcast
together, such as the axes ``np.meshgrid(..., sparse=True)`` returns. A grid
block passes its three axis slices this way and builds no positions array.
Both forms run through one kernel and give the same bits for the same
points; the result has the points' shape.

Where the kernel's temporaries live: a call allocates them afresh, whatever
the number of points, unless it is given a workspace of ``WORKSPACE_ROWS``
flat float rows. It then writes each temporary into a row of that
workspace, viewed in the temporary's own shape, and ``dressed_potential``
forms omega_0, then delta^2, then V in the ``out`` array it is given, so a
call allocates nothing the size of its points. The rows hold:

- 0: the products of x alone (x^2, then a'_x x, b'_z x and b'_y x);
- 1: R, then s;
- 2: m, then -u_z;
- 3: -u_x, then the sum of the squares, |Omega|^2;
- 4: -u_y, the first stage's scratch, and the gravity term m g y;
- 5-9: the planes y, w, S, T and U.

A workspace is any sequence of flat rows, each as long as it needs to be:
a call given the planes uses rows 0-4 only, and row 0 holds one entry per
x value. The grid fill passes one workspace to every block.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import G_ACCEL, HBAR, MU_B
from .fields import TrapConfig

#: finite-difference steps below this are rejected as underflow [m]
MIN_FD_STEP = 1e-9

#: temporaries of one kernel call alive at once beside omega_0, which is
#: formed in ``out``: the rows of a workspace, the x row, four node rows of
#: the second stage and the five planes of the first
WORKSPACE_ROWS = 10

#: the second stage's node rows (rows 1-4), and the first stage's rows
#: (rows 4-9: its scratch, then the planes), a buffer of :func:`yz_planes`
STAGE_ROWS = 4
PLANE_ROWS = 6

#: R [m] below which the squares of the coordinates lose precision (and below
#: ~1e-154 m R underflows to 0): such a point's coupling is formed again from
#: its coordinates times _RESCALE, a power of two
_TINY = 2.0**-500
_RESCALE = 2.0**600


def resonance_radius(cfg: TrapConfig, omega=None):
    """z=0 radius of the zero-detuning shell: hbar*omega/(g_F mu_B B_q), at
    the dressing frequency ``omega`` (by default ``cfg.rf.omega``; an array
    gives one radius per frequency)."""
    omega = cfg.rf.omega if omega is None else omega
    return HBAR * omega / (cfg.atom.g_F * MU_B * cfg.gradient)


def _coordinates(r):
    """x, y and z of an (..., 3) array or of a tuple of three arrays."""
    if isinstance(r, tuple):
        x, y, z = r
        return np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(z, dtype=float)
    r = np.asarray(r, dtype=float)
    return r[..., 0], r[..., 1], r[..., 2]


def _views(work, rows, *operands):
    """The workspace's ``rows``, each viewed in the broadcast shape of the
    ``operands`` (0-d for one point, never a numpy scalar); without a
    workspace None each, so that numpy allocates a fresh temporary."""
    if work is None:
        return (None,) * len(rows)
    shape = np.broadcast(*operands).shape
    size = math.prod(shape)
    return tuple(work[i][:size].reshape(shape) for i in rows)


def _select(mask, a, b, out):
    """np.where(mask, a, b): a fresh result, or written into ``out``, which
    may hold ``b`` already."""
    if out is None:
        return np.where(mask, a, b)
    np.copyto(out, b)
    np.copyto(out, a, where=mask)
    return out


def yz_planes(y, z, cfg: TrapConfig, work=None) -> tuple:
    """The kernel's first stage: the five terms of (y, z) alone,
    ``(y, w, S, T, U)``, where w = -2z, S = y^2 + w^2, T = y a'_y + w a'_z
    and U = y b'_z - w b'_y.

    Given a buffer of ``PLANE_ROWS`` rows, they are its rows 1-5, in the
    broadcast shape of ``y`` and ``z`` (y copied into its row), and row 0 is
    scratch; without one, y is itself the first plane. Pass them to every
    :func:`dressed_potential` call whose points share these y and z."""
    tmp, *planes = _views(work, range(PLANE_ROWS), y, z)
    y_row, w_row, s_row, t_row, u_row = planes
    _, ay, az, by, bz = cfg.coupling_parts
    if y_row is not None:
        np.copyto(y_row, y)
        y = y_row
    # a coordinate hundreds of decades below another underflows in the
    # squares and products of its part, to a 0 that changes nothing
    with np.errstate(under="ignore"):
        w = np.multiply(z, -2.0, w_row)
        return (
            y, w,
            np.add(np.multiply(y, y, s_row), np.multiply(w, w, tmp), s_row),
            np.add(np.multiply(y, ay, t_row), np.multiply(w, az, tmp), t_row),
            np.subtract(np.multiply(y, bz, u_row), np.multiply(w, by, tmp), u_row),
        )


def _second_stage(x, planes, cfg: TrapConfig, work, larmor_out=None):
    """(omega_0, |Omega|^2, tiny) at the points of x and of the (y, z)
    ``planes``: the kernel's second stage, under the caller's
    ``np.errstate``. ``tiny`` is None, or the mask of the points whose R is
    below ``_TINY``, where R is taken as 1 and |Omega|^2 is not yet that of
    the point. omega_0 is formed in ``larmor_out`` where that is given.

    Each step is one numpy ufunc call whose ``out`` is a workspace row, or
    None without a workspace: one path for any number of points. The
    temporaries are updated in place, never the inputs or the planes. The
    components of u are formed with their signs flipped, which IEEE
    arithmetic does exactly, and are only ever squared.
    """
    y, w, s_yz, t_yz, u_yz = planes
    (x_row,) = _views(work, (0,), x)
    rad_row, m_row, sum_row, uy_row = _views(work, range(1, 1 + STAGE_ROWS), x, s_yz)
    ax, ay, az, by, bz = cfg.coupling_parts
    rad = np.sqrt(np.add(np.multiply(x, x, x_row), s_yz, rad_row), rad_row)
    larmor = np.multiply(rad, cfg.larmor_slope, larmor_out)
    tiny = None
    if rad.size and rad.min() < _TINY:
        tiny = rad < _TINY
        rad = _select(tiny, 1.0, rad, rad_row)
    s = np.divide(1.0, rad, rad_row)
    m = np.add(np.multiply(x, ax, x_row), t_yz, m_row)
    m *= s
    total = np.multiply(m, x, sum_row)
    total -= u_yz
    total *= s
    total -= ax
    total *= total
    part = np.multiply(m, y, uy_row)
    part += np.multiply(x, bz, x_row)
    part *= s
    part -= ay
    part *= part
    total += part
    m *= w  # m is not needed again
    m -= np.multiply(x, by, x_row)
    m *= s
    m -= az
    m *= m
    total += m
    return larmor, total, tiny


def _rescued_coupling(x, y, z, cfg: TrapConfig):
    """|Omega|^2 at points (1-D coordinates) whose R is below ``_TINY``: both
    stages on the coordinates times ``_RESCALE``, exact, which leaves the
    field direction as it is; the centre, whose R is still 0, takes
    C^2 (B_x^2 + B_y^2)."""
    x, y, z = (c * _RESCALE for c in (x, y, z))
    _, om2, centre = _second_stage(x, yz_planes(y, z, cfg), cfg, None)
    if centre is not None:
        rf = cfg.rf
        om2[centre] = cfg.coupling_prefactor**2 * (rf.b_x**2 + rf.b_y**2)
    return om2


def _larmor_and_rabi_squared(r, cfg: TrapConfig, work=None, planes=None, larmor_out=None):
    """(omega_0, |Omega|^2) at the positions ``r`` in either form: both
    stages of the kernel, or only the second on the given ``planes`` of r's
    y and z (:func:`yz_planes`). Given a workspace, |Omega|^2 is a view of
    it; omega_0 is ``larmor_out`` where that is given. Only a call on points
    with R below ``_TINY``, the centre among them, forms the coupling of
    those points again (``_rescued_coupling``): in a grid fill, the block
    that holds the centre.

    The results are bit for bit the same with or without a workspace, and
    for the planes of any call whose points share y and z.
    """
    x, y, z = _coordinates(r)
    with np.errstate(under="ignore"):
        if planes is None:
            planes = yz_planes(y, z, cfg, None if work is None else work[-PLANE_ROWS:])
        larmor, om2, tiny = _second_stage(x, planes, cfg, work, larmor_out)
        if tiny is not None:
            om2 = np.asarray(om2)
            om2[tiny] = _rescued_coupling(
                *(np.broadcast_to(c, tiny.shape)[tiny] for c in (x, y, z)), cfg
            )
    return larmor, om2


def rabi_squared(r, cfg: TrapConfig):
    """Squared Rabi coupling |Omega|^2 [(rad/s)^2] at position(s) ``r``."""
    return _larmor_and_rabi_squared(r, cfg)[1]


def rabi_frequency(r, cfg: TrapConfig):
    """|Omega| [rad/s], the square root of :func:`rabi_squared`."""
    return np.sqrt(rabi_squared(r, cfg))


def dressed_potential(r, cfg: TrapConfig, work=None, out=None, planes=None):
    """Adiabatic potential V [J] at position(s) ``r``.

    ``r`` is an (..., 3) array of positions, or a tuple ``(x, y, z)`` of
    coordinate arrays that broadcast together, such as the axes that
    ``np.meshgrid(..., sparse=True)`` returns; V has their broadcast shape.
    Both forms give the same bits for the same positions.

    ``work``, ``WORKSPACE_ROWS`` rows with room for the points each, holds
    every other temporary of the call; ``out``, an array of the points'
    shape, receives omega_0, which becomes delta^2 and then V in place.
    Given both, the call allocates nothing the size of the points.
    ``planes``, from :func:`yz_planes` on the y and z of ``r``, skips the
    kernel's first stage: a grid fill forms them once for all its blocks,
    and its workspace then needs rows 0-4 only. Either way V has the same
    bits.
    """
    larmor, om2 = _larmor_and_rabi_squared(r, cfg, work, planes, out)
    larmor -= cfg.rf.omega  # -delta, only ever squared
    larmor *= larmor
    larmor += om2
    del om2  # one chunk-sized array fewer alive through the sqrt
    v = np.sqrt(larmor, out=out)
    v *= cfg.atom.m_F * HBAR
    if cfg.gravity_on:
        y = _coordinates(r)[1]
        (row,) = _views(work, (4,), y)
        v += np.multiply(cfg.atom.mass * G_ACCEL, y, row)
    return v


def _check_fd_step(h: float):
    if not h > 0:
        raise ValueError("finite-difference step must be positive")
    if h < MIN_FD_STEP:
        raise ValueError(f"finite-difference step underflow: h={h} < {MIN_FD_STEP}")


def potential_hessian(r, cfg: TrapConfig, h: float = 1e-7):
    """Central-difference Hessian of V [J/m^2], symmetrised as (H+H^T)/2.

    The 19-point stencil (centre, r +- 2h e_i, r +- h e_i +- h e_j) is
    evaluated in one kernel call.
    """
    r = np.asarray(r, dtype=float)
    _check_fd_step(h)
    e = h * np.eye(3)
    i, j = np.triu_indices(3, 1)
    plus, minus = r + e[i], r - e[i]
    pts = np.concatenate(
        [r[None, :], r + 2 * e, r - 2 * e,
         plus + e[j], plus - e[j], minus + e[j], minus - e[j]]
    )
    v = dressed_potential(pts, cfg)
    v0, (vp, vm, vpp, vpm, vmp, vmm) = v[0], v[1:].reshape(6, 3)
    hess = np.diag((vp - 2.0 * v0 + vm) / (4.0 * h * h))
    hess[i, j] = hess[j, i] = (vpp - vpm - vmp + vmm) / (4.0 * h * h)
    return 0.5 * (hess + hess.T)
