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

Every function of a position takes it in either of two forms: an (..., 3)
array of positions, or a tuple (x, y, z) of coordinate arrays that broadcast
together, such as the axes ``np.meshgrid(..., sparse=True)`` returns. A grid
block passes its three axis slices this way and builds no positions array.
Both forms run through one kernel and give the same bits for the same
points; the result has the points' shape.

Where the kernel's temporaries live: a call allocates them afresh, whatever
the number of points, unless it is given a workspace
(:func:`kernel_workspace`). It then writes each temporary into a row of that
workspace, viewed in the points' shape, and ``dressed_potential``
writes V into the ``out`` array it is given, so a call allocates nothing the
size of its points. The grid fill passes one workspace to every block.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import G_ACCEL, HBAR, MU_B
from .fields import TrapConfig

#: finite-difference steps below this are rejected as underflow [m]
MIN_FD_STEP = 1e-9

#: temporaries of one kernel call alive at once: the rows of a workspace
WORKSPACE_ROWS = 8


def coupling_prefactor(cfg: TrapConfig) -> float:
    """g_F * mu_B / (2 hbar): Rabi rad/s per tesla of resonant rf amplitude."""
    return cfg.atom.g_F * MU_B / (2.0 * HBAR)


def resonance_radius(cfg: TrapConfig, omega=None):
    """z=0 radius of the zero-detuning shell: hbar*omega/(g_F mu_B B_q), at
    the dressing frequency ``omega`` (by default ``cfg.rf.omega``; an array
    gives one radius per frequency)."""
    omega = cfg.rf.omega if omega is None else omega
    return HBAR * omega / (cfg.atom.g_F * MU_B * cfg.quad.gradient)


def kernel_workspace(points: int) -> np.ndarray:
    """Room for the temporaries of kernel calls on up to ``points`` points:
    ``WORKSPACE_ROWS`` flat float buffers, allocated once and reused by every
    call that is given them."""
    return np.empty((WORKSPACE_ROWS, points))


def _coordinates(r):
    """x, y and z of an (..., 3) array or of a tuple of three arrays."""
    if isinstance(r, tuple):
        return tuple(np.asarray(c, dtype=float) for c in r)
    r = np.asarray(r, dtype=float)
    return r[..., 0], r[..., 1], r[..., 2]


def _row(work, i, *operands):
    """Row ``i`` of the workspace, viewed in the operands' broadcast shape."""
    shape = np.broadcast(*operands).shape
    return work[i, :math.prod(shape)].reshape(shape)


#: the outputs of :func:`_rows` without a workspace: every temporary is fresh
_FRESH = ((None,) * WORKSPACE_ROWS, (None,) * 5)


def _rows(work, x, y, z):
    """The outputs of one kernel call's temporaries on the coordinates x, y
    and z: the workspace's rows, each viewed once in the points' shape (0-d
    for one point, never a numpy scalar), then rows 0, 3, 4, 5 and 3 in the
    shapes of -2 z, x^2, y^2, x^2 + y^2 and 4 z^2, which coordinates given
    as a tuple may make smaller."""
    shape = np.broadcast(x, y, z).shape
    size = math.prod(shape)
    return (
        tuple(row[:size].reshape(shape) for row in work),
        (_row(work, 0, z), _row(work, 3, x), _row(work, 4, y), _row(work, 5, x, y),
         _row(work, 3, z)),
    )


def _select(mask, a, b, out):
    """np.where(mask, a, b): a fresh result, or written into ``out``, which
    may hold ``b`` already."""
    if out is None:
        return np.where(mask, a, b)
    np.copyto(out, b)
    np.copyto(out, a, where=mask)
    return out


def _larmor_and_rabi_squared(r, cfg: TrapConfig, work=None):
    """(omega_0, |Omega|^2) at the positions ``r`` in either form, with R and
    n computed once.

    Each step is one numpy ufunc call whose ``out`` is a workspace row, or
    None without a workspace, so that numpy allocates a fresh temporary: one
    path for any number of points. Given a workspace, the two results are
    views of it. The rows are viewed in the points' shape
    once per call (``_rows``); only the first few temporaries, of the
    coordinates alone, take a row in their own shape. The rows hold: 0 w;
    1 R, then 1/R, n_z and u_z; 2 omega_0; 3 n_x; 4 n_y, then u_y; 5 n.a;
    6 each term added into n.a and u; 7 u_x, then |Omega|^2. Before n is
    formed, rows 3-7 hold the partial sums of R^2 and the rescued
    coordinates. Only a call on points with R below 2^-500 m, the centre
    among them, takes the rescue, the centre's mask and the two selections:
    in a grid fill, the block that holds the centre.

    The temporaries are updated in place, never the inputs. The components of
    u are computed with their signs flipped, which IEEE arithmetic does
    exactly, and are only ever squared, so the results are bit for bit those
    of the out-of-place expressions, with or without a workspace.
    """
    x, y, z = _coordinates(r)
    rows, small = _FRESH if work is None else _rows(work, x, y, z)
    w_row, xx_row, yy_row, sum_row, ww_row = small
    rf = cfg.rf
    ax, ay, az, by, bz = rf.amplitude_parts
    # a coordinate hundreds of decades below another underflows in the
    # squares and products of its part, to a 0 that changes nothing
    with np.errstate(under="ignore"):
        w = np.multiply(-2.0, z, w_row)
        rad = np.add(np.multiply(x, x, xx_row), np.multiply(y, y, yy_row), sum_row)
        rad = np.sqrt(np.add(rad, np.multiply(w, w, ww_row), rows[1]), rows[1])
        larmor = np.multiply(cfg.atom.g_F * MU_B * cfg.quad.gradient, rad, rows[2])
        larmor /= HBAR
        tiny = 2.0**-500
        centre = None
        if rad.size and rad.min() < tiny:
            # below ~1e-151 m the squares lose precision, and below ~1e-154 m R
            # underflows to 0; scaling by a power of two is exact, so such a
            # point keeps its own direction (and the centre stays at 0)
            scale = _select(rad < tiny, 2.0**600, 1.0, rows[3])
            x, y = np.multiply(x, scale, rows[5]), np.multiply(y, scale, rows[6])
            w = np.multiply(w, scale, rows[7])
            rad = np.add(np.multiply(x, x, rows[3]), np.multiply(y, y, rows[4]), rows[3])
            rad = np.sqrt(np.add(rad, np.multiply(w, w, rows[4]), rows[1]), rows[1])
            centre = rad == 0.0
            rad = _select(centre, 1.0, rad, rows[1])
        inv = np.divide(1.0, rad, rows[1])
        nx, ny = np.multiply(x, inv, rows[3]), np.multiply(y, inv, rows[4])
        inv *= w  # 1/R is not needed again
        nz = inv
        na = np.multiply(nx, ax, rows[5])
        na += np.multiply(ny, ay, rows[6])
        na += np.multiply(nz, az, rows[6])
        # minus the components of a - (n.a) n + n x b, with b = (0, by, bz)
        ux = np.multiply(na, nx, rows[7])
        ux -= ax
        ux -= np.multiply(ny, bz, rows[6])
        ux += np.multiply(nz, by, rows[6])
        uy = np.multiply(na, ny, rows[4])  # n_y is not needed again
        uy -= ay
        uy += np.multiply(nx, bz, rows[6])
        uz = np.multiply(na, nz, rows[1])  # nor n_z
        uz -= az
        uz -= np.multiply(nx, by, rows[6])
        ux *= ux
        uy *= uy
        ux += uy
        uz *= uz
        ux += uz
        if centre is not None:
            ux = _select(centre, rf.b_x**2 + rf.b_y**2, ux, rows[7])
        pref = coupling_prefactor(cfg)
        return larmor, np.multiply(pref * pref, ux, rows[7])


def larmor_frequency(r, cfg: TrapConfig):
    """Local Larmor frequency omega_0 [rad/s]; zero at the trap centre."""
    return _larmor_and_rabi_squared(r, cfg)[0]


def detuning(r, cfg: TrapConfig):
    """delta = omega - omega_0(r): positive inside the resonance shell."""
    return cfg.rf.omega - larmor_frequency(r, cfg)


def rabi_squared(r, cfg: TrapConfig):
    """Squared Rabi coupling |Omega|^2 [(rad/s)^2] at position(s) ``r``."""
    return _larmor_and_rabi_squared(r, cfg)[1]


def rabi_frequency(r, cfg: TrapConfig):
    """|Omega| [rad/s], the square root of :func:`rabi_squared`."""
    return np.sqrt(rabi_squared(r, cfg))


def dressed_potential(r, cfg: TrapConfig, work=None, out=None):
    """Adiabatic potential V [J] at position(s) ``r``.

    ``r`` is an (..., 3) array of positions, or a tuple ``(x, y, z)`` of
    coordinate arrays that broadcast together, such as the axes that
    ``np.meshgrid(..., sparse=True)`` returns; V has their broadcast shape.
    Both forms give the same bits for the same positions.

    ``work``, from :func:`kernel_workspace` with room for the points, holds
    every temporary of the call; ``out``, an array of the points' shape,
    receives V. Given both, the call allocates nothing the size of the
    points. Either way V has the same bits.
    """
    larmor, om2 = _larmor_and_rabi_squared(r, cfg, work)
    larmor -= cfg.rf.omega  # -delta, only ever squared
    larmor *= larmor
    larmor += om2
    del om2  # one chunk-sized array fewer alive through the sqrt
    v = np.sqrt(larmor, out=out)
    v *= cfg.atom.m_F * HBAR
    if cfg.gravity_on:
        y = _coordinates(r)[1]
        v += np.multiply(cfg.atom.mass * G_ACCEL, y, None if work is None else _row(work, 3, y))
    return v


def _check_fd_step(h: float):
    if not h > 0:
        raise ValueError("finite-difference step must be positive")
    if h < MIN_FD_STEP:
        raise ValueError(f"finite-difference step underflow: h={h} < {MIN_FD_STEP}")


def potential_gradient(r, cfg: TrapConfig, h: float = 1e-7):
    """Central-difference gradient of V [J/m], O(h^2) accurate; one kernel call."""
    r = np.asarray(r, dtype=float)
    _check_fd_step(h)
    steps = h * np.eye(3)
    v = dressed_potential(np.concatenate([r + steps, r - steps]), cfg)
    return (v[:3] - v[3:]) / (2.0 * h)


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
