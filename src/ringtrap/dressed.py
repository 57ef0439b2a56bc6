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

Only the trap centre R = 0 has no field direction; there the coupling is
taken as C^2 (B_x^2 + B_y^2), the average of the two axial limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import G_ACCEL, HBAR, MU_B
from .fields import TrapConfig

#: finite-difference steps below this are rejected as underflow [m]
MIN_FD_STEP = 1e-9


def coupling_prefactor(cfg: TrapConfig) -> float:
    """g_F * mu_B / (2 hbar): Rabi rad/s per tesla of resonant rf amplitude."""
    return cfg.atom.g_F * MU_B / (2.0 * HBAR)


def resonance_radius(cfg: TrapConfig) -> float:
    """z=0 radius of the zero-detuning shell: hbar*omega/(g_F mu_B B_q)."""
    return HBAR * cfg.rf.omega / (cfg.atom.g_F * MU_B * cfg.quad.gradient)


def _larmor_and_rabi_squared(r, cfg: TrapConfig):
    """(omega_0, |Omega|^2) at ``r`` (..., 3), with R and n computed once."""
    r = np.asarray(r, dtype=float)
    rf = cfg.rf
    ax, ay, az = rf.b_x, rf.b_y * np.cos(rf.alpha), rf.b_z * np.cos(rf.beta)
    by, bz = rf.b_y * np.sin(rf.alpha), rf.b_z * np.sin(rf.beta)
    x, y, w = r[..., 0], r[..., 1], -2.0 * r[..., 2]
    rad = np.sqrt(x * x + y * y + w * w)
    larmor = cfg.atom.g_F * MU_B * cfg.quad.gradient * rad / HBAR
    centre = rad == 0.0
    inv = 1.0 / np.where(centre, 1.0, rad)
    nx, ny, nz = x * inv, y * inv, w * inv
    na = nx * ax + ny * ay + nz * az
    # components of a - (n.a) n + n x b, with b = (0, by, bz)
    ux = ax - na * nx + ny * bz - nz * by
    uy = ay - na * ny - nx * bz
    uz = az - na * nz + nx * by
    t = np.where(centre, rf.b_x**2 + rf.b_y**2, ux * ux + uy * uy + uz * uz)
    pref = coupling_prefactor(cfg)
    return larmor, (pref * pref) * t


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


def dressed_potential(r, cfg: TrapConfig):
    """Adiabatic potential V [J] at position(s) ``r`` of shape (..., 3)."""
    r = np.asarray(r, dtype=float)
    larmor, om2 = _larmor_and_rabi_squared(r, cfg)
    delta = cfg.rf.omega - larmor
    del larmor  # one chunk-sized array fewer alive through the sqrt
    v = cfg.atom.m_F * HBAR * np.sqrt(delta * delta + om2)
    if cfg.gravity_on:
        v = v + cfg.atom.mass * G_ACCEL * r[..., 1]
    return v


@dataclass(frozen=True)
class PotentialSample:
    """One evaluation of the dressed potential and its ingredients."""

    position: tuple
    larmor: float
    detuning: float
    rabi: float
    potential: float


def sample_point(r, cfg: TrapConfig) -> PotentialSample:
    """Evaluate V and its ingredients at a single position."""
    r = np.asarray(r, dtype=float)
    w0 = float(larmor_frequency(r, cfg))
    return PotentialSample(
        position=tuple(float(c) for c in r),
        larmor=w0,
        detuning=cfg.rf.omega - w0,
        rabi=float(rabi_frequency(r, cfg)),
        potential=float(dressed_potential(r, cfg)),
    )


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
