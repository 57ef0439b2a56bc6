"""Local minimisation of the dressed potential.

The potential develops conical (cusp-like) valleys wherever the rf coupling
closes, so the primary engine is a derivative-free compass pattern search;
a damped Newton polish is applied afterwards, but only where the coupling is
strong enough (|Omega| > 0.01 omega) for the potential to be smooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import G_ACCEL
from .dressed import (
    _check_fd_step,
    dressed_potential,
    potential_gradient,
    potential_hessian,
    rabi_frequency,
    resonance_radius,
)
from .errors import ConvergenceError
from .fields import TrapConfig

#: fraction of the dressing frequency below which a point counts as
#: coupling-closed (cusp) and gradient-based polish is skipped
SMOOTH_RABI_FRACTION = 0.01

#: stationarity threshold on the gradient norm, in units of m*g
STATIONARY_GRAD_FACTOR = 1e-8

#: the pattern search stops once its mesh shrinks to this step [m]
MIN_MESH_STEP = 1e-12


@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of a local potential minimisation."""

    position: np.ndarray
    value: float
    converged: bool  # mesh shrunk to MIN_MESH_STEP (or polish reached stationarity)
    stationary: bool  # gradient norm below 1e-8 * m * g
    smooth: bool  # coupling open at the minimum; harmonic analysis valid
    grad_norm: float | None
    iterations: int
    f_evals: int


def pattern_search(f, x0, step0, min_step, bounds=None, max_iter=10_000):
    """Compass search: step along +-x, +-y, +-z; halve the mesh on failure.

    ``f`` is batched: it maps (k, 3) points to (k,) values, and each
    iteration evaluates its six candidates in one call. Returns
    ``(x, fx, iterations, evals, hit_cap)``, where ``evals`` counts points.
    Deterministic: ties are broken by fixed direction order, moves go to the
    best improving neighbour.
    """
    x = np.asarray(x0, dtype=float).copy()
    if bounds is not None:
        lo, hi = (np.asarray(b, dtype=float) for b in bounds)
        x = np.clip(x, lo, hi)
    fx = float(f(x[None, :])[0])
    step = float(step0)
    evals = 1
    directions = np.vstack([np.eye(3), -np.eye(3)])
    it = 0
    while step > min_step:
        it += 1
        if it > max_iter:
            return x, fx, it, evals, True
        cands = x + step * directions
        if bounds is not None:
            cands = np.clip(cands, lo, hi)
        vals = f(cands)
        evals += len(cands)
        k = int(np.argmin(vals))
        if vals[k] < fx:
            x, fx = cands[k].copy(), float(vals[k])
        else:
            step *= 0.5
    return x, fx, it, evals, False


def _newton_polish(cfg, x, bounds, h, grad_target, max_steps=12):
    """Damped Newton refinement; accepts steps that shrink the gradient."""
    g = potential_gradient(x, cfg, h)
    gn = float(np.linalg.norm(g))
    for _ in range(max_steps):
        if gn < grad_target:
            break
        try:
            hess = potential_hessian(x, cfg, h)
            step = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            break
        accepted = False
        for _ in range(8):
            cand = x + step
            if bounds is not None:
                cand = np.clip(cand, bounds[0], bounds[1])
            if np.array_equal(cand, x):  # step vanished or clipped away
                break
            g_new = potential_gradient(cand, cfg, h)
            gn_new = float(np.linalg.norm(g_new))
            if gn_new < gn:
                x, g, gn = cand, g_new, gn_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return x, gn


def find_minimum(
    cfg: TrapConfig,
    start,
    bounds=None,
    max_iter: int = 10_000,
    h: float = 1e-7,
) -> MinimizationResult:
    """Locate a local minimum of the dressed potential near ``start``.

    Pattern search runs first, from a mesh of a twentieth of the resonance
    radius, which spans the valley comfortably; where the coupling is open
    (|Omega| > 0.01 omega) a Newton polish then drives the central-difference
    gradient below ``1e-8 * m * g``. At coupling-closed cusp minima the
    potential is conical and that gradient criterion is unattainable, so
    convergence there is by mesh size alone (``smooth=False`` flags it).

    Raises
    ------
    ConvergenceError
        Iteration cap exceeded; the best iterate rides on the exception.
    ValueError
        ``h`` is not a valid finite-difference step.
    """
    _check_fd_step(h)
    if bounds is not None:
        bounds = tuple(np.asarray(b, dtype=float) for b in bounds)

    f = lambda r: dressed_potential(r, cfg)
    x, fx, it, evals, hit_cap = pattern_search(
        f, start, resonance_radius(cfg) / 20.0, MIN_MESH_STEP, bounds, max_iter
    )
    if hit_cap:
        raise ConvergenceError(
            f"pattern search exceeded {max_iter} iterations",
            best=MinimizationResult(
                position=x, value=fx, converged=False, stationary=False,
                smooth=False, grad_norm=None, iterations=it, f_evals=evals,
            ),
        )

    smooth = rabi_frequency(x, cfg) > SMOOTH_RABI_FRACTION * cfg.rf.omega
    grad_target = STATIONARY_GRAD_FACTOR * cfg.atom.mass * G_ACCEL
    if smooth:
        x, grad_norm = _newton_polish(cfg, x, bounds, h, grad_target)
        fx = float(f(x))
    else:
        grad_norm = float(np.linalg.norm(potential_gradient(x, cfg, h)))

    stationary = grad_norm < grad_target
    return MinimizationResult(
        position=x,
        value=fx,
        converged=True,
        stationary=stationary,
        smooth=bool(smooth),
        grad_norm=grad_norm,
        iterations=it,
        f_evals=evals,
    )
