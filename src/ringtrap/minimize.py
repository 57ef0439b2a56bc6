"""Local minimisation of the dressed potential.

The potential develops conical (cusp-like) valleys wherever the rf coupling
closes, so the primary engine is a derivative-free compass pattern search.
It runs to a coarse mesh (~1e-4 of the resonance radius) first; where the
coupling is open (|Omega| > 0.01 omega) a damped Newton polish takes over
from there, and only when that does not end at a stationary point inside
the box does the search continue to ``MIN_MESH_STEP`` (``find_minimum``).
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

#: the coarse stage stops after this many halvings of the starting mesh of
#: resonance_radius / 20, at (r0 / 20) / 2**9 ~ 1e-4 r0
COARSE_MESH_HALVINGS = 9


@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of a local potential minimisation."""

    position: np.ndarray
    value: float
    # Newton reached stationarity from the coarse mesh, or the mesh shrank to
    # MIN_MESH_STEP
    converged: bool
    stationary: bool  # gradient norm below 1e-8 * m * g
    smooth: bool  # coupling open at the minimum; harmonic analysis valid
    grad_norm: float | None
    iterations: int
    f_evals: int


def _compass(f, x, fx, step, it, evals, min_step, bounds, max_iter):
    """Compass iterations from ``x`` (value ``fx``) on a mesh of ``step``
    until the mesh is at most ``min_step``. The counts ``it`` and ``evals``
    carry on, so a continued search obeys the same cap. Returns
    ``(x, fx, iterations, evals, hit_cap)``."""
    directions = np.vstack([np.eye(3), -np.eye(3)])
    while step > min_step:
        it += 1
        if it > max_iter:
            return x, fx, it, evals, True
        cands = x + step * directions
        if bounds is not None:
            cands = np.clip(cands, bounds[0], bounds[1])
        vals = f(cands)
        evals += len(cands)
        k = int(np.argmin(vals))
        if vals[k] < fx:
            x, fx = cands[k].copy(), float(vals[k])
        else:
            step *= 0.5
    return x, fx, it, evals, False


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
        bounds = tuple(np.asarray(b, dtype=float) for b in bounds)
        x = np.clip(x, bounds[0], bounds[1])
    fx = float(f(x[None, :])[0])
    return _compass(f, x, fx, float(step0), 0, 1, min_step, bounds, max_iter)


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


def on_box_face(x, bounds) -> bool:
    """Whether ``x`` lies on a face of ``bounds``. The search and the polish
    clip to the box, so a point on a face is an exact match with a bound."""
    return bounds is not None and bool(np.any((x == bounds[0]) | (x == bounds[1])))


def find_minimum(
    cfg: TrapConfig,
    start,
    bounds=None,
    max_iter: int = 10_000,
    h: float = 1e-7,
) -> MinimizationResult:
    """Locate a local minimum of the dressed potential near ``start``.

    The pattern search starts from a mesh of a twentieth of the resonance
    radius, which spans the valley comfortably, and stops first after
    ``COARSE_MESH_HALVINGS`` halvings (~1e-4 r0). Where the coupling is open
    there (|Omega| > 0.01 omega), a Newton polish aims the central-difference
    gradient below ``1e-8 * m * g``; its point is the result if it gets
    there, off the faces of ``bounds`` and no higher than the coarse iterate.
    Otherwise the search continues to ``MIN_MESH_STEP`` and is polished
    where the coupling is open. At coupling-closed cusp minima the potential
    is conical and the gradient criterion is unattainable, so convergence
    there is by mesh size alone (``smooth=False`` flags it).
    ``iterations``, ``f_evals`` and ``max_iter`` count the compass search of
    both stages, not the polish.

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
    grad_target = STATIONARY_GRAD_FACTOR * cfg.atom.mass * G_ACCEL
    open_coupling = lambda x: rabi_frequency(x, cfg) > SMOOTH_RABI_FRACTION * cfg.rf.omega

    step0 = resonance_radius(cfg) / 20.0
    # halving is exact, so an uncapped coarse search ends on this very mesh
    # (or, when clamped, at or below MIN_MESH_STEP, where the fine stage
    # has nothing left to do)
    coarse_step = max(step0 / 2**COARSE_MESH_HALVINGS, MIN_MESH_STEP)
    x, fx, it, evals, hit_cap = pattern_search(f, start, step0, coarse_step, bounds, max_iter)
    if not hit_cap and open_coupling(x):
        xn, grad_norm = _newton_polish(cfg, x, bounds, h, grad_target)
        if grad_norm < grad_target and not on_box_face(xn, bounds):
            fn = float(f(xn))
            if fn <= fx:
                return MinimizationResult(
                    position=xn, value=fn, converged=True, stationary=True,
                    smooth=True, grad_norm=grad_norm, iterations=it, f_evals=evals,
                )
    if not hit_cap:
        x, fx, it, evals, hit_cap = _compass(
            f, x, fx, coarse_step, it, evals, MIN_MESH_STEP, bounds, max_iter
        )
    if hit_cap:
        raise ConvergenceError(
            f"pattern search exceeded {max_iter} iterations",
            best=MinimizationResult(
                position=x, value=fx, converged=False, stationary=False,
                smooth=False, grad_norm=None, iterations=it, f_evals=evals,
            ),
        )

    smooth = open_coupling(x)
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
