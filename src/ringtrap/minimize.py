"""Local minimisation of the dressed potential.

The potential develops conical (cusp-like) valleys wherever the rf coupling
closes, so the primary engine is a derivative-free compass pattern search.
``staged_search`` runs it in two stages on any space of search states that
maps onto 3-D positions: to a coarse mesh first; where the coupling is open
(|Omega| > 0.01 omega) there a damped Newton polish in 3-D takes over, and
only when that does not end at a stationary point does the search continue
to its fine mesh. ``find_minimum`` searches positions in an optional box
(``_box_moves``); ``analysis.shell_minimum`` searches field directions on the
unit sphere (``sphere_moves``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import G_ACCEL
from .dressed import (
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

#: the coarse stage stops after this many halvings of the starting mesh: for
#: ``find_minimum``'s resonance_radius / 20, at (r0 / 20) / 2**9 ~ 1e-4 r0
COARSE_MESH_HALVINGS = 9

@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of a local potential minimisation."""

    position: np.ndarray
    value: float
    # Newton reached stationarity from the coarse mesh, or the mesh shrank to
    # its fine step
    converged: bool
    stationary: bool  # gradient norm below 1e-8 * m * g
    smooth: bool  # coupling open at the minimum; harmonic analysis valid
    grad_norm: float | None
    iterations: int
    f_evals: int


def _box_moves(bounds):
    """Compass moves of one mesh step along +-x, +-y, +-z, clipped to
    ``bounds`` when given: ``moves(x, step)`` -> (..., 6, 3) candidates for
    each ``step`` of shape (...,) + (1, 1)."""
    axes = np.vstack([np.eye(3), -np.eye(3)])
    if bounds is None:
        return lambda x, step: x + step * axes
    return lambda x, step: np.clip(x + step * axes, bounds[0], bounds[1])


def sphere_moves(n, step):
    """Compass moves from the unit vector ``n`` along +-t1, +-t2 of a tangent
    frame at ``n``, renormalised: (..., 4, 3) unit candidates at an angle of
    atan(step) rad for each ``step`` of shape (...,) + (1, 1). The frame is
    built at each point, from the axis least aligned with ``n``, so no chart
    and no pole enters the search."""
    k = np.argmin(np.abs(n))
    t1 = -n[k] * n
    t1[k] += 1.0  # that axis, made tangent
    t1 /= math.sqrt(t1 @ t1)
    (x, y, z), (a, b, c) = n.tolist(), t1.tolist()
    t2 = np.array([y * c - z * b, z * a - x * c, x * b - y * a])  # n x t1
    # every move is orthogonal to n and of length step
    return (n + step * np.array([t1, t2, -t1, -t2])) / np.hypot(1.0, step)


def _compass(f, moves, x, fx, step, it, evals, min_step, max_iter, levels=1):
    """Compass iterations from ``x`` (value ``fx``) on a mesh of ``step``
    until the mesh is at most ``min_step``. The counts ``it`` and ``evals``
    carry on, so a continued search obeys the same cap. Returns
    ``(x, fx, iterations, evals, hit_cap)``.

    An iteration evaluates the moves on up to ``levels`` meshes, step,
    step / 2, ..., those above ``min_step``, in one call of ``f`` and takes
    the first mesh with an improving move. A failed mesh leaves ``x`` where
    it is, so the path is the one-mesh path, in fewer iterations."""
    while step > min_step:
        it += 1
        if it > max_iter:
            return x, fx, it, evals, True
        meshes = [step]
        while len(meshes) < levels and 0.5 * meshes[-1] > min_step:
            meshes.append(0.5 * meshes[-1])
        cands = moves(x, np.array(meshes)[:, None, None]).reshape(-1, len(x))
        vals = f(cands)
        evals += len(cands)
        per = len(cands) // len(meshes)
        for j, mesh in enumerate(meshes):
            k = j * per + int(np.argmin(vals[j * per:(j + 1) * per]))
            if vals[k] < fx:
                x, fx, step = cands[k].copy(), float(vals[k]), mesh
                break
        else:
            step = 0.5 * meshes[-1]
    return x, fx, it, evals, False


def _newton_polish(cfg, x, bounds, grad_target, max_steps=12):
    """Damped Newton refinement; accepts steps that shrink the gradient."""
    g = potential_gradient(x, cfg)
    gn = float(np.linalg.norm(g))
    for _ in range(max_steps):
        if gn < grad_target:
            break
        try:
            hess = potential_hessian(x, cfg)
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
            g_new = potential_gradient(cand, cfg)
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


def staged_search(
    cfg: TrapConfig, f, moves, x0, step0, min_step, point, bounds=None,
    max_iter: int = 10_000, levels: int = 1,
) -> MinimizationResult:
    """Two-stage compass search of the batched objective ``f`` over search
    states ``x`` that ``point(x)`` maps to 3-D positions; ``f(x)`` must be V
    at ``point(x)``.

    The search runs ``moves`` from ``x0`` on a mesh of ``step0`` and stops
    first after ``COARSE_MESH_HALVINGS`` halvings. Where the coupling is open
    there (|Omega| > 0.01 omega), a 3-D Newton polish from its point aims the
    central-difference gradient below ``1e-8 * m * g``; its point is the
    result if it gets there, off the faces of ``bounds`` and no higher than
    the coarse iterate. Otherwise the search continues to ``min_step`` and is
    polished where the coupling is open. At coupling-closed cusp minima the
    potential is conical and the gradient criterion is unattainable, so
    convergence there is by mesh size alone (``smooth=False`` flags it).
    ``iterations``, ``f_evals`` and ``max_iter`` count the compass search of
    both stages, not the polish; ``levels`` meshes are evaluated per
    iteration (``_compass``), which moves the counts and not the path.

    Raises
    ------
    ConvergenceError
        Iteration cap exceeded; the best iterate rides on the exception.
    """
    grad_target = STATIONARY_GRAD_FACTOR * cfg.atom.mass * G_ACCEL
    open_coupling = lambda r: rabi_frequency(r, cfg) > SMOOTH_RABI_FRACTION * cfg.rf.omega

    x = x0
    fx = float(f(x[None, :])[0])
    # halving is exact, so an uncapped coarse search ends on this very mesh
    # (or, when clamped, at or below min_step, where the fine stage has
    # nothing left to do)
    coarse_step = max(step0 / 2**COARSE_MESH_HALVINGS, min_step)
    x, fx, it, evals, hit_cap = _compass(
        f, moves, x, fx, step0, 0, 1, coarse_step, max_iter, levels
    )
    if not hit_cap and open_coupling(point(x)):
        rn, grad_norm = _newton_polish(cfg, point(x), bounds, grad_target)
        if grad_norm < grad_target and not on_box_face(rn, bounds):
            fn = float(dressed_potential(rn, cfg))
            if fn <= fx:
                return MinimizationResult(
                    position=rn, value=fn, converged=True, stationary=True,
                    smooth=True, grad_norm=grad_norm, iterations=it, f_evals=evals,
                )
    if not hit_cap:
        x, fx, it, evals, hit_cap = _compass(
            f, moves, x, fx, coarse_step, it, evals, min_step, max_iter, levels
        )
    r = point(x)
    if hit_cap:
        raise ConvergenceError(
            f"pattern search exceeded {max_iter} iterations",
            best=MinimizationResult(
                position=r, value=fx, converged=False, stationary=False,
                smooth=False, grad_norm=None, iterations=it, f_evals=evals,
            ),
        )

    smooth = open_coupling(r)
    if smooth:
        r, grad_norm = _newton_polish(cfg, r, bounds, grad_target)
        fx = float(dressed_potential(r, cfg))
    else:
        grad_norm = float(np.linalg.norm(potential_gradient(r, cfg)))

    stationary = grad_norm < grad_target
    return MinimizationResult(
        position=r,
        value=fx,
        converged=True,
        stationary=stationary,
        smooth=bool(smooth),
        grad_norm=grad_norm,
        iterations=it,
        f_evals=evals,
    )


def find_minimum(
    cfg: TrapConfig,
    start,
    bounds=None,
    max_iter: int = 10_000,
) -> MinimizationResult:
    """Locate a local minimum of the dressed potential near ``start``.

    ``staged_search`` over positions, in ``bounds`` when given: the compass
    steps along +-x, +-y, +-z from a mesh of a twentieth of the resonance
    radius, which spans the valley comfortably, down to ``MIN_MESH_STEP``,
    with the Newton exit at (r0 / 20) / 2**9 ~ 1e-4 r0. The polish and the
    stationarity test take ``potential_gradient`` and ``potential_hessian``
    with their own finite-difference step. Raises what ``staged_search``
    raises.
    """
    x = np.asarray(start, dtype=float).copy()
    if bounds is not None:
        bounds = tuple(np.asarray(b, dtype=float) for b in bounds)
        x = np.clip(x, bounds[0], bounds[1])
    return staged_search(
        cfg, lambda r: dressed_potential(r, cfg), _box_moves(bounds), x,
        resonance_radius(cfg) / 20.0, MIN_MESH_STEP, lambda r: r, bounds, max_iter,
    )
