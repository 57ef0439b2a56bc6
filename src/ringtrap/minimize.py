"""Local minimisation of the dressed potential.

The potential develops conical (cusp-like) valleys wherever the rf coupling
closes, so the box search's engine is a derivative-free compass pattern
search. ``staged_search`` runs it in two stages on any space of search
states that maps onto 3-D positions: to a coarse mesh first; where the
coupling is open (|Omega| > 0.01 omega) there a damped Newton polish in 3-D
takes over, and only when that does not end at a stationary point does the
search continue to its fine mesh. ``find_minimum`` searches positions in an
optional box (``_box_moves``). ``polished_result``, the end of every search
and of ``analysis.shell_minimum``, polishes a smooth end point in 3-D and
tests it for stationarity.
"""

from __future__ import annotations

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
    ``bounds`` when given: ``moves(x, step)`` -> the (6, 3) candidates."""
    axes = np.vstack([np.eye(3), -np.eye(3)])
    if bounds is None:
        return lambda x, step: x + step * axes
    return lambda x, step: np.clip(x + step * axes, bounds[0], bounds[1])


def _compass(f, moves, x, fx, step, it, evals, min_step, max_iter):
    """Compass iterations from ``x`` (value ``fx``) on a mesh of ``step``
    until the mesh is at most ``min_step``: each evaluates the moves in one
    call of ``f``, takes the best if it improves and halves the mesh if not.
    The counts ``it`` and ``evals`` carry on, so a continued search obeys the
    same cap. Returns ``(x, fx, iterations, evals, hit_cap)``."""
    while step > min_step:
        it += 1
        if it > max_iter:
            return x, fx, it, evals, True
        cands = moves(x, step)
        vals = f(cands)
        evals += len(cands)
        k = int(np.argmin(vals))
        if vals[k] < fx:
            x, fx = cands[k].copy(), float(vals[k])
        else:
            step *= 0.5
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
    max_iter: int = 10_000,
) -> MinimizationResult:
    """Two-stage compass search of the batched objective ``f`` over search
    states ``x`` that ``point(x)`` maps to 3-D positions; ``f(x)`` must be V
    at ``point(x)``.

    The search runs ``moves`` from ``x0`` on a mesh of ``step0`` and stops
    first after ``COARSE_MESH_HALVINGS`` halvings. Where the coupling is open
    there (|Omega| > 0.01 omega), a 3-D Newton polish from its point aims the
    central-difference gradient below ``1e-8 * m * g``; its point is the
    result if it gets there, off the faces of ``bounds`` and no higher than
    the coarse iterate. Otherwise the search continues to ``min_step`` and
    ends in ``polished_result``. At coupling-closed cusp minima the
    potential is conical and the gradient criterion is unattainable, so
    convergence there is by mesh size alone (``smooth=False`` flags it).
    ``iterations``, ``f_evals`` and ``max_iter`` count the compass search of
    both stages, not the polish.

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
        f, moves, x, fx, step0, 0, 1, coarse_step, max_iter
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
            f, moves, x, fx, coarse_step, it, evals, min_step, max_iter
        )
    if hit_cap:
        raise capped_search(
            f"pattern search exceeded {max_iter} iterations", point(x), fx, it, evals
        )
    return polished_result(cfg, point(x), fx, it, evals, bounds)


def capped_search(message, r, value, iterations, f_evals) -> ConvergenceError:
    """The error of a search stopped by its iteration cap at ``r``, its best
    point so far, of value ``value``: the point rides on it as ``best``."""
    return ConvergenceError(message, best=MinimizationResult(
        position=r, value=value, converged=False, stationary=False,
        smooth=False, grad_norm=None, iterations=iterations, f_evals=f_evals,
    ))


def polished_result(
    cfg: TrapConfig, r, value, iterations, f_evals, bounds=None
) -> MinimizationResult:
    """The converged result of a search that ended at ``r``, of value
    ``value``. Where the coupling is open (|Omega| > 0.01 omega), a 3-D
    Newton polish, clipped to ``bounds`` when given, aims the
    central-difference gradient below ``1e-8 * m * g`` and the value is V at
    its point; at a coupling-closed cusp the point and value stay, and the
    gradient is only measured. ``stationary`` says whether the gradient is
    below that target."""
    grad_target = STATIONARY_GRAD_FACTOR * cfg.atom.mass * G_ACCEL
    smooth = rabi_frequency(r, cfg) > SMOOTH_RABI_FRACTION * cfg.rf.omega
    if smooth:
        r, grad_norm = _newton_polish(cfg, r, bounds, grad_target)
        value = float(dressed_potential(r, cfg))
    else:
        grad_norm = float(np.linalg.norm(potential_gradient(r, cfg)))
    return MinimizationResult(
        position=r,
        value=value,
        converged=True,
        stationary=grad_norm < grad_target,
        smooth=bool(smooth),
        grad_norm=grad_norm,
        iterations=iterations,
        f_evals=f_evals,
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
