import numpy as np
import pytest

import ringtrap.minimize
from ringtrap import (
    azimuthal_profile,
    dressed_potential,
    find_minimum,
    potential_gradient,
    rabi_frequency,
    resonance_radius,
)
from ringtrap.constants import G_ACCEL, RB87
from ringtrap.errors import ConvergenceError
from ringtrap.minimize import (
    MIN_MESH_STEP,
    SMOOTH_RABI_FRACTION,
    STATIONARY_GRAD_FACTOR,
    MinimizationResult,
    _newton_polish,
)

from conftest import B07, count_kernel_calls, make_trap, reference_configs


def torus_box(r0, xy=2.0, z=0.45):
    return (np.array([-xy * r0, -xy * r0, -z * r0]), np.array([xy * r0, xy * r0, z * r0]))


def test_gravity_ring_minimum_is_stationary():
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    r0 = resonance_radius(cfg)
    res = find_minimum(cfg, [1e-9, -1.05 * r0, 0.0], bounds=torus_box(r0))
    assert res.converged and res.smooth and res.stationary
    assert res.grad_norm < 1e-8 * RB87.mass * G_ACCEL
    # the minimum sits at the bottom azimuth, displaced toward the weak-coupling pole
    x, y, z = res.position
    assert y < -0.5 * r0 and z > 0.2 * r0
    assert abs(x) < 1e-8 * r0


def test_cusp_well_converges_by_mesh(fig2a):
    r0 = resonance_radius(fig2a)
    res = find_minimum(fig2a, [0.9 * r0, 0.05 * r0, 0.0], bounds=torus_box(r0))
    assert res.converged and not res.smooth
    # the coupling-closed well bottoms out at V = 0 on the x axis
    assert res.value < 1e-4 * RB87.m_F * 1.0546e-34 * fig2a.rf.omega
    assert np.hypot(res.position[0], res.position[1]) == pytest.approx(r0, rel=5e-3)
    assert abs(res.position[2]) < 1e-6


def test_idempotence(fig2a):
    r0 = resonance_radius(fig2a)
    res = find_minimum(fig2a, [0.9 * r0, 0.05 * r0, 0.0], bounds=torus_box(r0))
    res2 = find_minimum(fig2a, res.position, bounds=torus_box(r0))
    assert res2.value <= res.value + 1e-45
    np.testing.assert_allclose(res2.position, res.position, atol=1e-9 * r0)


def test_brute_force_oracle_agreement(fig2c):
    # optimizer minimum vs dense-grid global minimum over the same box
    cfg = make_trap(b_x=B07, b_z=0.2e-4, beta=0.0, gravity=True)
    r0 = resonance_radius(cfg)
    lo, hi = torus_box(r0, xy=1.35, z=0.45)
    n = 81
    ax = [np.linspace(lo[i], hi[i], n) for i in range(3)]
    mesh = np.meshgrid(*ax, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = dressed_potential(pts, cfg)
    k = int(np.argmin(vals))
    res = find_minimum(cfg, pts[k], bounds=(lo, hi))
    # optimizer must do at least as well as the grid, within cell variation
    cell = np.array([a[1] - a[0] for a in ax])
    neighbors = pts[k] + np.vstack([np.diag(cell), -np.diag(cell)])
    neighbors = np.clip(neighbors, lo, hi)
    cell_variation = float(np.max(np.abs(dressed_potential(neighbors, cfg) - vals[k])))
    assert res.value <= vals[k] + 1e-45
    assert vals[k] - res.value <= cell_variation


def test_iteration_cap_raises_with_best():
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    r0 = resonance_radius(cfg)
    with pytest.raises(ConvergenceError) as exc:
        find_minimum(cfg, [1e-9, -1.05 * r0, 0.0], bounds=torus_box(r0), max_iter=5)
    assert exc.value.best is not None
    assert exc.value.best.f_evals > 0


def test_axis_start_converges(fig2a):
    r0 = resonance_radius(fig2a)
    res = find_minimum(fig2a, [0.0, 0.0, 1e-4])
    assert res.converged
    assert abs(res.position[0]) == pytest.approx(r0, rel=5e-3)
    assert abs(res.position[1]) < 1e-6 and abs(res.position[2]) < 1e-6
    # a gravity-ring start on the axis lands where a start just off it does
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    r0 = resonance_radius(cfg)
    on = find_minimum(cfg, [0.0, -r0, 0.0], bounds=torus_box(r0))
    off = find_minimum(cfg, [1e-9, -r0, 0.0], bounds=torus_box(r0))
    np.testing.assert_allclose(on.position, off.position, rtol=0, atol=1e-9 * r0)


def test_pattern_search_one_kernel_call_per_iteration(fig2a, monkeypatch):
    # the cusp minimum skips the Newton polish, so every minimiser-level kernel
    # call belongs to the pattern search: one start point, then 6 per iteration
    calls = count_kernel_calls(monkeypatch, ringtrap.minimize)
    r0 = resonance_radius(fig2a)
    res = find_minimum(fig2a, [0.9 * r0, 0.05 * r0, 0.0], bounds=torus_box(r0))
    assert not res.smooth
    assert len(calls) == res.iterations + 1
    assert calls == [(1, 3)] + [(6, 3)] * res.iterations
    assert res.f_evals == 1 + 6 * res.iterations


def one_stage_pattern_search(f, x0, step0, min_step, bounds=None, max_iter=10_000):
    """The compass search as one loop from start to ``min_step``."""
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


def one_stage_find_minimum(cfg, start, bounds=None, max_iter=10_000):
    """The single-stage search: compass search straight down to
    MIN_MESH_STEP, then the Newton polish where the coupling is open."""
    if bounds is not None:
        bounds = tuple(np.asarray(b, dtype=float) for b in bounds)

    f = lambda r: dressed_potential(r, cfg)
    x, fx, it, evals, hit_cap = one_stage_pattern_search(
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
        x, grad_norm = _newton_polish(cfg, x, bounds, grad_target)
        fx = float(f(x))
    else:
        grad_norm = float(np.linalg.norm(potential_gradient(x, cfg)))

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


def analyze_start(cfg):
    """The start and box that ``analyze_trap`` refines from and in."""
    r0 = resonance_radius(cfg)
    prof = azimuthal_profile(cfg)
    start = prof.position(int(np.argmin(prof.potentials)))
    box = (np.array([-3.2 * r0, -3.2 * r0, -0.45 * r0]),
           np.array([3.2 * r0, 3.2 * r0, 0.45 * r0]))
    return start, box


def assert_same_result(got, want):
    assert np.array_equal(got.position, want.position)
    assert got.value == want.value
    assert (got.converged, got.stationary, got.smooth) == (
        want.converged, want.stationary, want.smooth)
    assert got.grad_norm == want.grad_norm
    assert got.iterations == want.iterations
    assert got.f_evals == want.f_evals


def _fine_stage_configs():
    cases = {k: v for k, v in reference_configs().items() if k != "gravity"}
    cases["kappa-below-1-cusp"] = make_trap(b_x=B07, gradient=0.1)  # kappa = 0.66
    return cases


@pytest.mark.parametrize("name", sorted(_fine_stage_configs()))
def test_fine_stage_matches_one_stage_search(name):
    # cusps (fig2a, fig2c, kappa < 1) and fig2b's box face all fall through
    # to the fine stage, which continues the same search: nothing may move
    cfg = _fine_stage_configs()[name]
    start, box = analyze_start(cfg)
    assert_same_result(find_minimum(cfg, start, box), one_stage_find_minimum(cfg, start, box))


def test_gravity_ring_newton_exit_from_coarse_mesh():
    cfg = reference_configs()["gravity"]
    r0 = resonance_radius(cfg)
    start, box = analyze_start(cfg)
    res = find_minimum(cfg, start, box)
    ref = one_stage_find_minimum(cfg, start, box)
    assert ref.iterations > 900  # the fixed-direction crawl down the curved valley
    assert res.converged and res.smooth and res.stationary
    assert res.grad_norm < STATIONARY_GRAD_FACTOR * RB87.mass * G_ACCEL
    assert np.linalg.norm(res.position - ref.position) <= 1e-10 * r0
    assert res.value <= ref.value + 1e-12 * abs(ref.value)
    assert res.iterations <= 250
    assert res.f_evals == 1 + 6 * res.iterations


def test_iteration_cap_in_fine_stage_after_failed_newton(fig2b, monkeypatch):
    # fig2b's coarse stage ends where the coupling is open, the Newton polish
    # runs off to the z face of the box, and the fine stage hits the cap
    start, box = analyze_start(fig2b)
    ref = one_stage_find_minimum(fig2b, start, box)
    polishes = []

    def counted(*args, **kwargs):
        polishes.append(args[1])
        return _newton_polish(*args, **kwargs)

    monkeypatch.setattr(ringtrap.minimize, "_newton_polish", counted)
    max_iter = ref.iterations - 10
    with pytest.raises(ConvergenceError) as exc:
        find_minimum(fig2b, start, box, max_iter=max_iter)
    assert len(polishes) == 1  # the failed attempt from the coarse mesh
    with pytest.raises(ConvergenceError) as ref_exc:
        one_stage_find_minimum(fig2b, start, box, max_iter=max_iter)
    best = exc.value.best
    assert best.iterations == max_iter + 1  # both stages counted together
    assert_same_result(best, ref_exc.value.best)
    assert not best.converged


@pytest.mark.parametrize("refusal", ["on_face", "higher", "not_stationary"])
def test_refused_newton_point_falls_back_to_fine_stage(refusal, monkeypatch):
    # the first polish (from the coarse mesh) is replaced by one returning a
    # point the Newton exit must refuse; the search then runs the fine stage
    # and polishes for real, which is the one-stage result bit for bit
    cfg = reference_configs()["gravity"]
    start, box = analyze_start(cfg)
    calls = []

    def polish(cfg, x, bounds, grad_target, max_steps=12):
        calls.append(x)
        if len(calls) > 1:
            return _newton_polish(cfg, x, bounds, grad_target, max_steps)
        if refusal == "on_face":
            return np.array([x[0], x[1], box[1][2]]), 0.0
        if refusal == "higher":  # the ring-plane start lies above the coarse iterate
            return start.copy(), 0.0
        return x, 2 * grad_target

    def potential(r, cfg):
        # the face point reads lowest, so only the face rule refuses it
        if np.ndim(r) == 1 and r[2] == box[1][2]:
            return -1.0
        return dressed_potential(r, cfg)

    monkeypatch.setattr(ringtrap.minimize, "_newton_polish", polish)
    monkeypatch.setattr(ringtrap.minimize, "dressed_potential", potential)
    res = find_minimum(cfg, start, box)
    assert len(calls) == 2
    assert_same_result(res, one_stage_find_minimum(cfg, start, box))
