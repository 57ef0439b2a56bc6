import numpy as np
import pytest

import ringtrap.minimize
from ringtrap import dressed_potential, find_minimum, pattern_search, resonance_radius
from ringtrap.constants import G_ACCEL, RB87
from ringtrap.errors import ConvergenceError

from conftest import B07, count_kernel_calls, make_trap


def torus_box(r0, xy=2.0, z=0.45):
    return (np.array([-xy * r0, -xy * r0, -z * r0]), np.array([xy * r0, xy * r0, z * r0]))


def test_pattern_search_quadratic_bowl():
    f = lambda r: (r[..., 0] - 1.0) ** 2 + 2 * (r[..., 1] + 0.5) ** 2 + 0.3 * r[..., 2] ** 2
    x, fx, _, _, cap = pattern_search(f, np.zeros(3), step0=0.5, min_step=1e-10)
    assert not cap
    np.testing.assert_allclose(x, [1.0, -0.5, 0.0], atol=1e-8)


def test_pattern_search_respects_bounds():
    f = lambda r: np.sum(r**2, axis=-1)
    bounds = (np.array([0.5, -1, -1]), np.array([2.0, 1, 1]))
    x, _, _, _, _ = pattern_search(f, np.array([1.5, 0.5, 0.5]), 0.25, 1e-9, bounds)
    assert x[0] >= 0.5 - 1e-15
    np.testing.assert_allclose(x, [0.5, 0.0, 0.0], atol=1e-8)


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


@pytest.mark.parametrize("h", [1e-10, -1.0])
def test_invalid_fd_step_raises(fig2a, h):
    # the step is checked before the search, so the error reaches the caller
    # on both the cusp path and the Newton-polish path
    r0 = resonance_radius(fig2a)
    with pytest.raises(ValueError, match="finite-difference step"):
        find_minimum(fig2a, [0.9 * r0, 0.05 * r0, 0.0], bounds=torus_box(r0), h=h)
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    with pytest.raises(ValueError, match="finite-difference step"):
        find_minimum(cfg, [1e-9, -1.05 * r0, 0.0], bounds=torus_box(r0), h=h)


def test_invalid_fd_step_rejected_before_search(monkeypatch):
    calls = count_kernel_calls(monkeypatch, ringtrap.minimize)
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    r0 = resonance_radius(cfg)
    with pytest.raises(ValueError, match="finite-difference step"):
        find_minimum(cfg, [1e-9, -1.05 * r0, 0.0], bounds=torus_box(r0), h=-1.0)
    assert calls == []


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
