import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ringtrap import GAUSS, MHZ, dressed_potential, resonance_radius
from ringtrap.analysis import _field_direction, analyze_trap, shell_minimum, trap_frequencies
from ringtrap.constants import G_ACCEL, RB87

from conftest import B07, make_trap


def test_gravity_ring_minimum_is_stationary():
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    r0 = resonance_radius(cfg)
    res = shell_minimum(cfg, _field_direction([1e-9, -1.05, 0.0]))
    assert res.converged and res.smooth and res.stationary
    assert res.grad_norm < 1e-8 * RB87.mass * G_ACCEL
    # the minimum sits at the bottom azimuth, displaced toward the weak-coupling pole
    x, y, z = res.position
    assert y < -0.5 * r0 and z > 0.2 * r0
    assert abs(x) < 1e-8 * r0


def test_cusp_well_converges_by_mesh(fig2a):
    # the coupling-closed well is a hole of the sphere of field directions,
    # in closed form: no gradient exists there
    r0 = resonance_radius(fig2a)
    res = shell_minimum(fig2a, _field_direction([0.9, 0.05, 0.0]))
    assert res.converged and not res.smooth and not res.stationary
    assert res.grad_norm is None
    # the coupling-closed well bottoms out at V = 0 on the x axis
    assert res.value < 1e-4 * RB87.m_F * 1.0546e-34 * fig2a.rf.omega
    assert np.hypot(res.position[0], res.position[1]) == pytest.approx(r0, rel=5e-3)
    assert abs(res.position[2]) < 1e-6


def test_idempotence(fig2a):
    # a search from the direction of its own minimum ends there again
    gravity_ring = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    for cfg in (fig2a, gravity_ring):
        r0 = resonance_radius(cfg)
        res = shell_minimum(cfg, _field_direction([0.9, 0.05, 0.0]))
        res2 = shell_minimum(cfg, _field_direction(res.position))
        assert res2.value <= res.value + 1e-45
        np.testing.assert_allclose(res2.position, res.position, atol=1e-9 * r0)


def test_brute_force_oracle_agreement():
    # optimizer minimum vs dense-grid minimum over a box that holds it
    cfg = make_trap(b_x=B07, b_z=0.2e-4, beta=0.0, gravity=True)
    r0 = resonance_radius(cfg)
    lo, hi = -np.array([1.35, 1.35, 0.45]) * r0, np.array([1.35, 1.35, 0.45]) * r0
    n = 81
    ax = [np.linspace(lo[i], hi[i], n) for i in range(3)]
    mesh = np.meshgrid(*ax, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = dressed_potential(pts, cfg)
    k = int(np.argmin(vals))
    res = shell_minimum(cfg, _field_direction(pts[k]))
    assert np.all(np.abs(res.position) <= hi)
    # optimizer must do at least as well as the grid, within cell variation
    cell = np.array([a[1] - a[0] for a in ax])
    neighbors = pts[k] + np.vstack([np.diag(cell), -np.diag(cell)])
    neighbors = np.clip(neighbors, lo, hi)
    cell_variation = float(np.max(np.abs(dressed_potential(neighbors, cfg) - vals[k])))
    assert res.value <= vals[k] + 1e-45
    assert vals[k] - res.value <= cell_variation


@given(freq_mhz=st.floats(1.5 * 0.95, 1.5 * 1.05), amplitude=st.floats(0.95, 1.05))
# draws on which an open-coupling candidate stopped at a step of
# MIN_MESH_STEP / r0 ends just above the stationarity target, with no
# frequencies: a Newton step there is shorter than that
@example(1.4645025451705727, 0.9699488651098552)
@example(1.4806356958508826, 0.9805346477244491)
@example(1.5094022008589147, 1.00188727533679)
@example(1.4990879575098406, 0.989758715344199)
@example(1.497107738220142, 0.9983835272161371)
@example(1.4880279937395127, 0.9859711011971547)
@example(1.492480877453427, 1.000023583792388)
def test_jittered_gravity_ring_is_a_harmonic_minimum_property(freq_mhz, amplitude):
    # the circular gravity ring in the units of an INI file, 0.7 G and
    # 1.5 MHz each within +-5%: the minimum analyze_trap refines is smooth
    # and stationary, and it has frequencies with omega_z / omega_rho > 1
    b = 0.7 * amplitude * GAUSS
    cfg = make_trap(b_x=b, b_y=b, alpha=math.radians(-90), omega=freq_mhz * MHZ, gravity=True)
    res = analyze_trap(cfg).minimum
    assert res.converged and res.smooth and res.stationary
    freqs = trap_frequencies(cfg, res.position)
    assert freqs.omega_z / freqs.omega_rho > 1.0


def test_iteration_cap_returns_its_best_unconverged():
    # a capped polish reports no floor gradient, whatever the coupling
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    best = shell_minimum(cfg, _field_direction([1e-9, -1.05, 0.0]), max_iter=0)
    assert not best.converged and best.smooth and not best.stationary
    assert best.f_evals > 0 and best.grad_norm is None and best.iterations == 0


def test_axis_start_converges(fig2a):
    r0 = resonance_radius(fig2a)
    res = shell_minimum(fig2a, np.array([0.0, 0.0, 1.0]))
    assert res.converged
    assert abs(res.position[0]) == pytest.approx(r0, rel=5e-3)
    assert abs(res.position[1]) < 1e-6 and abs(res.position[2]) < 1e-6
    # a gravity-ring start on the axis lands where a start just off it does
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    r0 = resonance_radius(cfg)
    on = shell_minimum(cfg, np.array([0.0, -1.0, 0.0]))
    off = shell_minimum(cfg, _field_direction([1e-9, -1.0, 0.0]))
    np.testing.assert_allclose(on.position, off.position, rtol=0, atol=1e-9 * r0)
