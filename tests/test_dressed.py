import numpy as np
import pytest

import ringtrap.dressed
from ringtrap import (
    RB87,
    detuning,
    dressed_potential,
    larmor_frequency,
    potential_gradient,
    potential_hessian,
    rabi_frequency,
    rabi_squared,
    resonance_radius,
    sample_point,
)
from ringtrap.constants import G_ACCEL, HBAR, MU_B
from ringtrap.dressed import coupling_prefactor

from conftest import B07, count_kernel_calls, make_trap, reference_configs


# -- Larmor frequency --------------------------------------------------------

def test_larmor_hand_computed(fig2b):
    # independent arithmetic: g_F mu_B B_q |B| / hbar at x = 0.1 mm
    expected = 0.5 * MU_B * 1.0 * 1e-4 / HBAR
    assert larmor_frequency([1e-4, 0, 0], fig2b) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(4.3970e6, rel=1e-4)  # 2*pi*699.8 kHz


def test_larmor_zero_at_origin(fig2b):
    assert larmor_frequency([0.0, 0.0, 0.0], fig2b) == 0.0


def test_larmor_z_rho_equivalence(fig2b):
    assert larmor_frequency([0, 0, 1e-4], fig2b) == pytest.approx(
        larmor_frequency([2e-4, 0, 0], fig2b), rel=1e-14
    )


# -- detuning ----------------------------------------------------------------

def test_detuning_at_origin_equals_omega(fig2a):
    assert detuning([0.0, 0.0, 0.0], fig2a) == fig2a.rf.omega


def test_detuning_zero_on_resonance_shell(fig2b):
    r0 = resonance_radius(fig2b)
    assert abs(detuning([r0, 0, 0], fig2b)) < 1e-6 * fig2b.rf.omega
    # a shell point off the plane: rho^2 + 4 z^2 = r0^2
    z = 0.3 * r0
    rho = np.sqrt(r0**2 - 4 * z**2)
    assert abs(detuning([rho, 0, z], fig2b)) < 1e-6 * fig2b.rf.omega


def test_detuning_sign_inside_outside(fig2b):
    r0 = resonance_radius(fig2b)
    assert detuning([0.5 * r0, 0, 0], fig2b) > 0
    assert detuning([2.0 * r0, 0, 0], fig2b) < 0


# -- Rabi coupling -----------------------------------------------------------

def test_rabi_circular_on_ring(fig2b):
    r0 = resonance_radius(fig2b)
    # at z=0 only the (Bx^2 y^2 + By^2 x^2)/rho^2 term survives -> B^2
    expected = coupling_prefactor(fig2b) * B07
    assert rabi_frequency([r0, 0, 0], fig2b) == pytest.approx(expected, rel=1e-13)
    assert expected / (2 * np.pi) == pytest.approx(244.9e3, rel=1e-3)


def test_rabi_linear_zero_on_x_axis(fig2a):
    r0 = resonance_radius(fig2a)
    assert rabi_squared([r0, 0, 0], fig2a) == 0.0


def test_rabi_linear_full_on_y_axis(fig2a):
    r0 = resonance_radius(fig2a)
    expected = (coupling_prefactor(fig2a) * B07) ** 2
    assert rabi_squared([0, r0, 0], fig2a) == pytest.approx(expected, rel=1e-13)


def test_rabi_on_axis_azimuthal_average(fig2b):
    # circular polarization, alpha=-pi/2: axis value is C^2 B^2 (2 - 2 sgn(z))
    c2b2 = (coupling_prefactor(fig2b) * B07) ** 2
    assert rabi_squared([0, 0, 1e-4], fig2b) == pytest.approx(0.0, abs=1e-20 * c2b2)
    assert rabi_squared([0, 0, -1e-4], fig2b) == pytest.approx(4 * c2b2, rel=1e-12)
    assert rabi_squared([0, 0, 0], fig2b) == pytest.approx(2 * c2b2, rel=1e-12)


def test_rabi_axis_continuity(fig2a):
    # the coupling depends on position only through the field direction n,
    # which tends to (0, 0, -sgn z) from every azimuth: the axial limit is
    # unique and off-axis points approach the on-axis value
    c2 = coupling_prefactor(fig2a) ** 2
    on_axis = rabi_squared([0.0, 0.0, 1e-4], fig2a)
    assert on_axis == pytest.approx(c2 * B07**2, rel=1e-12)
    phi = np.linspace(-np.pi, np.pi, 16, endpoint=False)
    near = np.stack([1e-12 * np.cos(phi), 1e-12 * np.sin(phi), np.full(16, 1e-4)], axis=-1)
    np.testing.assert_allclose(rabi_squared(near, fig2a), on_axis, rtol=1e-12)


def test_rabi_clamp_bound(fig2b):
    # a sum of squares: never negative, not even by rounding
    rng = np.random.default_rng(11)
    r0 = resonance_radius(fig2b)
    pts = rng.uniform(-2 * r0, 2 * r0, size=(5000, 3))
    assert np.all(rabi_squared(pts, fig2b) >= 0)


def _rabi_squared_oracle(r, cfg):
    """Literal C^2 (|B~|^2 - |n.B~|^2 - i n.(B~ x B~*)) in complex arithmetic."""
    rf = cfg.rf
    bt = np.array(
        [rf.b_x, rf.b_y * np.exp(1j * rf.alpha), rf.b_z * np.exp(1j * rf.beta)]
    )
    n = np.asarray(r, dtype=float) * np.array([1.0, 1.0, -2.0])
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    n_bt = n @ bt
    val = np.vdot(bt, bt) - n_bt * n_bt.conj() - 1j * (n @ np.cross(bt, bt.conj()))
    return coupling_prefactor(cfg) ** 2 * val.real


def test_rabi_coordinate_free_oracle():
    rng = np.random.default_rng(2015)
    for _ in range(50):
        bx, by, bz = rng.uniform(0.0, 1e-4, 3) * (rng.random(3) < 0.8)
        alpha, beta = rng.uniform(-np.pi, np.pi, 2)
        cfg = make_trap(b_x=bx, b_y=by, b_z=bz, alpha=alpha, beta=beta)
        tol = 1e-13 * coupling_prefactor(cfg) ** 2 * (bx * bx + by * by + bz * bz)
        # positions spanning six decades, plus points on the z-axis
        pts = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-9, -3, (2000, 1))
        pts[:100, :2] = 0.0
        np.testing.assert_allclose(
            rabi_squared(pts, cfg), _rabi_squared_oracle(pts, cfg), rtol=0, atol=tol
        )
        axial = bx * bx + by * by + 2 * bx * by * np.sin(alpha) * np.sign(pts[:100, 2])
        np.testing.assert_allclose(
            rabi_squared(pts[:100], cfg),
            coupling_prefactor(cfg) ** 2 * axial,
            rtol=0,
            atol=tol,
        )


# -- dressed potential -------------------------------------------------------

def test_potential_circular_ring_value(fig2b):
    r0 = resonance_radius(fig2b)
    # delta = 0 there, so V = m_F hbar Omega = g_F mu_B B for m_F=2
    expected = 0.5 * MU_B * B07
    v = dressed_potential([r0, 0, 0], fig2b)
    assert v == pytest.approx(expected, rel=1e-13)
    assert v / 1.380649e-23 == pytest.approx(23.51e-6, rel=1e-3)  # ~23.5 uK


def test_potential_zero_where_delta_and_rabi_vanish(fig2a):
    r0 = resonance_radius(fig2a)
    assert dressed_potential([r0, 0, 0], fig2a) == pytest.approx(0.0, abs=1e-40)


def test_potential_lifted_center(fig2b):
    v0 = dressed_potential([0.0, 0.0, 0.0], fig2b)
    assert v0 >= RB87.m_F * HBAR * fig2b.rf.omega


def test_lower_bounds_pointwise(fig2b):
    rng = np.random.default_rng(5)
    r0 = resonance_radius(fig2b)
    pts = rng.uniform(-1.5 * r0, 1.5 * r0, size=(2000, 3))
    v = dressed_potential(pts, fig2b)
    mfh = RB87.m_F * HBAR
    assert np.all(v >= mfh * np.abs(detuning(pts, fig2b)) - 1e-45)
    assert np.all(v >= mfh * np.sqrt(rabi_squared(pts, fig2b)) - 1e-45)


def test_bare_zeeman_limit():
    # B_rf -> 0: V = m_F hbar |delta| exactly
    cfg = make_trap(b_x=0.0, b_y=0.0, b_z=0.0)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-5e-4, 5e-4, size=(500, 3))
    v = dressed_potential(pts, cfg)
    expected = RB87.m_F * HBAR * np.abs(detuning(pts, cfg))
    np.testing.assert_array_equal(v, expected)


def test_gravity_term_added(fig2b):
    grav = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    r = [1e-4, 2e-4, -3e-5]
    dv = dressed_potential(r, grav) - dressed_potential(r, fig2b)
    assert dv == pytest.approx(RB87.mass * G_ACCEL * r[1], rel=1e-12)


def test_sample_point_consistency(fig2b):
    r0 = resonance_radius(fig2b)
    s = sample_point([r0, 0, 0], fig2b)
    assert s.larmor == pytest.approx(fig2b.rf.omega, rel=1e-12)
    assert s.detuning == pytest.approx(0.0, abs=1e-6 * fig2b.rf.omega)
    assert s.potential == pytest.approx(RB87.m_F * HBAR * s.rabi, rel=1e-12)


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_potential_composes_detuning_and_coupling(name):
    # V is built from the same omega_0 and |Omega|^2 the public helpers return
    cfg = reference_configs()[name]
    r0 = resonance_radius(cfg)
    pts = np.random.default_rng(11).uniform(-2.0, 2.0, (200, 3)) * r0
    pts[:20, :2] = 0.0  # on the z axis
    pts[20] = 0.0  # the trap centre
    delta = detuning(pts, cfg)
    expected = RB87.m_F * HBAR * np.sqrt(delta * delta + rabi_squared(pts, cfg))
    if cfg.gravity_on:
        expected = expected + RB87.mass * G_ACCEL * pts[:, 1]
    assert np.array_equal(dressed_potential(pts, cfg), expected)


# -- finite differences ------------------------------------------------------

def test_gradient_of_gravity_term():
    # far off resonance with tiny coupling, the y-gradient is m*g plus the
    # slowly varying Zeeman slope; isolate gravity by differencing configs
    cfg_g = make_trap(b_x=B07, gravity=True)
    cfg_0 = make_trap(b_x=B07, gravity=False)
    r = np.array([2e-4, 1e-4, 5e-5])
    g_with = potential_gradient(r, cfg_g)
    g_without = potential_gradient(r, cfg_0)
    assert g_with[1] - g_without[1] == pytest.approx(
        RB87.mass * G_ACCEL, rel=1e-6
    )
    np.testing.assert_allclose(g_with[[0, 2]], g_without[[0, 2]], rtol=1e-9)


def test_gradient_near_zero_at_stationary_point():
    # gravity-on circular config has a genuine smooth minimum; see minimize tests
    from ringtrap import find_minimum

    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    r0 = resonance_radius(cfg)
    box = (np.array([-2 * r0, -2 * r0, -0.45 * r0]), np.array([2 * r0, 2 * r0, 0.45 * r0]))
    res = find_minimum(cfg, [1e-9, -r0, 0.0], bounds=box)
    g = potential_gradient(res.position, cfg)
    typical = np.linalg.norm(potential_gradient([0.5 * r0, 0, 0], cfg))
    assert np.linalg.norm(g) < 1e-6 * typical


def test_richardson_ratio_gradient(fig2b):
    # error(h)/error(h/2) ~ 4 against the h/4 Richardson extrapolant
    r0 = resonance_radius(fig2b)
    r = np.array([1.1 * r0, 0.2 * r0, 0.05 * r0])
    h = 1e-6
    d1 = potential_gradient(r, fig2b, h)
    d2 = potential_gradient(r, fig2b, h / 2)
    d4 = potential_gradient(r, fig2b, h / 4)
    extrap = (4.0 * d4 - d2) / 3.0
    ratio = np.linalg.norm(d1 - extrap) / np.linalg.norm(d2 - extrap)
    assert ratio == pytest.approx(4.0, rel=0.2)


def test_hessian_symmetric(fig2b):
    r0 = resonance_radius(fig2b)
    h = potential_hessian([0.9 * r0, 0.3 * r0, 0.1 * r0], fig2b)
    np.testing.assert_array_equal(h, h.T)


def hessian_per_point(r, cfg, h):
    """The Hessian stencil with one kernel call per point, in stencil order."""
    r = np.asarray(r, dtype=float)
    v = lambda p: float(dressed_potential(p, cfg))
    eye = np.eye(3)
    v0 = v(r)
    hess = np.empty((3, 3))
    for i in range(3):
        ei = h * eye[i]
        hess[i, i] = (v(r + 2 * ei) - 2.0 * v0 + v(r - 2 * ei)) / (4.0 * h * h)
        for j in range(i + 1, 3):
            ej = h * eye[j]
            hess[i, j] = hess[j, i] = (
                v(r + ei + ej) - v(r + ei - ej) - v(r - ei + ej) + v(r - ei - ej)
            ) / (4.0 * h * h)
    return 0.5 * (hess + hess.T)


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_hessian_matches_per_point_oracle(name, monkeypatch):
    calls = count_kernel_calls(monkeypatch, ringtrap.dressed)
    cfg = reference_configs()[name]
    r0 = resonance_radius(cfg)
    rng = np.random.default_rng(7)
    points = [[0.9 * r0, 0.3 * r0, 0.1 * r0], [1e-9, -1.05 * r0, 0.2 * r0], [0.0, 0.0, 0.3 * r0]]
    points += list(rng.uniform([-1.5, -1.5, -0.4], [1.5, 1.5, 0.4], (12, 3)) * r0)
    for r in points:
        for h in (1e-7, 1e-6):
            calls.clear()
            got = potential_hessian(r, cfg, h)
            assert len(calls) == 1
            assert np.array_equal(got, hessian_per_point(r, cfg, h))


def test_fd_step_underflow_rejected(fig2b):
    with pytest.raises(ValueError):
        potential_gradient([1e-4, 0, 0], fig2b, h=1e-10)
    with pytest.raises(ValueError):
        potential_hessian([1e-4, 0, 0], fig2b, h=-1.0)


def test_fd_richardson_on_axis(fig2a, fig2c):
    # the potential is smooth across the z-axis: stencils may straddle it
    h = 1e-6
    for cfg in (fig2a, fig2c):
        r0 = resonance_radius(cfg)
        for z in (0.3 * r0, -0.3 * r0):
            r = np.array([0.0, 0.0, z])
            g1, g2, g4 = (potential_gradient(r, cfg, s) for s in (h, h / 2, h / 4))
            ref = (4.0 * g4 - g2) / 3.0
            ratio_g = np.linalg.norm(g1 - ref) / np.linalg.norm(g2 - ref)
            h1, h2, h4 = (potential_hessian(r, cfg, s) for s in (h, h / 2, h / 4))
            refh = (4.0 * h4 - h2) / 3.0
            ratio_h = np.linalg.norm(h1 - refh) / np.linalg.norm(h2 - refh)
            assert 3.2 <= ratio_g <= 4.8
            assert 3.2 <= ratio_h <= 4.8
