import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import ringtrap.dressed
from ringtrap import (
    RB87,
    analyze_trap,
    dressed_potential,
    potential_hessian,
    rabi_frequency,
    rabi_squared,
    resonance_radius,
)
from ringtrap.constants import G_ACCEL, HBAR, MU_B
from ringtrap.dressed import WORKSPACE_ROWS

from conftest import (
    B07,
    count_kernel_calls,
    detuning,
    field_magnitude,
    larmor_frequency,
    make_trap,
    potential_gradient,
    reference_configs,
    richardson_gradient,
)


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
    expected = fig2b.coupling_prefactor * B07
    assert rabi_frequency([r0, 0, 0], fig2b) == pytest.approx(expected, rel=1e-13)
    assert expected / (2 * np.pi) == pytest.approx(244.9e3, rel=1e-3)


def test_rabi_linear_zero_on_x_axis(fig2a):
    r0 = resonance_radius(fig2a)
    assert rabi_squared([r0, 0, 0], fig2a) == 0.0


def test_rabi_linear_full_on_y_axis(fig2a):
    r0 = resonance_radius(fig2a)
    expected = (fig2a.coupling_prefactor * B07) ** 2
    assert rabi_squared([0, r0, 0], fig2a) == pytest.approx(expected, rel=1e-13)


def test_rabi_on_axis_azimuthal_average(fig2b):
    # circular polarization, alpha=-pi/2: axis value is C^2 B^2 (2 - 2 sgn(z))
    c2b2 = (fig2b.coupling_prefactor * B07) ** 2
    assert rabi_squared([0, 0, 1e-4], fig2b) == pytest.approx(0.0, abs=1e-20 * c2b2)
    assert rabi_squared([0, 0, -1e-4], fig2b) == pytest.approx(4 * c2b2, rel=1e-12)
    assert rabi_squared([0, 0, 0], fig2b) == pytest.approx(2 * c2b2, rel=1e-12)


def test_rabi_axis_continuity(fig2a):
    # the coupling depends on position only through the field direction n,
    # which tends to (0, 0, -sgn z) from every azimuth: the axial limit is
    # unique and off-axis points approach the on-axis value
    c2 = fig2a.coupling_prefactor ** 2
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
    return cfg.coupling_prefactor ** 2 * val.real


def test_rabi_coordinate_free_oracle():
    rng = np.random.default_rng(2015)
    for _ in range(50):
        bx, by, bz = rng.uniform(0.0, 1e-4, 3) * (rng.random(3) < 0.8)
        alpha, beta = rng.uniform(-np.pi, np.pi, 2)
        cfg = make_trap(b_x=bx, b_y=by, b_z=bz, alpha=alpha, beta=beta)
        tol = 1e-13 * cfg.coupling_prefactor ** 2 * (bx * bx + by * by + bz * bz)
        # positions spanning six decades, plus points on the z-axis
        pts = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-9, -3, (2000, 1))
        pts[:100, :2] = 0.0
        np.testing.assert_allclose(
            rabi_squared(pts, cfg), _rabi_squared_oracle(pts, cfg), rtol=0, atol=tol
        )
        axial = bx * bx + by * by + 2 * bx * by * np.sin(alpha) * np.sign(pts[:100, 2])
        np.testing.assert_allclose(
            rabi_squared(pts[:100], cfg),
            cfg.coupling_prefactor ** 2 * axial,
            rtol=0,
            atol=tol,
        )


def _point(direction, exponent, on_axis):
    """A position spanning six decades; a zero direction is the trap centre."""
    r = np.array(direction, dtype=float) * 1e-3 * 10.0**exponent
    if on_axis:
        r[:2] = 0.0
    return r


_position = st.builds(
    _point, st.tuples(*[st.integers(-1000, 1000)] * 3), st.floats(-9, -3), st.booleans()
)
_amplitude = st.one_of(st.just(0.0), st.floats(1e-7, 1e-3))
_phase = st.floats(-np.pi, np.pi)


@given(
    st.tuples(_amplitude, _amplitude, _amplitude),
    st.tuples(_phase, _phase),
    st.floats(0.05, 2.0),
    st.booleans(),
    st.lists(_position, min_size=1, max_size=20),
)
def test_kernel_finite_and_matches_oracle_property(amps, phases, gradient, gravity, points):
    bx, by, bz = amps
    cfg = make_trap(b_x=bx, b_y=by, b_z=bz, alpha=phases[0], beta=phases[1],
                    gradient=gradient, gravity=gravity)
    tol = 1e-13 * cfg.coupling_prefactor ** 2 * (bx * bx + by * by + bz * bz)
    pts = np.array(points + [np.zeros(3), [0.0, 0.0, 1e-4], [0.0, 0.0, -1e-4]])
    om2 = rabi_squared(pts, cfg)
    assert not np.isnan(om2).any()
    off = np.any(pts != 0.0, axis=-1)
    np.testing.assert_allclose(
        om2[off], _rabi_squared_oracle(pts[off], cfg), rtol=0, atol=tol
    )
    # the centre takes the average of the two axial limits
    centre = cfg.coupling_prefactor ** 2 * (bx * bx + by * by)
    np.testing.assert_allclose(om2[~off], centre, rtol=0, atol=tol)
    assert np.all(np.isfinite(dressed_potential(pts, cfg)))


def test_underflowing_radius_keeps_its_direction(fig2a):
    # below |r| ~ 1e-154 m, x^2 + y^2 + 4 z^2 underflows to 0; such a point
    # is not the trap centre and takes the coupling of its own direction
    assert rabi_squared([1e-200, 0.0, 0.0], fig2a) == 0.0
    directions = np.random.default_rng(5).normal(size=(32, 3))
    directions[:3] = np.eye(3)
    for cfg in reference_configs().values():
        for scale in (2.0**-520, 2.0**-700, 2.0**-900):
            np.testing.assert_array_equal(
                rabi_squared(directions * scale, cfg), rabi_squared(directions, cfg)
            )
        # the centre itself keeps the average of the two axial limits
        centre = cfg.coupling_prefactor ** 2 * (cfg.rf.b_x**2 + cfg.rf.b_y**2)
        assert rabi_squared(np.zeros(3), cfg) == pytest.approx(centre, rel=1e-15)


def test_underflowing_single_point_keeps_its_direction():
    # one point alone runs the batch path: its R, below 2^-500 m, takes the
    # same rescue as in a batch
    directions = np.random.default_rng(7).normal(size=(8, 3))
    directions[:3] = np.eye(3)
    for cfg in reference_configs().values():
        for d in directions:
            coupling = rabi_squared(d, cfg)
            assert np.ndim(coupling) == 0
            assert rabi_squared(d * 2.0**-520, cfg) == coupling


_coordinate = st.one_of(
    st.builds(lambda m, e: m * 1e-3 * 10.0**e, st.floats(-1, 1), st.floats(-9, -3)),
    st.builds(lambda m: m * 2.0**-520, st.floats(-1, 1)),  # R below 2^-500 m
)
_axis = st.lists(_coordinate, min_size=1, max_size=4)


def _read_only(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


_CENTRE_AND_UNDERFLOW = ([2.0**-520, 1e-5], [-2.0**-600], [3.0 * 2.0**-530, -2e-6])


@example((B07, B07, 2e-5), (-np.pi / 2, 0.3), False, _CENTRE_AND_UNDERFLOW, True, "3d")
@example((B07, B07, 2e-5), (-np.pi / 2, 0.3), True, _CENTRE_AND_UNDERFLOW, True, "3d")
@given(
    st.tuples(_amplitude, _amplitude, _amplitude),
    st.tuples(_phase, _phase),
    st.booleans(),
    st.tuples(_axis, _axis, _axis),
    st.booleans(),
    st.sampled_from(["3d", "2d", "point"]),
)
def test_coordinate_tuple_matches_stacked_positions_property(
    amps, phases, gravity, axes, with_centre, layout
):
    # a tuple of coordinate arrays that broadcast gives the bits of the
    # stacked (..., 3) positions, and neither form writes to its input
    bx, by, bz = amps
    cfg = make_trap(b_x=bx, b_y=by, b_z=bz, alpha=phases[0], beta=phases[1],
                    gravity=gravity)
    xs, ys, zs = ([0.0, *a] if with_centre else a for a in axes)
    if layout == "3d":
        coords = (np.array(xs)[:, None, None], np.array(ys)[None, :, None],
                  np.array(zs)[None, None, :])
    elif layout == "2d":
        coords = (np.array(xs)[:, None], np.array(ys)[None, :], zs[0])
    else:
        coords = (xs[0], ys[0], zs[0])
    coords = tuple(_read_only(c) for c in coords)
    stacked = _read_only(np.stack(np.broadcast_arrays(*coords), axis=-1))
    for fn in (dressed_potential, rabi_squared, larmor_frequency, detuning):
        from_tuple = np.asarray(fn(coords, cfg))
        from_stack = np.asarray(fn(stacked, cfg))
        assert from_tuple.shape == from_stack.shape == stacked.shape[:-1]
        assert from_tuple.tobytes() == from_stack.tobytes()
    # so does a call that keeps its temporaries in a workspace, whatever the
    # workspace held before, and writes V into the array it is given
    n = stacked.size // 3
    work = np.full((WORKSPACE_ROWS, n + 5), np.nan)
    out = np.empty(stacked.shape[:-1])
    for r in (coords, stacked):
        v = dressed_potential(r, cfg, work=work, out=out)
        assert v is out
        assert out.tobytes() == np.asarray(dressed_potential(stacked, cfg)).tobytes()


_SINGLE_POINTS = [[0.0, 0.0, 0.0], [2.0**-520, -2.0**-600, 3.0 * 2.0**-530],
                  [2.0**-520, 1e-5, 0.0], [1e-4, -2e-4, 3e-5]]


@example((B07, B07, 2e-5), (-np.pi / 2, 0.3), False, _SINGLE_POINTS)
@example((B07, B07, 2e-5), (-np.pi / 2, 0.3), True, _SINGLE_POINTS)
@given(
    st.tuples(_amplitude, _amplitude, _amplitude),
    st.tuples(_phase, _phase),
    st.booleans(),
    st.lists(st.tuples(_coordinate, _coordinate, _coordinate), min_size=1, max_size=6),
)
def test_single_point_has_its_bits_in_a_batch_property(amps, phases, gravity, points):
    # a (3,) point alone gives a 0-d result with the bits it has inside a
    # batch, the centre and points below 2^-500 m among them
    bx, by, bz = amps
    cfg = make_trap(b_x=bx, b_y=by, b_z=bz, alpha=phases[0], beta=phases[1],
                    gravity=gravity)
    pts = _read_only(points)
    for fn in (dressed_potential, rabi_squared, larmor_frequency, detuning):
        batch = fn(pts, cfg)
        for point, in_batch in zip(pts, batch):
            alone = fn(point, cfg)
            assert np.ndim(alone) == 0
            assert np.asarray(alone).tobytes() == np.asarray(in_batch).tobytes()


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


def test_point_ingredients_consistency(fig2b):
    r = [resonance_radius(fig2b), 0, 0]
    assert larmor_frequency(r, fig2b) == pytest.approx(fig2b.rf.omega, rel=1e-12)
    assert detuning(r, fig2b) == pytest.approx(0.0, abs=1e-6 * fig2b.rf.omega)
    rabi = rabi_frequency(r, fig2b)
    assert dressed_potential(r, fig2b) == pytest.approx(RB87.m_F * HBAR * rabi, rel=1e-12)


@pytest.mark.parametrize("gradient", [0.37, 1.0, 2.5])
def test_larmor_is_the_field_model_magnitude(gradient):
    # the kernel's omega_0 is g_F mu_B |B_q| / hbar of the field model
    cfg = make_trap(b_x=B07, gradient=gradient)
    r0 = resonance_radius(cfg)
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, (200, 3)) * r0
    pts[:20, :2] = 0.0  # on the z axis
    pts[20] = 0.0  # the trap centre
    expected = RB87.g_F * MU_B * field_magnitude(pts, gradient) / HBAR
    np.testing.assert_allclose(larmor_frequency(pts, cfg), expected, rtol=1e-15, atol=0)


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


def _potential_oracle(point, cfg):
    """V [J] of the coordinate-free RWA form at ``point`` in 50-digit
    arithmetic: every input is the float64 value the kernel is given, taken
    exactly, and omega_0, |Omega|^2 = C^2 (|B~|^2 - |n.B~|^2 -
    i n.(B~ x B~*)) and m_F hbar sqrt(delta^2 + |Omega|^2) are formed with
    no rounding a float64 could see. The centre takes C^2 (B_x^2 + B_y^2)."""
    with mpmath.workdps(50):
        f = mpmath.mpf
        rf, atom = cfg.rf, cfg.atom
        hbar, c = f(HBAR), f(atom.g_F) * f(MU_B) / (2 * f(HBAR))
        bt = [f(rf.b_x), f(rf.b_y) * mpmath.expj(f(rf.alpha)), f(rf.b_z) * mpmath.expj(f(rf.beta))]
        p = [f(point[0]), f(point[1]), -2 * f(point[2])]
        rad = mpmath.sqrt(sum(q * q for q in p))
        if rad == 0:
            coupling = c * c * (f(rf.b_x) ** 2 + f(rf.b_y) ** 2)
        else:
            n = [q / rad for q in p]
            nb = sum(q * b for q, b in zip(n, bt))
            cross = [bt[(i + 1) % 3] * mpmath.conj(bt[(i + 2) % 3])
                     - bt[(i + 2) % 3] * mpmath.conj(bt[(i + 1) % 3]) for i in range(3)]
            total = (sum(abs(b) ** 2 for b in bt) - abs(nb) ** 2
                     - 1j * sum(q * x for q, x in zip(n, cross)))
            coupling = c * c * mpmath.re(total)
        delta = f(rf.omega) - f(atom.g_F) * f(MU_B) * f(cfg.gradient) * rad / hbar
        v = atom.m_F * hbar * mpmath.sqrt(delta * delta + coupling)
        if cfg.gravity_on:
            v += f(atom.mass) * f(G_ACCEL) * p[1]
        return float(v)


#: the kernel's error bound against :func:`_potential_oracle`, in units of
#: u = 2^-53 times the scale m_F hbar (omega_0 + omega + 2 C (B_x + B_y + B_z))
#: + m g |y|. omega_0 = K R takes ~8 roundings (R from three squares, two
#: sums and a sqrt; K folded from three constants), delta one more, and it
#: cancels near the resonance shell, so its error is one of omega's scale,
#: not of delta's. Each component of the coupling's vector takes ~12
#: roundings of terms no larger than |a'| + |b'| <= 2 C (B_x + B_y + B_z),
#: its parts ~6 more (C folded, cos and sin of the phases), and V's sum,
#: sqrt, product and gravity term ~4 of V. 32 u covers the sum, with room
#: for the sqrt(3) of three components; it is fixed from float64, not from
#: a run of the kernel.
ORACLE_ULPS = 32


def _oracle_points(cfg, rng):
    """50 points of one config: random ones, and ones near the x-axis coupling
    hole of fig. 2a, on and near the z axis, on the resonance shell, and at
    and around the trap centre, down to radii that underflow."""
    r0 = resonance_radius(cfg)
    random = rng.uniform(-2.0, 2.0, (20, 3)) * r0
    hole = np.column_stack([
        r0 * rng.choice([-1.0, 1.0], 10) * (1.0 + rng.uniform(-0.1, 0.1, 10)),
        r0 * rng.choice([-1.0, 1.0], (10, 2)) * 10.0 ** rng.uniform(-12, -3, (10, 2)),
    ])
    axis = np.column_stack([
        np.repeat([0.0, 1e-15 * r0, -3e-9 * r0], 2), np.repeat([0.0, -2e-15 * r0, 0.0], 2),
        rng.uniform(-2.0, 2.0, 6) * r0,
    ])
    n = rng.normal(size=(10, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    shell = r0 * n * np.array([1.0, 1.0, -0.5])  # R = r0 along each field direction
    d = rng.normal(size=3)
    centre = np.array([np.zeros(3), 1e-160 * d, 1e-200 * d, 2.0**-520 * d])
    return np.concatenate([random, hole, axis, shell, centre])


def test_potential_matches_a_50_digit_oracle():
    # 250 seeded points of the reference configs and one of random
    # amplitudes and phases, each within ORACLE_ULPS of its scale
    rng = np.random.default_rng(29)
    configs = dict(reference_configs())
    bx, by, bz = rng.uniform(0.1e-4, 1e-4, 3)
    configs["random"] = make_trap(b_x=bx, b_y=by, b_z=bz, alpha=rng.uniform(-np.pi, np.pi),
                                  beta=rng.uniform(-np.pi, np.pi), gravity=True)
    u = 2.0**-53
    for cfg in configs.values():
        pts = _oracle_points(cfg, rng)
        got = dressed_potential(pts, cfg)
        want = np.array([_potential_oracle(p, cfg) for p in pts])
        atom, rf = cfg.atom, cfg.rf
        larmor = atom.g_F * MU_B * field_magnitude(pts, cfg.gradient) / HBAR
        amplitude = 2.0 * cfg.coupling_prefactor * (rf.b_x + rf.b_y + rf.b_z)
        scale = atom.m_F * HBAR * (larmor + rf.omega + amplitude)
        if cfg.gravity_on:
            scale += atom.mass * G_ACCEL * np.abs(pts[:, 1])
        assert np.all(np.abs(got - want) <= ORACLE_ULPS * u * scale)


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


#: the gravity ring's minimum as a Newton polish of the step-1e-7 m central
#: difference placed it, 3.4e-9 m from where V is least
CENTRAL_DIFFERENCE_POINT = (
    -4.0366991435830814e-20, -0.000147842364609883, 7.829111471728347e-05
)


def test_gradient_near_zero_at_stationary_point():
    # the gravity-on circular config has a genuine smooth minimum. Oracle:
    # the Richardson extrapolant of the central difference at h = 1e-7 m,
    # whose own bias across the ~3e-5 m wide dressed valley is ~6e-29 N,
    # about 4,500 times the target
    cfg = reference_configs()["gravity"]
    r = analyze_trap(cfg).minimum.position
    g = richardson_gradient(r, cfg, 1e-7)
    assert np.linalg.norm(g) < 1e-8 * RB87.mass * G_ACCEL
    assert dressed_potential(r, cfg) <= dressed_potential(CENTRAL_DIFFERENCE_POINT, cfg)


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
        potential_hessian([1e-4, 0, 0], fig2b, h=1e-10)
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
