import math

import numpy as np
import pytest

import ringtrap.analysis
from ringtrap import (
    Geometry,
    analyze_trap,
    azimuthal_profile,
    classify_geometry,
    criteria_report,
    dressed_potential,
    frequency_sweep,
    resonance_radius,
    trap_frequencies,
)
from ringtrap.analysis import _escape_depth
from ringtrap.constants import G_ACCEL, HBAR, MU_B, RB87
from ringtrap.errors import NotAMinimumError
from ringtrap.minimize import find_minimum

from conftest import (
    B07,
    B02,
    OMEGA_15MHZ,
    count_kernel_calls,
    make_trap,
    reference_configs,
)


# -- resonance radius --------------------------------------------------------

def test_resonance_radius_hand_computed(fig2b):
    expected = HBAR * OMEGA_15MHZ / (0.5 * MU_B * 1.0)
    assert resonance_radius(fig2b) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(2.1434e-4, rel=1e-4)


def test_resonance_radius_linear_in_omega(fig2b):
    doubled = fig2b.with_rf(omega=2 * OMEGA_15MHZ)
    assert resonance_radius(doubled) == pytest.approx(2 * resonance_radius(fig2b), rel=1e-14)


def test_resonance_radius_inverse_in_gradient():
    cfg1 = make_trap(b_x=B07, gradient=1.0)
    cfg2 = make_trap(b_x=B07, gradient=2.0)
    assert resonance_radius(cfg2) == pytest.approx(resonance_radius(cfg1) / 2, rel=1e-14)


# -- azimuthal profile -------------------------------------------------------

def test_profile_flat_for_circular(fig2b):
    prof = azimuthal_profile(fig2b, n_phi=64)
    pots = prof.potentials
    assert (pots.max() - pots.min()) / pots.max() < 1e-9
    radii = prof.radii
    assert radii.std() / radii.mean() < 1e-6  # azimuth-independent ring radius


def test_profile_double_well_for_linear(fig2a):
    prof = azimuthal_profile(fig2a, n_phi=64)
    pots = prof.potentials
    phis = prof.azimuths
    # two equal zero minima at phi = 0 and pi, barriers at +-pi/2
    assert pots[phis == 0.0][0] == pytest.approx(0.0, abs=1e-6 * prof.energy_scale)
    i_pi = int(np.argmin(np.abs(phis - np.pi)))
    assert pots[i_pi] == pytest.approx(0.0, abs=1e-6 * prof.energy_scale)
    i_top = int(np.argmin(np.abs(phis - np.pi / 2)))
    i_bot = int(np.argmin(np.abs(phis - 3 * np.pi / 2)))
    expected_barrier = 0.5 * MU_B * B07  # m_F hbar Omega_0 at the y axis
    assert pots[i_top] == pytest.approx(expected_barrier, rel=1e-6)
    assert pots[i_bot] == pytest.approx(expected_barrier, rel=1e-6)
    assert prof.barrier_height() == pytest.approx(expected_barrier, rel=1e-6)


def test_profile_brute_force_oracle(fig2a):
    # valley floor at each azimuth vs a dense 1D radial scan
    prof = azimuthal_profile(fig2a, n_phi=8)
    r0 = prof.resonance_radius
    from ringtrap import dressed_potential

    for phi, v in zip(prof.azimuths[:4], prof.potentials[:4]):
        rr = np.linspace(0.2 * r0, 3 * r0, 20001)
        pts = np.stack([rr * math.cos(phi), rr * math.sin(phi), np.zeros_like(rr)], axis=-1)
        dense = dressed_potential(pts, fig2a).min()
        assert v <= dense + 1e-45


def test_profile_fig2c_open_ring(fig2c):
    prof = azimuthal_profile(fig2c, n_phi=64)
    pots = prof.potentials
    rabis = prof.rabis
    # modulated but open: the valley coupling never closes
    assert (pots.max() - pots.min()) > 0.1 * prof.energy_scale / 10
    assert rabis.min() > 0.2 * rabis.max()
    # valley floor value at phi=0: m_F hbar C B_z (the x-axis minimum)
    expected = RB87.m_F * HBAR * (0.5 * MU_B / (2 * HBAR)) * B02
    assert pots[0] == pytest.approx(expected, rel=1e-6)


def test_profile_z_band_finds_lower_valley(fig2c):
    # the zx coupling term lowers the valley off the z=0 plane
    flat = azimuthal_profile(fig2c, n_phi=16)
    banded = azimuthal_profile(fig2c, n_phi=16, z_band=0.3 * resonance_radius(fig2c))
    assert banded.potentials[0] < flat.potentials[0]
    assert abs(banded.z[0]) > 1e-6


def test_profile_requires_min_azimuths(fig2a):
    with pytest.raises(ValueError):
        azimuthal_profile(fig2a, n_phi=4)


# -- classifier --------------------------------------------------------------

def test_classify_fig2_regimes(fig2a, fig2b, fig2c):
    assert classify_geometry(azimuthal_profile(fig2a)).geometry is Geometry.DOUBLE_WELL
    assert classify_geometry(azimuthal_profile(fig2b)).geometry is Geometry.SYMMETRIC_RING
    assert classify_geometry(azimuthal_profile(fig2c)).geometry is Geometry.ASYMMETRIC_RING


def test_classify_center_trap_when_undressed():
    prof = azimuthal_profile(make_trap(), n_phi=64)
    assert classify_geometry(prof).geometry is Geometry.CENTER_TRAP


def test_classify_amplitude_scaling_invariance(fig2a, fig2b):
    for c in (0.5, 2.0):
        a = make_trap(b_x=c * B07)
        b = make_trap(b_x=c * B07, b_y=c * B07, alpha=-np.pi / 2)
        assert classify_geometry(azimuthal_profile(a)).geometry is Geometry.DOUBLE_WELL
        assert classify_geometry(azimuthal_profile(b)).geometry is Geometry.SYMMETRIC_RING


def test_classify_gravity_distorted_ring():
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    cls = classify_geometry(azimuthal_profile(cfg))
    assert cls.geometry is Geometry.ASYMMETRIC_RING


def test_classify_requires_64_azimuths(fig2a):
    prof = azimuthal_profile(fig2a, n_phi=32)
    with pytest.raises(ValueError):
        classify_geometry(prof)


# -- trap frequencies --------------------------------------------------------

@pytest.fixture(scope="module")
def gravity_ring_minimum():
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    r0 = resonance_radius(cfg)
    box = (np.array([-2 * r0, -2 * r0, -0.45 * r0]), np.array([2 * r0, 2 * r0, 0.45 * r0]))
    res = find_minimum(cfg, [1e-9, -1.05 * r0, 0.0], bounds=box)
    return cfg, res


def test_quasi_2d_ratio(gravity_ring_minimum):
    cfg, res = gravity_ring_minimum
    freqs = trap_frequencies(cfg, res.position)
    assert freqs.omega_rho > 0 and freqs.omega_z > 0
    assert freqs.omega_z / freqs.omega_rho > 1.0
    assert all(l >= 0 for l in freqs.eigenvalues)


def test_frequencies_against_fd_eigenvalues(gravity_ring_minimum):
    # oracle: omega = sqrt(lambda/m) for the sorted Hessian eigenvalues
    from ringtrap import potential_hessian

    cfg, res = gravity_ring_minimum
    freqs = trap_frequencies(cfg, res.position)
    lam = np.linalg.eigvalsh(potential_hessian(res.position, cfg))
    got = np.sort([freqs.omega_rho, freqs.omega_z, freqs.omega_phi])
    expected = np.sort(np.sqrt(np.maximum(lam, 0) / RB87.mass))
    np.testing.assert_allclose(got, expected, rtol=1e-6)


def test_cusp_point_rejected(fig2a):
    r0 = resonance_radius(fig2a)
    with pytest.raises(NotAMinimumError):
        trap_frequencies(fig2a, [r0, 0.0, 0.0])


def test_non_minimum_rejected(fig2b):
    r0 = resonance_radius(fig2b)
    # the lifted trap center is a local max along rho: negative curvature
    with pytest.raises(NotAMinimumError):
        trap_frequencies(fig2b, [0.3 * r0, 0.0, 0.0])


# -- criteria ----------------------------------------------------------------

def test_kappa_value(fig2b):
    rep = criteria_report(fig2b)
    expected = 0.5 * 2 * MU_B * 1.0 / (RB87.mass * G_ACCEL)
    assert rep.kappa == pytest.approx(expected, rel=1e-12)
    assert rep.kappa == pytest.approx(6.553, abs=1e-3)


def test_kappa_linear_in_m_f(fig2b):
    from ringtrap import AtomSpecies

    atom1 = AtomSpecies(mass=RB87.mass, g_F=0.5, m_F=1)
    cfg1 = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, atom=atom1)
    assert criteria_report(cfg1).kappa == pytest.approx(
        criteria_report(fig2b).kappa / 2, rel=1e-12
    )


def test_omega_over_rabi_circular(fig2b):
    rep = criteria_report(fig2b)
    expected = OMEGA_15MHZ / (0.5 * MU_B * B07 / (2 * HBAR))
    assert rep.omega_over_rabi == pytest.approx(expected, rel=1e-9)
    assert rep.omega_over_rabi == pytest.approx(6.124, abs=2e-3)
    assert rep.coupling_dominated is (rep.omega_over_rabi < rep.kappa)
    assert rep.coupling_dominated


def test_coupling_dominated_flag_flips_with_gradient():
    # 0.476 G circular puts omega/Omega at ~9; scaling B_q moves kappa across it
    b9 = 0.476e-4
    low = make_trap(b_x=b9, b_y=b9, alpha=-np.pi / 2, gradient=1.3)
    high = make_trap(b_x=b9, b_y=b9, alpha=-np.pi / 2, gradient=1.45)
    rep_low, rep_high = criteria_report(low), criteria_report(high)
    assert rep_low.omega_over_rabi == pytest.approx(9.006, abs=2e-3)
    assert not rep_low.coupling_dominated
    assert rep_high.coupling_dominated
    assert rep_low.coupling_dominated is (rep_low.omega_over_rabi < rep_low.kappa)
    assert rep_high.coupling_dominated is (rep_high.omega_over_rabi < rep_high.kappa)


def test_zero_coupling_reports_infinity():
    rep = criteria_report(make_trap())
    assert math.isinf(rep.omega_over_rabi)
    assert not rep.coupling_dominated


# -- sweep -------------------------------------------------------------------

def test_sweep_slope_matches_formula(fig2b):
    freqs_mhz = np.linspace(0.5, 3.0, 11)
    rows = frequency_sweep(fig2b, 2 * np.pi * 1e6 * freqs_mhz)
    radii_um = np.array([r.resonance_radius for r in rows]) * 1e6
    coef = np.polyfit(freqs_mhz, radii_um, 1)
    expected_slope = 2 * np.pi * 1e6 * HBAR / (0.5 * MU_B * 1.0) * 1e6
    assert expected_slope == pytest.approx(142.9, abs=0.05)
    assert coef[0] == pytest.approx(expected_slope, rel=1e-9)
    # R^2 = 1 to machine precision
    fit = np.polyval(coef, freqs_mhz)
    ss_res = np.sum((radii_um - fit) ** 2)
    ss_tot = np.sum((radii_um - radii_um.mean()) ** 2)
    assert 1 - ss_res / ss_tot > 1 - 1e-12


def test_sweep_numeric_tracks_resonance(fig2b):
    rows = frequency_sweep(fig2b, 2 * np.pi * 1e6 * np.linspace(0.5, 3.0, 6))
    for r in rows:
        assert r.numeric_radius == pytest.approx(r.resonance_radius, rel=0.02)
        assert r.geometry is Geometry.SYMMETRIC_RING


def test_sweep_single_row_matches_direct(fig2a):
    rows = frequency_sweep(fig2a, [OMEGA_15MHZ])
    prof = azimuthal_profile(fig2a)
    assert len(rows) == 1
    assert rows[0].numeric_radius == pytest.approx(prof.numeric_radius(), rel=1e-12)
    assert rows[0].barrier_height == pytest.approx(prof.barrier_height(), rel=1e-12)
    assert rows[0].geometry is Geometry.DOUBLE_WELL


def test_sweep_per_row_failure_recorded(fig2b):
    omegas = [OMEGA_15MHZ, 2 * OMEGA_15MHZ]
    amps = [(B07, B07, 0.0), (-1.0e-4, 0.0, 0.0)]  # invalid amplitude on row 2
    rows = frequency_sweep(fig2b, omegas, amplitudes=amps)
    assert rows[0].error is None and rows[0].geometry is Geometry.SYMMETRIC_RING
    assert rows[1].error is not None and rows[1].geometry is None


def test_sweep_propagates_programming_errors(fig2b, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in the profile")

    monkeypatch.setattr(ringtrap.analysis, "azimuthal_profile", broken)
    with pytest.raises(TypeError, match="bug in the profile"):
        frequency_sweep(fig2b, [OMEGA_15MHZ])


def test_sweep_zero_amplitude_center_trap(fig2b):
    omegas = [OMEGA_15MHZ, 2 * OMEGA_15MHZ]
    amps = [(B07, B07, 0.0), (0.0, 0.0, 0.0)]
    rows = frequency_sweep(fig2b, omegas, amplitudes=amps, n_phi=64)
    assert rows[0].geometry is Geometry.SYMMETRIC_RING
    assert rows[1].geometry is Geometry.CENTER_TRAP
    assert all(r.error is None for r in rows)


def test_sweep_rejects_empty_and_negative(fig2b):
    with pytest.raises(ValueError):
        frequency_sweep(fig2b, [])
    with pytest.raises(ValueError):
        frequency_sweep(fig2b, [-1.0])


# -- analyze_trap ------------------------------------------------------------

def test_analyze_double_well_minima_sorted(fig2a):
    analysis = analyze_trap(fig2a)
    assert analysis.geometry is Geometry.DOUBLE_WELL
    assert len(analysis.minima) == 2
    vs = [v for _, v, _ in analysis.minima]
    assert vs == sorted(vs)
    azims = sorted(a for _, _, a in analysis.minima)
    assert azims[0] == pytest.approx(0.0, abs=1e-9)
    assert azims[1] == pytest.approx(np.pi, rel=1e-9)
    assert analysis.omega_rho is None  # cusp wells: no harmonic frequencies


def test_analyze_gravity_ring_reports_frequencies():
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    analysis = analyze_trap(cfg)
    assert analysis.geometry is Geometry.ASYMMETRIC_RING
    assert analysis.omega_z is not None and analysis.omega_rho is not None
    assert analysis.omega_z / analysis.omega_rho > 1
    assert analysis.depth > 0
    assert analysis.barrier_height >= 0
    assert analysis.minimum.stationary


def escape_depth_per_ray(cfg, origin, v_min, r0):
    """The ray scan with one kernel call and one Python loop per ray."""
    step = r0 / 200.0
    depths = []
    for direction in np.vstack([np.eye(3), -np.eye(3)]):
        pts = origin[None, :] + step * np.arange(1, 801)[:, None] * direction
        vals = dressed_potential(pts, cfg)
        peak = v_min
        for k in range(len(vals) - 1):
            if vals[k] > peak:
                peak = vals[k]
            if vals[k] > v_min and vals[k + 1] < vals[k]:
                break
        depths.append(peak - v_min)
    return float(min(depths))


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_escape_depth_matches_per_ray_oracle(name, monkeypatch):
    # origins: the valley floor (rays turn over), the trap centre (every ray
    # climbs to its end) and a generic point
    cfg = reference_configs()[name]
    r0 = resonance_radius(cfg)
    prof = azimuthal_profile(cfg)
    floor = prof.position(int(np.argmin(prof.potentials)))
    calls = count_kernel_calls(monkeypatch, ringtrap.analysis)
    for origin in (floor, np.zeros(3), np.array([0.5 * r0, 0.3 * r0, 0.1 * r0])):
        v = float(dressed_potential(origin, cfg))
        for v_min in (v, v + 1e-3 * RB87.m_F * HBAR * cfg.rf.omega):
            calls.clear()
            got = _escape_depth(cfg, origin, v_min, r0)
            assert len(calls) == 1
            assert np.array_equal(got, escape_depth_per_ray(cfg, origin, v_min, r0))


def test_analyze_notes_refinement_on_box_face(fig2b):
    # the circular ring's refinement leaves the ring plane for the z face of
    # its search box; the gravity ring's stays inside
    face = "minimum refinement stopped on a face of its search box"
    assert any(n.startswith(face) for n in analyze_trap(fig2b).notes)
    gravity = reference_configs()["gravity"]
    assert not any(n.startswith(face) for n in analyze_trap(gravity).notes)


def test_analyze_ring_radius_positive(fig2b):
    analysis = analyze_trap(fig2b)
    assert analysis.ring_radius > 0
    assert analysis.ring_radius == pytest.approx(analysis.resonance_radius, rel=1e-6)
