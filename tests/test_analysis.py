import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import ringtrap.analysis
import ringtrap.dressed
import ringtrap.fields
import ringtrap.valley
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
from ringtrap.analysis import (
    MIN_MESH_STEP,
    MinimizationResult,
    _coupling_holes,
    _escape_depth,
    _field_direction,
    _floor_gradient,
    _frames,
    _map_minima,
    _probe,
    _shell_floor,
    _trust_steps,
    _turn,
    shell_minimum,
)
from ringtrap.constants import G_ACCEL, HBAR, K_B, MU_B, RB87
from ringtrap.errors import NotAMinimumError
from ringtrap.limits import MAX_PROFILE_AZIMUTHS, PROFILE_BATCH_POINTS, ClassifierTolerances
from ringtrap.valley import (
    _GEOMETRIES,
    CENTER_TRAP_COUPLING,
    AzimuthalProfile,
    Classification,
    SweepPoint,
    _classify_rows,
    _ray_floor,
)

from conftest import (
    B07,
    B02,
    OMEGA_15MHZ,
    count_coupling_calls,
    count_kernel_calls,
    grid_global_min,
    make_trap,
    reference_configs,
    richardson_gradient,
    traced_growth,
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
    banded = azimuthal_profile(fig2c, n_phi=16, z_band_factor=0.3)
    assert banded.potentials[0] < flat.potentials[0]
    assert abs(banded.z[0]) > 1e-6


def test_profile_z_band_ties_keep_the_plane(fig2a):
    # at phi = 90 and 270 degrees the x-linear rf is normal to every field
    # direction of the meridian, so every ray slope ties in V: the floor is
    # the one nearest the plane, the plane's own
    flat = azimuthal_profile(fig2a, n_phi=64)
    banded = azimuthal_profile(fig2a, n_phi=64, z_band_factor=0.3)
    for i in (16, 48):
        assert banded.z[i] == 0.0 and not np.signbit(banded.z[i])
        assert banded.radii[i] == flat.radii[i]
        assert banded.potentials[i] == flat.potentials[i]


def test_profile_requires_min_azimuths(fig2a):
    with pytest.raises(ValueError):
        azimuthal_profile(fig2a, n_phi=4)


def test_profile_rejects_more_azimuths_than_its_limit(fig2a):
    # the config's limit; 10^12 azimuths would ask numpy for terabytes
    with pytest.raises(ValueError, match=f"at most {MAX_PROFILE_AZIMUTHS}"):
        azimuthal_profile(fig2a, n_phi=MAX_PROFILE_AZIMUTHS + 1)
    with pytest.raises(ValueError, match=f"at most {MAX_PROFILE_AZIMUTHS}"):
        azimuthal_profile(fig2a, n_phi=10**12)
    assert azimuthal_profile(fig2a, n_phi=MAX_PROFILE_AZIMUTHS).radii.shape == (
        MAX_PROFILE_AZIMUTHS,
    )


def plane_zoom_profile(cfg, n_phi, rho_factors):
    """The z = 0 grid zoom the profile used before its closed form: (radii, V)."""
    n_rho, zoom_iters = 96, 7
    r0 = resonance_radius(cfg)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    cosp, sinp = np.cos(phis), np.sin(phis)
    rho_lo = np.full(n_phi, rho_factors[0] * r0)
    rho_hi = np.full(n_phi, rho_factors[1] * r0)
    for _ in range(zoom_iters):
        frac_r = np.linspace(0.0, 1.0, n_rho)
        rr = rho_lo[None, :] + (rho_hi - rho_lo)[None, :] * frac_r[:, None]
        pts = np.stack([rr * cosp, rr * sinp, np.zeros_like(rr)], axis=-1)
        vals = dressed_potential(pts, cfg)
        k = np.argmin(vals, axis=0)
        best_v = vals[k, np.arange(n_phi)]
        best_rho = rr[k, np.arange(n_phi)]
        half_r = 2.5 * (rho_hi - rho_lo) / (n_rho - 1)
        rho_lo = np.clip(best_rho - half_r, rho_factors[0] * r0, None)
        rho_hi = np.clip(best_rho + half_r, None, rho_factors[1] * r0)
    return best_rho, best_v


def banded_zoom_profile(cfg, n_phi, rho_factors, z_band_factor):
    """The (rho, z) grid zoom the profile used with a z band before it
    zoomed over ray slopes: (radii, z, V)."""
    n_rho, n_z, zoom_iters = 96, 25, 7
    r0 = resonance_radius(cfg)
    rho_min, rho_max, z_band = rho_factors[0] * r0, rho_factors[1] * r0, z_band_factor * r0
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    cosp, sinp = np.cos(phis), np.sin(phis)
    rho_lo = np.full(n_phi, rho_min)
    rho_hi = np.full(n_phi, rho_max)
    z_lo = np.full(n_phi, -z_band)
    z_hi = np.full(n_phi, z_band)
    for _ in range(zoom_iters):
        frac_r = np.linspace(0.0, 1.0, n_rho)
        rr = rho_lo[None, :] + (rho_hi - rho_lo)[None, :] * frac_r[:, None]
        frac_z = np.linspace(0.0, 1.0, n_z)
        zz = z_lo[None, :] + (z_hi - z_lo)[None, :] * frac_z[:, None]
        pts = np.empty((n_rho, n_z, n_phi, 3))
        pts[..., 0] = rr[:, None, :] * cosp
        pts[..., 1] = rr[:, None, :] * sinp
        pts[..., 2] = zz[None, :, :]
        vals = dressed_potential(pts, cfg)
        flat = vals.reshape(-1, n_phi)
        kmin = np.argmin(flat, axis=0)
        ir, iz = np.unravel_index(kmin, vals.shape[:2])
        best_v = flat[kmin, np.arange(n_phi)]
        best_rho = rr[ir, np.arange(n_phi)]
        best_z = zz[iz, np.arange(n_phi)]
        half_r = 2.5 * (rho_hi - rho_lo) / (n_rho - 1)
        rho_lo = np.clip(best_rho - half_r, rho_min, None)
        rho_hi = np.clip(best_rho + half_r, None, rho_max)
        half_z = 2.5 * (z_hi - z_lo) / (n_z - 1)
        z_lo = np.clip(best_z - half_z, -z_band, None)
        z_hi = np.clip(best_z + half_z, None, z_band)
    return best_rho, best_z, best_v


#: below this |Omega| / omega the valley section is a cone whose tip the
#: zoom's final cell misses by up to ~1e-10 m_F hbar omega
CONE_COUPLING = 1e-6


def assert_plane_profile_matches_zoom(cfg, n_phi, rho_factors):
    prof = azimuthal_profile(cfg, n_phi=n_phi, rho_factors=rho_factors)
    radii, pots = plane_zoom_profile(cfg, n_phi, rho_factors)
    r0 = prof.resonance_radius
    tol = 1e-14 * prof.energy_scale
    assert np.all(prof.potentials <= pots + tol)
    assert np.all(np.abs(prof.radii - radii) <= 1e-6 * r0)
    cone = prof.rabis < CONE_COUPLING * cfg.rf.omega
    assert np.all(np.abs(prof.potentials - pots)[~cone] <= tol)
    # on a cone V lies within E = m_F hbar |Omega| above the piecewise-linear
    # section, whose window minimum is at an edge or at the tip rho = r0
    candidates = np.clip([rho_factors[0] * r0, r0, rho_factors[1] * r0],
                         rho_factors[0] * r0, rho_factors[1] * r0)
    for i in np.flatnonzero(cone):
        phi = prof.azimuths[i]
        pts = candidates[:, None] * np.array([math.cos(phi), math.sin(phi), 0.0])
        best = dressed_potential(pts, cfg).min()
        e = cfg.atom.m_F * HBAR * prof.rabis[i]
        assert best - e - tol <= prof.potentials[i] <= best + tol


def _plane_cases():
    cases = {}
    for name, cfg in reference_configs().items():
        for n_phi in (64, 256):
            cases[f"{name}-{n_phi}"] = (cfg, n_phi, (0.2, 3.0))
        for window in ((0.999, 1.001), (1.2, 3.0)):
            cases[f"{name}-{window}"] = (cfg, 64, window)
    for gradient in (0.1, 0.152):  # kappa = 0.66 and 0.996: some rays slide
        for label, cfg in (
            ("circular", make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2,
                                   gradient=gradient, gravity=True)),
            ("linear", make_trap(b_x=B07, gradient=gradient, gravity=True)),
        ):
            cases[f"{label}-kappa-below-1-{gradient}"] = (cfg, 64, (0.2, 3.0))
    return cases


@pytest.mark.parametrize("case", sorted(_plane_cases()))
def test_plane_profile_matches_zoom_oracle(case):
    assert_plane_profile_matches_zoom(*_plane_cases()[case])


@given(
    amps=st.tuples(*[st.floats(0.0, 1e-4)] * 3),
    phases=st.tuples(*[st.floats(-np.pi, np.pi)] * 2),
    gradient=st.floats(0.05, 2.0),
    gravity=st.booleans(),
    rho_lo=st.floats(0.1, 1.5),
    width=st.floats(1e-3, 3.0),
)
def test_plane_profile_matches_zoom_property(amps, phases, gradient, gravity, rho_lo, width):
    cfg = make_trap(*amps, *phases, gradient=gradient, gravity=gravity)
    assert_plane_profile_matches_zoom(cfg, 64, (rho_lo, rho_lo + width))


@pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c"])
def test_plane_radii_are_resonance_radius_without_gravity(name):
    cfg = reference_configs()[name]
    prof = azimuthal_profile(cfg, n_phi=256)
    assert np.all(prof.radii == resonance_radius(cfg))


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_plane_profile_makes_one_kernel_call(name, monkeypatch):
    # one call: the coupling on the 256 ray directions; V along each ray is
    # its closed form
    shapes = count_coupling_calls(monkeypatch)
    azimuthal_profile(reference_configs()[name], n_phi=256)
    assert shapes == [(256, 3)]


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_plane_z_is_positive_zero(name):
    # a -0.0 would print as "-0.0" in analysis.txt
    z = azimuthal_profile(reference_configs()[name], n_phi=64).z
    assert np.all(z == 0.0) and not np.signbit(z).any()


def assert_band_profile_holds(cfg, n_phi, rho_factors, z_band_factor):
    prof = azimuthal_profile(
        cfg, n_phi=n_phi, rho_factors=rho_factors, z_band_factor=z_band_factor
    )
    plane = azimuthal_profile(cfg, n_phi=n_phi, rho_factors=rho_factors)
    _, _, zoom = banded_zoom_profile(cfg, n_phi, rho_factors, z_band_factor)
    r0 = prof.resonance_radius
    assert np.all(prof.potentials <= zoom + 1e-14 * prof.energy_scale)
    assert np.all(prof.potentials <= plane.potentials)
    assert np.all(np.abs(prof.z) <= z_band_factor * r0)
    assert np.all(prof.radii >= rho_factors[0] * r0)
    assert np.all(prof.radii <= rho_factors[1] * r0)


def _band_cases():
    cases = {}
    bands = (1e-6, 0.3, 2.0)
    for name, cfg in reference_configs().items():
        for band in bands:
            for n_phi in (64, 256):
                cases[f"{name}-{n_phi}-{band}"] = (cfg, n_phi, (0.2, 3.0), band)
            for window in ((0.999, 1.001), (1.2, 3.0)):
                cases[f"{name}-{window}-{band}"] = (cfg, 64, window, band)
    for label, (cfg, n_phi, window) in _plane_cases().items():
        if "kappa-below-1" in label:
            for band in bands:
                cases[f"{label}-{band}"] = (cfg, n_phi, window, band)
            # gravity pins the floor to the corner (rho_min, +-z_band), and
            # z_band / (z_band / rho_min) rounds below rho_min
            cases[f"{label}-corner"] = (cfg, n_phi, (0.22, 3.0), 0.3)
    # valleys at +z and -z within ~3e-4 m_F hbar omega of each other: one
    # slope window over the whole band follows the wrong one
    cases["mirror-gravity"] = (
        make_trap(2.55e-5, 8.42e-5, 6.73e-5, -2.62, -3.04, gradient=1.52, gravity=True),
        64, (0.12, 0.45), 1.25,
    )
    cases["mirror"] = (
        make_trap(5.03e-5, 8.55e-5, 9.68e-5, 1.69, -0.495, gradient=0.24),
        64, (0.48, 0.87), 1.12,
    )
    return cases


@pytest.mark.parametrize("case", sorted(_band_cases()))
def test_band_profile_below_zoom_and_plane(case):
    assert_band_profile_holds(*_band_cases()[case])


@given(
    amps=st.tuples(*[st.floats(0.0, 1e-4)] * 3),
    phases=st.tuples(*[st.floats(-np.pi, np.pi)] * 2),
    gradient=st.floats(0.05, 2.0),
    gravity=st.booleans(),
    rho_lo=st.floats(0.1, 1.5),
    width=st.floats(1e-3, 3.0),
    band=st.floats(1e-6, 2.0),
)
def test_band_profile_below_zoom_and_plane_property(
    amps, phases, gradient, gravity, rho_lo, width, band
):
    cfg = make_trap(*amps, *phases, gradient=gradient, gravity=gravity)
    assert_band_profile_holds(cfg, 16, (rho_lo, rho_lo + width), band)


#: the profile potential against the kernel at the profile's position, in
#: units of eps m_F hbar omega (1 + (R / r0) (1 + 1 / kappa)), the last term
#: with gravity only: each side rounds A R, A r0, E and m g R a few times, to
#: a few ulps of each term's size (at most 1.2 over 3,000 random profiles)
CLOSED_FORM_ULPS = 8


@given(
    amps=st.tuples(*[st.floats(0.0, 1e-4)] * 3),
    phases=st.tuples(*[st.floats(-np.pi, np.pi)] * 2),
    # kappa < 1 under gravity below 0.153 T/m: rays without a floor
    gradient=st.one_of(st.floats(0.05, 0.15), st.floats(0.15, 2.0)),
    gravity=st.booleans(),
    rho_lo=st.floats(0.1, 1.5),
    width=st.floats(1e-3, 3.0),
    band=st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
)
def test_profile_potential_is_the_kernel_at_its_position_property(
    amps, phases, gradient, gravity, rho_lo, width, band
):
    cfg = make_trap(*amps, *phases, gradient=gradient, gravity=gravity)
    prof = azimuthal_profile(
        cfg, n_phi=16, rho_factors=(rho_lo, rho_lo + width), z_band_factor=band
    )
    pos = np.array([prof.position(i) for i in range(len(prof))])
    x, y, z = pos.T
    big_r = np.sqrt(x * x + y * y + 4 * z * z) / prof.resonance_radius
    atom = cfg.atom
    inv_kappa = atom.mass * G_ACCEL / (atom.g_F * atom.m_F * MU_B * gradient) if gravity else 0.0
    tol = (CLOSED_FORM_ULPS * np.finfo(float).eps * prof.energy_scale
           * (1 + big_r * (1 + inv_kappa)))
    assert np.all(np.abs(prof.potentials - dressed_potential(pos, cfg)) <= tol)


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_band_profile_makes_one_kernel_call_per_pass(name, monkeypatch):
    # one call per pass, the coupling on its ray directions: one slope
    # window per sign of z and azimuth, 2 * 97 * 64 of them within the budget
    shapes = count_coupling_calls(monkeypatch)
    azimuthal_profile(reference_configs()[name], n_phi=64, z_band_factor=0.3)
    n_slopes, passes = ringtrap.valley.PROFILE_ZOOM
    assert shapes == [(n_slopes * 2 * 64, 3)] * passes


def test_band_profile_splits_its_azimuths_within_the_budget(fig2c, monkeypatch):
    # 2 * 97 * 256 ray directions exceed the budget: four parts of 64
    # azimuths, each one kernel call per pass
    shapes = count_coupling_calls(monkeypatch)
    azimuthal_profile(fig2c, n_phi=256, z_band_factor=0.3)
    n_slopes, passes = ringtrap.valley.PROFILE_ZOOM
    assert shapes == [(n_slopes * 2 * 64, 3)] * (4 * passes)
    assert n_slopes * 2 * 64 <= PROFILE_BATCH_POINTS


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_split_band_floors_equal_one_unsplit_call(name):
    # every column is computed with operations of its own, so the floors of
    # the azimuth parts have the bits of one call on all 256 azimuths
    cfg = reference_configs()[name]
    prof = azimuthal_profile(cfg, n_phi=256, z_band_factor=0.3)
    r0 = np.array([[resonance_radius(cfg)]])
    out = np.empty((4, 1, 256))
    ringtrap.valley._valley_floor(
        cfg, np.cos(prof.azimuths), np.sin(prof.azimuths), r0, 0.2 * r0, 3.0 * r0,
        0.3 * r0, out,
    )
    for got, want in zip((prof.radii, prof.z, prof.potentials, prof.rabis), out[:, 0]):
        np.testing.assert_array_equal(got, want)


def test_band_profile_memory_is_bounded_by_the_batch_budget(fig2c):
    # a band pass on 1024 azimuths held all 2 * 97 * 1024 rays at once, a
    # peak of ~34 MiB; split within the budget, the closed form's arrays and
    # the kernel's temporaries on one part take ~21 arrays of the budget
    azimuthal_profile(fig2c, n_phi=64, z_band_factor=0.3)
    tracemalloc.start()
    try:
        _, grown = traced_growth(
            lambda: azimuthal_profile(fig2c, n_phi=1024, z_band_factor=0.3)
        )
    finally:
        tracemalloc.stop()
    assert grown <= 32 * PROFILE_BATCH_POINTS * 8


@pytest.mark.parametrize(
    "rho_factors", [(3.0, 0.2), (1.0, 1.0), (0.0, 3.0), (-0.5, 3.0), (math.nan, 3.0)]
)
def test_bad_rho_window_rejected(fig2b, rho_factors):
    with pytest.raises(ValueError, match="rho window"):
        azimuthal_profile(fig2b, rho_factors=rho_factors)
    with pytest.raises(ValueError, match="rho window"):
        analyze_trap(fig2b, rho_factors=rho_factors)
    # one error before the loop, not one error row per frequency
    with pytest.raises(ValueError, match="rho window"):
        frequency_sweep(fig2b, [OMEGA_15MHZ, 2 * OMEGA_15MHZ], rho_factors=rho_factors)


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


def classify_once(pots, rabis, energy_scale, tol):
    """The classifier's rules on one profile row, azimuth by azimuth: the
    geometry and the minima indices."""
    if rabis.max() < CENTER_TRAP_COUPLING * (energy_scale / HBAR):
        return Geometry.CENTER_TRAP, []
    flat = tol.rel_flat * energy_scale
    if float(pots.max() - pots.min()) < flat:
        return Geometry.SYMMETRIC_RING, []
    n, vmax = len(pots), pots.max()
    minima = [
        i for i in range(n)
        if pots[i] < pots[i - 1] and pots[i] <= pots[(i + 1) % n] and vmax - pots[i] > flat
    ]
    if len(minima) == 2:
        d1, d2 = (float(vmax - pots[i]) for i in minima)
        depths_match = abs(d1 - d2) <= tol.match_depth * max(d1, d2)
        closed = all(rabis[i] <= tol.closure * rabis.max() for i in minima)
        if depths_match and closed:
            return Geometry.DOUBLE_WELL, minima
    return Geometry.ASYMMETRIC_RING, minima


#: tolerances whose thresholds fall exactly on the dyadic rows drawn below
#: (flat 4 levels, matched depths within 1/8, closure 1/4 of the largest
#: coupling), and the default ones
CLASSIFIER_TOLERANCES = [ClassifierTolerances(2**-4, 2**-3, 2**-2), ClassifierTolerances()]


@st.composite
def classifier_rows(draw, n_phi):
    """One profile row in units of its energy scale / 64 and of omega: a
    row of levels 0 to at most 4, with ties and plateaus; two wells on a
    level of 32 (at the ends of the row, where it wraps, or anywhere; depths
    on both sides of the match threshold, couplings on both sides of
    closure); or a row whose largest coupling sits at the centre-trap
    threshold."""
    scale = draw(st.sampled_from([0.25, 1.0, 4.0]))  # m_F hbar omega [J]
    unit, omega = scale / 64, scale / HBAR
    top = draw(st.integers(0, 4))  # spans on both sides of the flat threshold
    levels = st.lists(st.integers(0, top), min_size=n_phi, max_size=n_phi)
    kind = draw(st.sampled_from(["levels", "wells", "centre"]))
    if kind == "wells":
        pots, rabis = np.full(n_phi, 32.0), np.full(n_phi, 16.0)
        at = st.sampled_from([0, n_phi - 1]) | st.integers(0, n_phi - 1)
        i, j = draw(st.lists(at, min_size=2, max_size=2, unique=True))
        deep = draw(st.sampled_from([8, 16, 24, 32]) | st.integers(8, 32))
        pots[i], pots[j] = 32 - deep, 32 - deep + draw(st.integers(0, 5))
        rabis[i], rabis[j] = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        return pots * unit, rabis * omega, scale
    pots = np.array(draw(levels), dtype=float) * unit
    if kind == "levels":
        rabis = draw(st.lists(st.integers(0, 8), min_size=n_phi, max_size=n_phi))
        return pots, np.array(rabis) * omega, scale
    threshold = CENTER_TRAP_COUPLING * omega
    rabis = np.full(n_phi, threshold / 2)
    rabis[draw(st.integers(0, n_phi - 1))] = draw(st.sampled_from(
        [threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, np.inf)]
    ))
    return pots, rabis, scale


@given(st.data(), st.sampled_from([64, 65]), st.sampled_from(CLASSIFIER_TOLERANCES))
def test_batched_classifier_equals_per_row_rules(data, n_phi, tol):
    rows = data.draw(st.lists(classifier_rows(n_phi), min_size=1, max_size=5))
    pots, rabis, scales = (np.array(part) for part in zip(*rows))
    blank = np.zeros_like(pots)
    phis = np.arange(n_phi) * (2 * np.pi / n_phi)
    profile = AzimuthalProfile(phis, blank, blank, pots, rabis, scales, scales)
    codes, minima = _classify_rows(profile, tol)
    for f, (row_pots, row_rabis, scale) in enumerate(rows):
        geometry, indices = classify_once(row_pots, row_rabis, scale, tol)
        halved, _ = classify_once(row_pots, row_rabis, scale, tol.halved())
        assert (_GEOMETRIES[codes[0, f]], _GEOMETRIES[codes[1, f]]) == (geometry, halved)
        got = np.flatnonzero(minima[0, f]).tolist() if codes[0, f] > 1 else []
        assert got == indices
        # classify_geometry is the same pass on one row
        row = AzimuthalProfile(phis, blank[f], blank[f], row_pots, row_rabis, scale, scale)
        assert classify_geometry(row, tol) == Classification(
            geometry, halved is not geometry, tuple(indices)
        )


# -- trap frequencies --------------------------------------------------------

@pytest.fixture(scope="module")
def gravity_ring_minimum():
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    res = shell_minimum(cfg, _field_direction([1e-9, -1.05, 0.0]))
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
    assert rows[0].numeric_radius == prof.numeric_radius()
    assert rows[0].barrier_height == prof.barrier_height()
    assert rows[0].geometry is Geometry.DOUBLE_WELL


def test_sweep_z_band_scales_with_each_row_resonance_radius(fig2c):
    # the band is a fraction of each row's own r0, as the rho window is
    omegas = [0.5 * fig2c.rf.omega, 2.0 * fig2c.rf.omega]
    rows = frequency_sweep(fig2c, omegas, z_band_factor=0.3)
    for w, row in zip(omegas, rows):
        direct = azimuthal_profile(fig2c.with_rf(omega=w), z_band_factor=0.3)
        assert row.numeric_radius == direct.numeric_radius()
        assert row.barrier_height == direct.barrier_height()


def test_sweep_propagates_programming_errors(fig2b, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in the profile")

    monkeypatch.setattr(ringtrap.valley, "azimuthal_profile", broken)
    with pytest.raises(TypeError, match="bug in the profile"):
        frequency_sweep(fig2b, [OMEGA_15MHZ])


def test_sweep_zero_amplitude_center_trap(fig2b):
    omegas = [OMEGA_15MHZ, 2 * OMEGA_15MHZ]
    amps = [(B07, B07, 0.0), (0.0, 0.0, 0.0)]
    rows = frequency_sweep(fig2b, omegas, amplitudes=amps, n_phi=64)
    assert rows[0].geometry is Geometry.SYMMETRIC_RING
    assert rows[1].geometry is Geometry.CENTER_TRAP


def test_sweep_rejects_empty_and_negative(fig2b, monkeypatch):
    # every input is checked before the first kernel call: a bad row raises,
    # even behind a valid group, and no row is profiled or returned
    calls = count_coupling_calls(monkeypatch)
    two = [OMEGA_15MHZ, 2 * OMEGA_15MHZ]
    for omegas, amps in (
        ([], None),
        ([-1.0], None),
        ([0.0], None),
        ([OMEGA_15MHZ, math.nan], None),
        ([OMEGA_15MHZ, math.inf], None),
        (two, [(B07, B07, 0.0)]),
    ):
        with pytest.raises(ValueError):
            frequency_sweep(fig2b, omegas, amplitudes=amps)
    assert calls == []


def test_sweep_per_row_failure_recorded(fig2b, monkeypatch):
    # a bad row is recorded as a ValueError naming it, raised before the
    # valid row ahead of it is profiled: the sweep returns no error rows
    calls = count_coupling_calls(monkeypatch)
    omegas = [OMEGA_15MHZ, 2 * OMEGA_15MHZ]
    amps = [(B07, B07, 0.0), (-1.0e-4, 0.0, 0.0)]  # invalid amplitude on row 2
    with pytest.raises(ValueError, match="non-negative"):
        frequency_sweep(fig2b, omegas, amplitudes=amps)
    assert calls == []


def test_sweep_non_finite_amplitude_is_a_row_error(fig2b, monkeypatch):
    # a NaN amplitude is a bad input: it raises before any kernel call
    calls = count_coupling_calls(monkeypatch)
    with pytest.raises(ValueError, match="finite"):
        frequency_sweep(fig2b, [OMEGA_15MHZ], amplitudes=[(float("nan"), 0.0, 0.0)])
    with pytest.raises(ValueError, match="finite"):
        frequency_sweep(
            fig2b, [OMEGA_15MHZ, 2 * OMEGA_15MHZ],
            amplitudes=[(B07, B07, 0.0), (math.nan, 0.0, 0.0)],
        )
    assert calls == []


def test_sweep_builds_one_config_per_amplitude_group(fig2b, monkeypatch):
    built = []
    with_rf = ringtrap.fields.TrapConfig.with_rf

    def counted(cfg, **changes):
        built.append(changes)
        return with_rf(cfg, **changes)

    monkeypatch.setattr(ringtrap.fields.TrapConfig, "with_rf", counted)
    omegas = list(2 * np.pi * 1e6 * np.linspace(0.5, 3.0, 41))
    frequency_sweep(fig2b, omegas)
    assert built == []  # no table: the one group is the config itself
    # with a table each row is a group of its own, repeated triples too
    amps = [(B07, B07, 0.0), (B07, 0.0, B02)] * 20 + [(B07, B07, 0.0)]
    frequency_sweep(fig2b, omegas, amplitudes=amps)
    assert built == [{"b_x": bx, "b_y": by, "b_z": bz} for bx, by, bz in amps]


#: sweep frequencies of the batched-sweep tests, 0.5 to 3 MHz
SWEEP_OMEGAS = [2 * np.pi * 1e6 * f for f in (0.5, 0.9, 1.5, 2.2, 3.0)]


def one_row_at_a_time(cfg, omegas, amplitudes=None, **profile_args):
    """The sweep rows as profiled one frequency at a time, each from
    ``azimuthal_profile`` of its own config and ``classify_geometry``."""
    rows = []
    for i, w in enumerate(omegas):
        changes = {"omega": w}
        if amplitudes is not None:
            changes.update(zip(("b_x", "b_y", "b_z"), amplitudes[i]))
        prof = azimuthal_profile(cfg.with_rf(**changes), **profile_args)
        cls = classify_geometry(prof)
        rows.append(SweepPoint(
            omega=w,
            resonance_radius=prof.resonance_radius,
            numeric_radius=prof.numeric_radius(),
            barrier_height=prof.barrier_height(),
            geometry=cls.geometry,
            low_confidence=cls.low_confidence,
        ))
    return rows


@pytest.mark.parametrize("band", [0.0, 0.3])
@pytest.mark.parametrize("gravity", [False, True])
@pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c"])
def test_batched_sweep_rows_equal_one_row_at_a_time(name, gravity, band):
    cfg = dataclasses.replace(reference_configs()[name], gravity_on=gravity)
    rows = frequency_sweep(cfg, SWEEP_OMEGAS, n_phi=64, z_band_factor=band)
    assert rows == one_row_at_a_time(cfg, SWEEP_OMEGAS, n_phi=64, z_band_factor=band)


@pytest.mark.parametrize("band", [0.0, 0.3])
def test_batched_sweep_amplitude_table_equals_one_row_at_a_time(fig2b, band):
    # rows 0 and 2 share a triple, row 1 has its own
    amps = [(B07, B07, 0.0), (B07, 0.0, B02), (B07, B07, 0.0)]
    omegas = SWEEP_OMEGAS[:3]
    rows = frequency_sweep(fig2b, omegas, amplitudes=amps, n_phi=64, z_band_factor=band)
    expected = one_row_at_a_time(fig2b, omegas, amps, n_phi=64, z_band_factor=band)
    assert rows == expected
    assert rows[0].geometry is rows[2].geometry is Geometry.SYMMETRIC_RING
    assert rows[1].geometry is not Geometry.SYMMETRIC_RING


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_plane_sweep_makes_one_kernel_call_per_amplitude_group(name, monkeypatch):
    cfg = reference_configs()[name]
    # one call per group: the coupling on the plane's 256 ray directions,
    # which do not depend on the frequency; each table row is a group
    shapes = count_coupling_calls(monkeypatch)
    frequency_sweep(cfg, SWEEP_OMEGAS, n_phi=256)
    assert shapes == [(256, 3)]
    shapes.clear()
    amps = [(B07, B07, 0.0), (B07, 0.0, B02), (B07, B07, 0.0), (B07, 0.0, B02), (B07, B07, 0.0)]
    frequency_sweep(cfg, SWEEP_OMEGAS, amplitudes=amps, n_phi=256)
    assert shapes == [(256, 3)] * 5


def test_sweep_batches_are_bounded_by_the_point_budget(fig2c, monkeypatch):
    # a full batch of PROFILE_BATCH_POINTS // 256 frequencies, then one of
    # 6, each one kernel call on the 256 ray directions
    per_batch = PROFILE_BATCH_POINTS // 256
    omegas = list(2 * np.pi * 1e6 * np.linspace(0.5, 3.0, per_batch + 6))
    batches = []
    valley_floor = ringtrap.valley._valley_floor

    def counted(cfg, cosp, sinp, r0, *args):
        batches.append(len(r0))
        return valley_floor(cfg, cosp, sinp, r0, *args)

    monkeypatch.setattr(ringtrap.valley, "_valley_floor", counted)
    shapes = count_coupling_calls(monkeypatch)
    rows = frequency_sweep(fig2c, omegas, n_phi=256)
    assert batches == [per_batch, 6]
    assert shapes == [(256, 3)] * 2
    monkeypatch.undo()
    assert rows == one_row_at_a_time(fig2c, omegas, n_phi=256)


def test_warm_sweep_grows_by_nine_row_arrays(fig2b):
    # the 41 x 256 sweep: the profile's four (41, 256) arrays, and the
    # closed form's R*, clipped rho, R and V; the rest, such as the 256 ray
    # directions and numpy's ufunc buffer, takes less than one more such array
    omegas = list(2 * np.pi * 1e6 * np.linspace(0.5, 3.0, 41))
    frequency_sweep(fig2b, omegas, n_phi=256)
    block = 41 * 256 * 8
    tracemalloc.start()
    try:
        _, grown = traced_growth(lambda: frequency_sweep(fig2b, omegas, n_phi=256))
    finally:
        tracemalloc.stop()
    assert grown <= 9 * block


def test_band_sweep_profiles_one_frequency_per_batch(fig2c, monkeypatch):
    # a band row is 2 * 97 slopes per azimuth, above the budget at n_phi = 64:
    # one kernel call per pass of each frequency
    n_slopes, passes = ringtrap.valley.PROFILE_ZOOM
    shapes = count_coupling_calls(monkeypatch)
    frequency_sweep(fig2c, SWEEP_OMEGAS[:2], n_phi=64, z_band_factor=0.3)
    assert shapes == [(n_slopes * 2 * 64, 3)] * (passes * 2)


def test_profile_of_several_frequencies_rejects_a_bad_one(fig2b):
    for bad in (0.0, -OMEGA_15MHZ, math.inf, math.nan):
        with pytest.raises(ValueError, match="dressing frequencies"):
            azimuthal_profile(fig2b, omegas=[OMEGA_15MHZ, bad])


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


def test_escape_depth_rays_are_c_contiguous(fig2c, monkeypatch):
    # the kernel reads each of the three (6 rays, 800 steps) coordinate
    # arrays in C order, with no stride between rays
    seen = []

    def spy(r, cfg, *args, **kwargs):
        seen.append([(c.shape, c.flags.c_contiguous) for c in r])
        return dressed_potential(r, cfg, *args, **kwargs)

    monkeypatch.setattr(ringtrap.analysis, "dressed_potential", spy)
    r0 = resonance_radius(fig2c)
    _escape_depth(fig2c, np.array([0.5 * r0, 0.3 * r0, 0.1 * r0]), 0.0, r0)
    assert seen == [[((6, 800), True)] * 3]


CUSP_NOTE = "coupling-closed (cusp) minimum; harmonic frequencies undefined"

#: how near fig2b's pole hole its refinement ends, in units of r0: there
#: |Omega| = C B theta^2 / 2 to leading order in the angle theta from the
#: pole, so near circular polarisation the hole moves by ~sqrt(eps) ~ 1e-8
#: rad with the rounding of its closed form
POLE_TOLERANCE = 5e-8


def test_fig2b_refinement_reaches_the_pole_hole(fig2b):
    # circular xy rf: |Omega| = C B |1 + n_z| closes only at n = (0, 0, -1),
    # the point (0, 0, r0 / 2) above the ring plane
    got = analyze_trap(fig2b)
    r0 = got.resonance_radius
    pole = np.array([0.0, 0.0, 0.5 * r0])
    assert np.linalg.norm(got.minimum.position - pole) <= POLE_TOLERANCE * r0
    assert got.notes == (CUSP_NOTE,)
    assert got.refined_minimum is None
    assert got.minimum.value <= 1e-15 * RB87.m_F * HBAR * fig2b.rf.omega


def test_flat_ring_descent_is_start_independent(fig2b):
    # every azimuth of the flat ring ties in the profile; from each of them
    # the descent reaches the same hole and the same escape depth
    r0 = resonance_radius(fig2b)
    prof = azimuthal_profile(fig2b, n_phi=64)
    ends = [
        shell_minimum(fig2b, np.array([math.cos(p), math.sin(p), 0.0]))
        for p in prof.azimuths
    ]
    pole = np.array([0.0, 0.0, 0.5 * r0])
    for end in ends:
        assert np.linalg.norm(end.position - pole) <= POLE_TOLERANCE * r0
    depths = np.array([_escape_depth(fig2b, e.position, e.value, r0) for e in ends])
    assert depths.max() - depths.min() <= 1e-9 * depths.max()


def linear_hole(cfg, start):
    """The coupling hole of linear rf (b = 0) nearest ``start``: the ray
    floor of n = +-a / |a|, and n . a of the start direction."""
    rf = cfg.rf
    a = np.array([rf.b_x, rf.b_y * math.cos(rf.alpha), rf.b_z * math.cos(rf.beta)])
    n = a / np.linalg.norm(a)
    towards = float(_field_direction(start) @ n)
    n = math.copysign(1.0, towards) * n
    u = n * np.array([1.0, 1.0, -0.5])
    return float(_ray_floor(cfg, u)[0]) * u, towards


#: how near a conical hole the refinement ends: the fine precision of the
#: shell polish, MIN_MESH_STEP of position, along each of its two tangent
#: axes; the closed form lands within rounding of it
HOLE_TOLERANCE = 2 * MIN_MESH_STEP


@pytest.mark.parametrize("name", ["fig2a", "fig2c"])
def test_linear_rf_descent_ends_in_the_hole_along_a(name):
    cfg = reference_configs()[name]
    got = analyze_trap(cfg)
    hole, _ = linear_hole(cfg, got.minima[0][0])
    assert np.linalg.norm(got.minimum.position - hole) <= HOLE_TOLERANCE
    assert not got.minimum.smooth


@given(
    amps=st.tuples(*[st.floats(1e-6, 1e-4)] * 3),
    phases=st.tuples(*[st.sampled_from([0.0, np.pi])] * 2),
    gradient=st.floats(0.05, 2.0),
)
def test_linear_rf_descent_ends_in_the_hole_along_a_property(amps, phases, gradient):
    cfg = make_trap(*amps, *phases, gradient=gradient)
    got = analyze_trap(cfg)
    hole, towards = linear_hole(cfg, got.minima[0][0])
    if abs(towards) > 1e-3:  # the start is not on the ridge between the holes
        assert np.linalg.norm(got.minimum.position - hole) <= HOLE_TOLERANCE


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_shell_minimum_not_above_box_search_or_grid(name):
    # oracles: criterion 6's brute-force grid over its box, and the search
    # started from the grid's lowest node, as criterion 6 starts it; V at
    # the point analyze_trap found is not above either, up to rounding
    cfg = reference_configs()[name]
    r0 = resonance_radius(cfg)
    analysis = analyze_trap(cfg)
    v = float(dressed_potential(analysis.minimum.position, cfg))
    lo = np.array([-1.35 * r0, -1.35 * r0, -0.45 * r0])
    v_grid, node, _ = grid_global_min(cfg, lo, -lo)
    from_node = shell_minimum(cfg, _field_direction(node)).position
    for oracle in (v_grid, float(dressed_potential(from_node, cfg))):
        assert v <= oracle + 1e-12 * abs(oracle)


#: linear x rf plus an axial part 60 degrees out of phase, under gravity:
#: straight below the centre V* has a saddle, and its global minimum is a
#: coupling hole
SADDLE_CONFIG = make_trap(b_x=B07, b_z=B07, beta=np.radians(60), gravity=True)

#: that saddle [m], a stationary point of V
SADDLE_POINT = np.array([-3.988811051987621e-20, -0.00021714080170483102, 0.0])


def dense_shell_minimum(cfg, lats, azimuths):
    """Least V* [J] over a latitude-azimuth map of field directions whose
    rows sit half a row off the poles, about 60 rows per kernel call."""
    theta = (np.arange(lats) + 0.5) * (np.pi / lats)
    phi = np.arange(azimuths) * (2.0 * np.pi / azimuths)
    best = np.inf
    for rows in np.array_split(theta, max(1, lats // 60)):
        sin_t = np.sin(rows)[:, None]
        n = np.stack(np.broadcast_arrays(
            sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(rows)[:, None]
        ), axis=-1)
        best = min(best, float(_shell_floor(cfg, n)[1].min()))
    return best


def test_saddle_config_reports_the_global_minimum():
    # the lowest point of the dressed shell is the hole at n = -(1, 1, 1) / sqrt 3,
    # at -12.69 uK; a 721 x 1440 map of directions reads -12.68 uK
    cfg = SADDLE_CONFIG
    got = analyze_trap(cfg)
    assert got.minimum.value / K_B * 1e6 == pytest.approx(-12.6853, abs=1e-4)
    np.testing.assert_allclose(
        got.minimum.position * 1e6, [-123.7511, -123.7511, 61.8756], rtol=0, atol=1e-4
    )
    assert got.notes == (CUSP_NOTE,) and got.omega_phi is None
    tol = 1e-12 * RB87.m_F * HBAR * cfg.rf.omega
    assert got.minimum.value <= dense_shell_minimum(cfg, 721, 1440) + tol


def test_trap_frequencies_reject_a_saddle():
    lam = np.linalg.eigvalsh(ringtrap.dressed.potential_hessian(SADDLE_POINT, SADDLE_CONFIG))
    assert lam[0] == pytest.approx(-3.06e-21, rel=1e-2)  # along phi
    with pytest.raises(NotAMinimumError, match="lambda_phi=-3.06"):
        trap_frequencies(SADDLE_CONFIG, SADDLE_POINT)


#: how far V* at the point ``shell_minimum`` reports may lie above the least
#: V* of the oracles, in units of m_F hbar omega. The shell polish of a
#: smooth minimum stops once the gradient is below 1e-8 m g, from where a
#: neighbour 1e-6 rad away reads lower by at most a few 1e-15
SHELL_ORACLE_TOLERANCE = 1e-12


#: angles of any size up to pi, 0 and tiny ones among them: the squares of
#: the parts of a phase of 1e-193 rad underflow in the search on the sphere,
#: and the sine of a subnormal phase in ``RfConfig.amplitude_parts``, to a 0
#: that changes nothing; underflow raises in this test
ANGLES = st.one_of(
    st.just(0.0), st.floats(1e-6, np.pi), st.floats(-np.pi, -1e-6),
    st.floats(-1e-150, 1e-150),
)


@given(
    amps=st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-6, 1.5e-4))] * 3),
    phases=st.tuples(ANGLES, ANGLES),
    gradient=st.floats(0.2, 2.0),
    gravity=st.booleans(),
    polar=ANGLES.map(abs),
    azimuth=ANGLES,
)
def test_shell_minimum_is_the_global_minimum_property(
    amps, phases, gradient, gravity, polar, azimuth
):
    # kappa >= 1.3 under gravity, so V is bounded below
    assume(any(amps))
    cfg = make_trap(*amps, *phases, gradient=gradient, gravity=gravity)
    start = np.array([math.sin(polar) * math.cos(azimuth),
                      math.sin(polar) * math.sin(azimuth), math.cos(polar)])
    with np.errstate(all="raise"):
        got = shell_minimum(cfg, start)
    n = _field_direction(got.position)
    v = _shell_floor(cfg, n[None])[1][0]
    tol = SHELL_ORACLE_TOLERANCE * RB87.m_F * HBAR * cfg.rf.omega
    assert v <= dense_shell_minimum(cfg, 91, 180) + tol
    ring = np.arange(16) * (np.pi / 8)
    coeffs = np.column_stack([np.ones(16), 1e-6 * np.cos(ring), 1e-6 * np.sin(ring)])
    assert v <= _shell_floor(cfg, _turn(_frames(n[None]), coeffs))[1].min() + tol


@pytest.mark.parametrize("rf, pole", [
    (dict(b_x=B07, b_z=B02), False),  # b = 0 exactly
    (dict(b_x=B07, b_y=B02, alpha=np.pi), False),  # b_y = B02 sin(pi) ~ 2.4e-21 T
    (dict(b_x=B07, b_y=B07, alpha=-np.pi / 2), True),  # circular: |w| = p1
    (dict(b_x=B07, b_z=B07, alpha=0.3, beta=-np.pi / 2), True),  # circular in xz
])
def test_coupling_holes_edge_cases(rf, pole):
    cfg = make_trap(**rf)
    with np.errstate(all="raise"):
        holes = _coupling_holes(cfg)
    np.testing.assert_allclose(np.linalg.norm(holes, axis=1), 1.0, rtol=0, atol=1e-15)
    ax, ay, az, by, bz = cfg.rf.amplitude_parts
    a, b = np.array([ax, ay, az]), np.array([0.0, by, bz])
    if pole:
        # the two holes merge into -w / |w|, up to sqrt(eps) of the eigenpair
        w = np.cross(b, a)
        np.testing.assert_allclose(holes, [-w / np.linalg.norm(w)] * 2, rtol=0, atol=1e-7)
    else:
        # linear rf: +-a / |a|
        np.testing.assert_allclose(
            np.abs(holes @ a), np.linalg.norm(a), rtol=1e-15
        )
        assert holes[0] @ holes[1] == pytest.approx(-1.0, abs=1e-15)
    # the coupling closes there, to the kernel's rounding
    rabi = ringtrap.dressed.rabi_frequency(holes * [1.0, 1.0, -0.5], cfg)
    scale = cfg.coupling_prefactor * math.hypot(*np.concatenate([a, b]))
    assert np.all(rabi <= 1e-14 * scale)


def test_zero_rf_holes_are_the_start():
    cfg = make_trap(gravity=False)
    assert len(_coupling_holes(cfg)) == 0
    start = np.array([0.6, 0.0, 0.8])
    got = shell_minimum(cfg, start)
    np.testing.assert_allclose(_field_direction(got.position), start, rtol=0, atol=1e-15)
    assert not got.smooth


def test_frames_are_orthonormal_everywhere():
    # the poles, the equator, signed zeros and a generic direction
    n = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, -0.0],
                  [0.6, -0.48, 0.64], [-1e-17, 0.0, -1.0]])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    with np.errstate(all="raise"):
        basis = _frames(n)
    np.testing.assert_array_equal(basis[:, 0], n)
    for b in basis:
        np.testing.assert_allclose(b @ b.T, np.eye(3), rtol=0, atol=4e-16)


def eight_neighbour_minima(v):
    """The map's local minima, a node at a time: no neighbour lower, where
    the row across a pole is the same row half a turn on."""
    lats, azimuths = v.shape
    low = np.zeros(v.shape, dtype=bool)
    for i in range(lats):
        for j in range(azimuths):
            around = []
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    row, col = i + di, j + dj
                    if row < 0 or row == lats:
                        row, col = i, col + azimuths // 2
                    around.append(v[row, col % azimuths])
            low[i, j] = np.isfinite(v[i, j]) and v[i, j] <= min(around)
    return low


def test_map_minima_match_the_eight_neighbour_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.integers(0, 4, size=(33, 64)).astype(float)
        v[rng.random(v.shape) < 0.05] = np.inf
        np.testing.assert_array_equal(_map_minima(v), eight_neighbour_minima(v))


def test_floor_gradient_matches_richardson_differences():
    # oracle: the Richardson extrapolant of central differences of V in 3-D,
    # at the ray floors of directions up to 0.14 rad from the gravity ring's
    # minimum, where the gradient is far above both methods' rounding
    cfg = reference_configs()["gravity"]
    scale = RB87.m_F * HBAR * cfg.rf.omega
    rng = np.random.default_rng(7)
    centre = _field_direction(analyze_trap(cfg).minimum.position)
    offsets = rng.uniform(-0.1, 0.1, (12, 2))
    n = _turn(_frames(centre[None]), np.column_stack([np.ones(12), offsets]))[0]
    probe = _probe(cfg, n, scale)
    got = _floor_gradient(probe, scale)
    for k, direction in enumerate(n):
        r = probe[1][k] * direction * np.array([1.0, 1.0, -0.5])
        want = np.linalg.norm(richardson_gradient(r, cfg, 1e-8))
        assert got[k] == pytest.approx(want, rel=1e-6)


def test_trust_steps_lower_the_model_within_the_radius():
    # oracles: the Newton step by np.linalg.solve, and the hard case's shift
    # lam = -mu_lo = 1 along the upper eigenvector t2, where (mu_hi + lam)
    # s2 = -g2 with mu_hi = 2
    rng = np.random.default_rng(11)
    k = 300
    grad = rng.normal(size=(k, 2)) * 10.0 ** rng.uniform(-6, 1, (k, 1))
    curv = rng.normal(size=(k, 3)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
    grad[:20, 0], curv[:20] = 0.0, [-1.0, 0.0, 2.0]  # the hard case
    radius = 10.0 ** rng.uniform(-4, 0, k)
    with np.errstate(all="raise"):
        step, length = _trust_steps(grad, curv, radius)
    np.testing.assert_allclose(length, np.linalg.norm(step, axis=1), rtol=1e-15)
    assert np.all(length <= radius * (1 + 1e-15))
    hess = np.stack([curv[:, :2], curv[:, 1:]], axis=1)
    newton = -np.linalg.solve(hess, grad[..., None])[..., 0]
    fits = np.all(np.linalg.eigvalsh(hess) > 0, axis=1) & (np.linalg.norm(newton, axis=1) <= radius)
    assert 0 < fits.sum() < k
    np.testing.assert_allclose(length[~fits], radius[~fits], rtol=1e-15)
    np.testing.assert_allclose(step[fits], newton[fits], rtol=1e-14)
    model = (grad * step).sum(axis=1) + 0.5 * (
        curv[:, 0] * step[:, 0] ** 2 + 2 * curv[:, 1] * step[:, 0] * step[:, 1]
        + curv[:, 2] * step[:, 1] ** 2
    )
    assert np.all(model <= 0)
    hard = np.clip(-grad[:20, 1] / 3.0, -radius[:20], radius[:20])
    assert np.all(np.abs(step[:20, 1] - hard) <= 4 * np.finfo(float).eps * radius[:20])
    assert np.any(np.abs(hard) < radius[:20]) and np.any(np.abs(hard) == radius[:20])


def test_ray_floor_is_the_minimum_along_each_ray():
    rng = np.random.default_rng(3)
    n = rng.normal(size=(40, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    u = n * [1, 1, -0.5]  # the ray points at R = 1
    # kappa = 1.3; and kappa = 1.05 with Omega ~ 2.3 omega, where the floors
    # of rays pointing up lie behind the centre
    strong = make_trap(b_x=1e-3, gradient=0.16, gravity=True)
    cfgs = list(reference_configs().values()) + [
        make_trap(b_x=B07, b_z=B02, gradient=0.2, gravity=True), strong,
    ]
    for cfg in cfgs:
        r0 = resonance_radius(cfg)
        radius, floor, rabis = _ray_floor(cfg, u)
        np.testing.assert_array_equal(rabis, ringtrap.dressed.rabi_frequency(u, cfg))
        rr = np.linspace(0.0, 4.0 * r0, 4001)[:, None, None]
        scan = dressed_potential(rr * u, cfg)
        tol = 1e-12 * cfg.atom.m_F * HBAR * cfg.rf.omega
        has_floor = np.isfinite(radius) & (radius > 0)
        assert np.all(floor[has_floor] <= scan.min(axis=0)[has_floor] + tol)
        at = dressed_potential(radius[has_floor, None] * u[has_floor], cfg)
        np.testing.assert_allclose(at, floor[has_floor], rtol=0, atol=tol)
        assert bool(has_floor.all()) == (cfg is not strong)


def test_shell_minimum_iteration_cap_returns_its_best_unconverged(monkeypatch):
    # the gravity ring's polish takes two iterations, so a cap of one stops it
    cfg = reference_configs()["gravity"]
    start = _field_direction([1e-9, -1.05, 0.0])
    best = shell_minimum(cfg, start, max_iter=1)
    assert best.iterations == 1 and not best.converged
    assert np.isfinite(best.value) and np.all(np.isfinite(best.position))
    # analyze_trap notes the failure and measures the depth from the best point
    def capped(cfg, start):
        return shell_minimum(cfg, start, max_iter=1)

    monkeypatch.setattr(ringtrap.analysis, "shell_minimum", capped)
    got = analyze_trap(cfg)
    assert got.notes[0] == (
        "minimum refinement did not converge: shell polish stopped at its cap of 1 iteration"
    )
    assert got.minimum.iterations == 1 and got.refined_minimum is None


def test_saddle_config_candidates_stop_at_the_hole_they_slide_into():
    # the map minima beside the saddle config's kept hole slide into its
    # cusp, and each stops once the hole lies within its step: at once, where
    # a stop on the step length alone takes 12 iterations
    got = shell_minimum(SADDLE_CONFIG, np.array([0.0, -1.0, 0.0]))
    assert got.converged and not got.smooth
    assert got.iterations < 12


def test_capped_polish_at_an_open_coupling_is_no_cusp(monkeypatch):
    # the gravity ring's minimum has an open coupling; a polish stopped at
    # its cap reports no gradient, but its winner is still no cusp
    cfg = reference_configs()["gravity"]

    def capped(cfg, start):
        return shell_minimum(cfg, start, max_iter=0)

    monkeypatch.setattr(ringtrap.analysis, "shell_minimum", capped)
    got = analyze_trap(cfg)
    assert got.minimum.smooth
    assert not got.minimum.converged and not got.minimum.stationary
    assert got.minimum.grad_norm is None and got.refined_minimum is None
    assert got.notes[0].startswith("minimum refinement did not converge")
    assert not any("cusp" in note for note in got.notes)


@pytest.mark.parametrize("shape", ["circular", "linear"])
def test_unbound_gravity_has_no_refined_minimum(shape):
    # 10 G/cm: kappa = 0.66, gravity pulls harder than the magnetic slope
    cfg = make_trap(b_x=B07, b_y=B07 if shape == "circular" else 0.0,
                    alpha=-np.pi / 2, gradient=0.1, gravity=True)
    with np.errstate(all="raise"):
        got = analyze_trap(cfg)
    assert got.criteria.kappa < 1
    assert got.minimum is None and got.refined_minimum is None
    assert got.omega_rho is None
    assert any(n.startswith("gravity exceeds the magnetic confinement") for n in got.notes)
    assert np.isfinite(got.depth) and got.depth >= 0


def test_analyze_ring_radius_positive(fig2b):
    analysis = analyze_trap(fig2b)
    assert analysis.ring_radius > 0
    assert analysis.ring_radius == pytest.approx(analysis.resonance_radius, rel=1e-6)


# analyze_trap on the reference configs with its defaults; (x, y, z) m, V J,
# azimuth rad. The gravity ring's depth and frequencies are those of the
# one-stage box search, which the shell search meets within the tolerances
# of test_reference_analysis_pinned; its refined point is the shell
# search's own. The symmetric ring's barrier and the azimuth of its lowest
# profile sample are rounding: every azimuth has the same V to an ulp
_REFERENCE_ANALYSES = {
    "fig2a": dict(
        geometry=Geometry.DOUBLE_WELL,
        ring_radius=0.0002143432050427971,
        barrier_height=3.2459035274049997e-28,
        depth=1.9878210437820233e-27,
        omegas=(None, None, None),
        minima=[((0.0002143432050427971, 0.0, 0.0), 0.0, 0.0),
                ((-0.0002143432050427971, 2.6249471997464628e-20, 0.0),
                 3.975085365177636e-44, 3.141592653589793)],
        refined=(0.0002143432050427971, 0.0, 0.0),
        omega_over_rabi=math.inf,
        coupling_dominated=False,
        iterations=0,
        notes=("coupling-closed (cusp) minimum; harmonic frequencies undefined",),
    ),
    "fig2b": dict(
        geometry=Geometry.SYMMETRIC_RING,
        ring_radius=0.0002143432050427971,
        barrier_height=8.96831017167883e-44,
        depth=2.0722535037199532e-27,
        omegas=(None, None, None),
        minima=[((6.22205480975354e-05, 0.00020511365859557194, 0.0),
                 3.2459035274049993e-28, 1.2762720155208536)],
        refined=(0.0, 0.0, 0.00010717160252139855),
        omega_over_rabi=6.124091572651348,
        coupling_dominated=True,
        iterations=0,
        notes=("coupling-closed (cusp) minimum; harmonic frequencies undefined",),
    ),
    "fig2c": dict(
        geometry=Geometry.ASYMMETRIC_RING,
        ring_radius=0.0002143432050427971,
        barrier_height=2.4483896163859514e-28,
        depth=1.4781553528435064e-27,
        omegas=(None, None, None),
        minima=[((0.0002143432050427971, 0.0, 0.0), 9.274010078300001e-29, 0.0),
                ((-0.0002143432050427971, 2.6249471997464628e-20, 0.0),
                 9.274010078300001e-29, 3.141592653589793)],
        refined=(0.00020609612466273666, 0.0, -2.9442303523248097e-05),
        omega_over_rabi=21.434320504279707,
        coupling_dominated=False,
        iterations=0,
        notes=("coupling-closed (cusp) minimum; harmonic frequencies undefined",),
    ),
    "gravity": dict(
        geometry=Geometry.ASYMMETRIC_RING,
        ring_radius=0.00021434320504279712,
        barrier_height=6.067012289354636e-28,
        depth=6.18522203696721e-28,
        omegas=(314.411109594408, 4184.126199264274, 257.5549350428417),
        minima=[((-4.0366991435830814e-20, -0.00021974766636898024, 0.0),
                 1.743791737275864e-29, 4.71238898038469)],
        refined=(-5.303494244846619e-15, -0.00014783928112534984, 7.829252407685547e-05),
        omega_over_rabi=6.124091572651347,
        coupling_dominated=True,
        iterations=2,
        notes=(),
    ),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_ANALYSES))
def test_reference_analysis_pinned(name):
    # only the gravity ring's refinement ends in Newton steps on the floor
    # gradient, whose point is the root of difference quotients that
    # rounding can move. The tolerances below, 1e-10 r0 for the point and
    # 1e-8 relative for its depth and frequencies, do not bound every
    # rounding change: scaling the gradient by 1 + k 2**-52 (k = 1..7) moved
    # the point by up to 3.6e-9 r0 and the depth by up to 1.2e-8, so a
    # change to the kernel's rounding re-pins them. Every other number is
    # exact
    want = _REFERENCE_ANALYSES[name]
    cfg = reference_configs()[name]
    got = analyze_trap(cfg)
    r0 = resonance_radius(cfg)
    assert got.geometry is want["geometry"]
    assert len(got.minima) == len(want["minima"])
    assert got.notes == want["notes"]
    assert got.low_confidence is False
    assert got.resonance_radius == 0.0002143432050427971
    assert got.ring_radius == want["ring_radius"]
    assert got.barrier_height == want["barrier_height"]
    for (pos, v, azim), (want_pos, want_v, want_azim) in zip(got.minima, want["minima"]):
        assert pos.tolist() == list(want_pos)
        assert (v, azim) == (want_v, want_azim)
    assert got.criteria.kappa == 6.552882865491849
    assert got.criteria.omega_over_rabi == want["omega_over_rabi"]
    assert got.criteria.coupling_dominated is want["coupling_dominated"]
    assert got.criteria.gravity_negligible is True
    # the shell polish's iterations, each one kernel call: none without
    # gravity, where the minimum is a coupling hole, and two on the gravity
    # ring
    assert got.minimum.iterations == want["iterations"]
    omegas = (got.omega_rho, got.omega_z, got.omega_phi)
    if name == "gravity":
        assert got.depth == pytest.approx(want["depth"], rel=1e-8, abs=0)
        assert omegas == pytest.approx(want["omegas"], rel=1e-8, abs=0)
        np.testing.assert_allclose(
            got.minimum.position, want["refined"], rtol=0, atol=1e-10 * r0
        )
        assert np.array_equal(got.refined_minimum, got.minimum.position)
    else:
        assert got.depth == want["depth"]
        assert omegas == want["omegas"]
        assert got.minimum.position.tolist() == list(want["refined"])
        assert got.refined_minimum is None


@pytest.mark.parametrize("smooth, stationary", [(True, True), (True, False), (False, True)])
def test_refined_minimum_only_for_smooth_stationary_interior_point(
    smooth, stationary, monkeypatch
):
    cfg = reference_configs()["gravity"]
    r0 = resonance_radius(cfg)
    point = np.array([0.0, -0.7 * r0, 0.3 * r0])
    result = MinimizationResult(
        position=point, value=float(dressed_potential(point, cfg)), converged=True,
        stationary=stationary, smooth=smooth, grad_norm=0.0, iterations=1, f_evals=7,
    )
    monkeypatch.setattr(ringtrap.analysis, "shell_minimum", lambda *a, **k: result)
    got = analyze_trap(cfg).refined_minimum
    if smooth and stationary:
        assert got is point
    else:
        assert got is None


def test_negative_z_band_and_few_sweep_azimuths_are_rejected(fig2b):
    with pytest.raises(ValueError, match="z_band_factor must be non-negative"):
        azimuthal_profile(fig2b, z_band_factor=-0.1)
    with pytest.raises(ValueError, match="sweep classification requires n_phi >= 64"):
        frequency_sweep(fig2b, [OMEGA_15MHZ], n_phi=32)
