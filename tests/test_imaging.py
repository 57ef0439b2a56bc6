import dataclasses
import tracemalloc

import numpy as np
import pytest

import ringtrap.grids
import ringtrap.imaging
from ringtrap import (
    SyntheticImage,
    add_noise,
    column_density,
    dressed_potential,
    measure_ring_radius,
    resonance_radius,
    thermal_density,
)
from ringtrap.constants import K_B
from ringtrap.errors import MeasurementError
from ringtrap.grids import ScalarGrid, sample_grid
from ringtrap.image_io import (
    export_grid_binary,
    export_image_binary,
    export_image_csv,
    import_grid_binary,
    import_image_binary,
    import_image_csv,
)

from conftest import (
    PIXEL,
    imaging_region,
    reference_configs,
    synth_image,
    traced_growth,
    whole_array_integral,
    whole_array_projection,
)

T20 = 20e-6


# -- thermal density ---------------------------------------------------------

def test_density_ratio_is_boltzmann(fig2b):
    r0 = resonance_radius(fig2b)
    region = ((-1.5 * r0, 1.5 * r0), (-1.5 * r0, 1.5 * r0), (-0.1 * r0, 0.1 * r0))
    dens = thermal_density(fig2b, T20, region, (41, 41, 9), atom_number=1.0)
    pts = dens.node_positions()
    v = dressed_potential(pts.reshape(-1, 3), fig2b).reshape(dens.dims)
    i1, i2 = (5, 7, 3), (20, 31, 6)
    got = dens.values[i1] / dens.values[i2]
    expected = np.exp(-(v[i1] - v[i2]) / (K_B * T20))
    assert got == pytest.approx(expected, rel=1e-12)


def test_density_normalised_to_atom_number(fig2b):
    region, dims = imaging_region(fig2b)
    dens = thermal_density(fig2b, T20, region, dims, atom_number=12345.0)
    assert dens.integral() == pytest.approx(12345.0, rel=1e-12)


def test_cold_cloud_concentrates_in_wells(fig2a):
    # at 0.1 uK the cloud collapses into the two conical wells on the x axis;
    # a slab grid fine enough to resolve k_B*T/|grad V| (~1 um) shows < 1e-3
    # of the mass above 15 k_B*T (conical-well tail bound: Gamma(3,15)/2 ~ 4e-5)
    r0 = resonance_radius(fig2a)
    temperature = 0.1e-6
    margin = 2.5e-5
    region = ((-r0 - margin, r0 + margin), (-1e-5, 1e-5), (-6e-6, 6e-6))
    dims = (601, 27, 15)
    dens = thermal_density(fig2a, temperature, region, dims, atom_number=1.0)
    pts = dens.node_positions().reshape(-1, 3)
    v = dressed_potential(pts, fig2a)
    outside = (v - v.min()) > 15 * K_B * temperature
    weights = dens.values.reshape(-1)
    # direct integral oracle on the same grid (plain node masses)
    frac_outside = weights[outside].sum() / weights.sum()
    assert frac_outside < 1e-3
    # both wells carry population: the distribution is symmetric in x
    half = weights.reshape(dims)[: dims[0] // 2].sum() / weights.sum()
    assert half == pytest.approx(0.5, abs=1e-6)


def test_density_azimuthally_uniform_circular(fig2b):
    r0 = resonance_radius(fig2b)
    phis = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pts = np.stack([r0 * np.cos(phis), r0 * np.sin(phis), np.zeros(64)], axis=-1)
    v = dressed_potential(pts, fig2b)
    w = np.exp(-(v - v.min()) / (K_B * T20))
    assert (w.max() - w.min()) / w.max() < 1e-6


def test_density_fills_the_sampled_grid_in_place(fig2b, monkeypatch):
    filled = []

    def capture(*args):
        grid = sample_grid(*args)
        filled.append(grid.values)
        return grid

    monkeypatch.setattr(ringtrap.imaging, "sample_grid", capture)
    region, dims = imaging_region(fig2b, half_xy_factor=1.2, nz=5)
    dens = thermal_density(fig2b, T20, region, dims)
    assert np.shares_memory(dens.values, filled[0])


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_density_matches_out_of_place_oracle(name):
    # the out-of-place formula the in-place transform replaced, bit for bit
    cfg = reference_configs()[name]
    region, dims = imaging_region(cfg, pixel=4 * PIXEL, nz=9)
    dens = thermal_density(cfg, T20, region, dims, atom_number=3e4)
    grid = sample_grid(cfg, region, dims)
    v = grid.values
    weight = np.exp(-(v - v.min()) / (K_B * T20))
    norm = ScalarGrid(grid.origin, grid.spacing, grid.dims, weight).integral()
    assert np.array_equal(dens.values, weight * (3e4 / norm))


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_density_and_projection_match_whole_array_code(name, monkeypatch):
    # thermal_density and column_density as they were before the fill, the
    # integral and the projection ran in blocks of at most _CHUNK nodes
    cfg = reference_configs()[name]
    region, dims = imaging_region(cfg)
    dens = thermal_density(cfg, T20, region, dims)
    img = column_density(dens, od_scale=0.5)
    monkeypatch.setattr(ringtrap.grids, "_CHUNK", 1 << 18)
    grid = sample_grid(cfg, region, dims)
    w = grid.values
    w -= w.min()
    w /= -(K_B * T20)
    np.exp(w, out=w)
    w *= 1e5 / whole_array_integral(grid)
    assert np.array_equal(dens.values, w)
    assert np.array_equal(img.values, whole_array_projection(grid, 0.5))


def test_image_pipeline_holds_one_block_beyond_its_arrays(fig2b, tmp_path):
    # the image workload's 311 x 311 x 33 grid: the density peaks at its own
    # 25.5 MB plus one block, and the projection and the CSV export add at
    # most one block to what is held when they start
    block = 8 << 20
    region, dims = imaging_region(fig2b)
    tracemalloc.start()
    try:
        dens, grown = traced_growth(lambda: thermal_density(fig2b, T20, region, dims))
        assert grown <= dens.values.nbytes + block
        # validating a grid builds no per-node mask
        _, grown = traced_growth(lambda: dataclasses.replace(dens))
        assert grown < 1 << 20
        img, grown = traced_growth(lambda: column_density(dens))
        assert grown <= block
        _, grown = traced_growth(lambda: export_image_csv(img, tmp_path / "img.csv"))
        assert grown <= block
    finally:
        tracemalloc.stop()


def test_non_finite_density_rejected(fig2b):
    region, dims = imaging_region(fig2b, half_xy_factor=1.2, nz=5)
    with pytest.raises(ValueError, match="finite"):
        thermal_density(fig2b, T20, region, dims, atom_number=1e300)


def test_zero_temperature_rejected(fig2b):
    with pytest.raises(ValueError):
        thermal_density(fig2b, 0.0, ((-1, 1), (-1, 1), (-1, 1)), (5, 5, 5))


# -- column density ----------------------------------------------------------

def test_column_density_uniform_box():
    grid = ScalarGrid(
        origin=(0, 0, 0), spacing=(1e-6, 1e-6, 2e-6), dims=(8, 8, 5),
        values=np.full((8, 8, 5), 3.0),
    )
    img = column_density(grid)
    np.testing.assert_allclose(img.values, 3.0 * 2e-6 * 4, rtol=1e-14)


def test_column_density_conserves_atom_number(fig2b):
    region, dims = imaging_region(fig2b)
    dens = thermal_density(fig2b, T20, region, dims, atom_number=5e4)
    img = column_density(dens)
    assert img.integral() == pytest.approx(5e4, rel=1e-9)


def test_annulus_peaks_at_resonance_radius(fig2b):
    img = synth_image(fig2b)
    r0 = resonance_radius(fig2b)
    n0 = img.dims[0] // 2
    xs = img.coords()[0]
    profile = img.values[n0:, n0]  # +x ray from center
    peak_r = xs[n0:][np.argmax(profile)]
    assert peak_r == pytest.approx(r0, abs=2 * PIXEL)


def test_projection_axis_validation(fig2b):
    # images are projected along z: a collapsed z axis has nothing to integrate
    region, dims = imaging_region(fig2b, nz=1)
    dens = thermal_density(fig2b, T20, region, dims)
    with pytest.raises(ValueError, match="collapsed"):
        column_density(dens)
    box = ScalarGrid(origin=(0, 0, 0), spacing=(1e-6, 2e-6, 1e-6), dims=(4, 4, 3),
                     values=np.ones((4, 4, 3)))
    with pytest.raises(ValueError, match="square"):
        column_density(box)


# -- radius measurement ------------------------------------------------------

def test_round_trip_all_three_regimes(fig2a, fig2b, fig2c):
    for cfg in (fig2a, fig2b, fig2c):
        r0 = resonance_radius(cfg)
        meas = measure_ring_radius(synth_image(cfg), n_diameters=8)
        assert meas.radius == pytest.approx(r0, abs=2 * PIXEL)


def test_synthetic_two_gaussian_image_exact():
    # analytically constructed ring image: two Gaussians on every diameter
    n = 201
    pix = 1.0
    c = (n - 1) / 2.0
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    rr = np.hypot(ii - c, jj - c)
    values = np.exp(-0.5 * ((rr - 100.0) / 10.0) ** 2)
    img = SyntheticImage(pixel_size=pix, values=values)
    meas = measure_ring_radius(img, n_diameters=8)
    assert meas.radius == pytest.approx(100.0, abs=0.01)
    assert meas.uncertainty < 0.01


def test_rotated_image_same_radius(fig2c):
    img = synth_image(fig2c)
    rot = SyntheticImage(pixel_size=img.pixel_size, values=np.rot90(img.values).copy())
    m1 = measure_ring_radius(img, n_diameters=8)
    m2 = measure_ring_radius(rot, n_diameters=8)
    assert m2.radius == pytest.approx(m1.radius, abs=max(2 * m1.uncertainty, PIXEL))


def test_fwhm_widens_with_temperature(fig2b):
    widths = []
    for t_uk in (5.0, 10.0, 20.0, 40.0):
        img = synth_image(fig2b, temperature=t_uk * 1e-6)
        n0 = img.dims[0] // 2
        prof = img.values[n0:, n0]
        half = prof.max() / 2
        above = np.nonzero(prof >= half)[0]
        widths.append((above[-1] - above[0]) * img.pixel_size)
    assert all(b >= a for a, b in zip(widths, widths[1:]))


def test_noise_seed_determinism(fig2b):
    img = synth_image(fig2b)
    n1 = add_noise(img, 0.01, seed=42)
    n2 = add_noise(img, 0.01, seed=42)
    np.testing.assert_array_equal(n1.values, n2.values)
    assert np.all(n1.values >= 0)


def test_zero_atom_image_measurement_errors(fig2b):
    region, dims = imaging_region(fig2b)
    dens = thermal_density(fig2b, T20, region, dims, atom_number=0.0)
    img = column_density(dens)
    assert img.values.max() == 0.0
    with pytest.raises(MeasurementError):
        measure_ring_radius(img, n_diameters=4)


def test_measurement_mean_and_std_invariants(fig2b):
    meas = measure_ring_radius(synth_image(fig2b), n_diameters=8)
    radii = [f.radius for f in meas.per_diameter]
    assert meas.radius == pytest.approx(np.mean(radii), rel=1e-14)
    assert meas.uncertainty == pytest.approx(np.std(radii), rel=1e-12, abs=1e-18)


# -- export / import ---------------------------------------------------------

def _header_image():
    return SyntheticImage(
        pixel_size=2.5e-6,
        values=np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 6.5]]),
        origin=(-2.5e-6, -1.25e-6),
        od_scale=0.5,
    )


def test_export_header_text_is_fixed(tmp_path):
    csv, data, hdr = tmp_path / "h.csv", tmp_path / "h.u16", tmp_path / "h.hdr"
    export_image_csv(_header_image(), csv)
    export_image_binary(_header_image(), data, hdr)
    assert csv.read_text() == (
        "# ringtrap image csv v1\n# dims=3,2\n# pixel_size_m=2.5e-06\n"
        "# origin_m=-2.5e-06,-1.25e-06\n# axis_labels=x,y\n"
        "# units=atoms/m^2 * od_scale\n# od_scale=0.5\n"
        "0.0,1.0\n2.0,3.0\n4.0,6.5\n"
    )
    assert hdr.read_text() == (
        "format=ringtrap-u16 v1\ndims=3,2\npixel_size_m=2.5e-06\n"
        "origin_m=-2.5e-06,-1.25e-06\naxis_labels=x,y\n"
        "units=atoms/m^2 * od_scale (for value = u16 * scale)\nod_scale=0.5\n"
        "scale=9.918364232852674e-05\ndtype=uint16\nbyteorder=little\n"
        "order=row-major\n"
    )
    back = import_image_csv(csv)
    assert (back.origin, back.pixel_size, back.od_scale) == ((-2.5e-6, -1.25e-6), 2.5e-6, 0.5)
    np.testing.assert_array_equal(back.values, _header_image().values)


def test_csv_round_trip_exact(fig2b, tmp_path):
    img = synth_image(fig2b, atoms=777.0)
    path = tmp_path / "img.csv"
    export_image_csv(img, path)
    back = import_image_csv(path)
    np.testing.assert_array_equal(back.values, img.values)
    assert back.pixel_size == img.pixel_size
    assert back.origin == img.origin


def test_binary_round_trip_bit_exact(fig2b, tmp_path):
    img = synth_image(fig2b, atoms=777.0)
    p1, h1 = tmp_path / "a.u16", tmp_path / "a.hdr"
    export_image_binary(img, p1, h1)
    back = import_image_binary(p1, h1)
    p2, h2 = tmp_path / "b.u16", tmp_path / "b.hdr"
    export_image_binary(back, p2, h2)
    assert p1.read_bytes() == p2.read_bytes()
    assert h1.read_text() == h2.read_text()
    again = import_image_binary(p2, h2)
    np.testing.assert_array_equal(again.values, back.values)


def test_binary_export_of_grown_values_does_not_wrap(tmp_path):
    # an imported image carries its quantisation scale; values doubled since
    # would need 2 x 65535 steps of it and wrapped mod 65536
    p, h = tmp_path / "a.u16", tmp_path / "a.hdr"
    export_image_binary(_header_image(), p, h)
    grown = dataclasses.replace(import_image_binary(p, h), values=_header_image().values * 2)
    export_image_binary(grown, p, h)
    back = import_image_binary(p, h)
    assert np.abs(back.values - grown.values).max() <= grown.values.max() / 65535.0


def test_binary_quantisation_error_bounded(fig2b, tmp_path):
    img = synth_image(fig2b)
    p, h = tmp_path / "a.u16", tmp_path / "a.hdr"
    export_image_binary(img, p, h)
    back = import_image_binary(p, h)
    assert np.abs(back.values - img.values).max() <= img.values.max() / 65535.0


def test_grid_header_text_is_fixed(tmp_path):
    grid = ScalarGrid(
        origin=(-1e-4, 0.1, 2.5e-5),
        spacing=(0.1, 1.0, 1e-6),
        dims=(3, 1, 2),
        values=np.arange(6.0).reshape(3, 1, 2) * 1e-30,
    )
    data, hdr = tmp_path / "g.f64", tmp_path / "g.hdr"
    export_grid_binary(grid, data, hdr)
    assert hdr.read_text() == (
        "format=ringtrap-f64 v1\ndims=3,1,2\norigin_m=-0.0001,0.1,2.5e-05\n"
        "spacing_m=0.1,1.0,1e-06\nunits=J\ndtype=float64\nbyteorder=little\n"
        "order=row-major\n"
    )
    # z innermost: the file is the values in C order
    assert data.read_bytes() == (np.arange(6.0) * 1e-30).astype("<f8").tobytes()


@pytest.mark.parametrize(
    "name, region, dims",
    [
        ("fig2b", ((-3e-4, 3e-4), (-3e-4, 3e-4), (0.0, 0.0)), (41, 37, 1)),
        ("gravity", ((-3e-4, 3e-4), (-2e-4, 3e-4), (-5e-5, 7e-5)), (13, 11, 9)),
    ],
)
def test_grid_binary_round_trip_bit_exact(tmp_path, name, region, dims):
    grid = sample_grid(reference_configs()[name], region, dims)
    p1, h1 = tmp_path / "a.f64", tmp_path / "a.hdr"
    export_grid_binary(grid, p1, h1)
    back = import_grid_binary(p1, h1)
    assert back.values.tobytes() == grid.values.tobytes()
    assert (back.origin, back.spacing, back.dims) == (grid.origin, grid.spacing, grid.dims)
    for a, b in zip(back.axes(), grid.axes()):
        assert a.tobytes() == b.tobytes()
    p2, h2 = tmp_path / "b.f64", tmp_path / "b.hdr"
    export_grid_binary(back, p2, h2)
    assert p1.read_bytes() == p2.read_bytes()
    assert h1.read_bytes() == h2.read_bytes()


def test_grid_binary_export_copies_no_grid(fig2b, tmp_path):
    grid = sample_grid(fig2b, ((-3e-4, 3e-4),) * 3, (161, 161, 41))
    tracemalloc.start()
    try:
        _, grown = traced_growth(
            lambda: export_grid_binary(grid, tmp_path / "g.f64", tmp_path / "g.hdr")
        )
    finally:
        tracemalloc.stop()
    assert grown < 1 << 20  # the grid is 8.5 MB
