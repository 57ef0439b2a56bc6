import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
)
from ringtrap.constants import K_B
from ringtrap.dressed import WORKSPACE_ROWS
from ringtrap.errors import MeasurementError
from ringtrap.grids import _CHUNK, ScalarGrid, sample_grid
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
    oracle_tolerance,
    reference_configs,
    synth_image,
    traced_growth,
    two_stage_image,
)

T20 = 20e-6


# -- the image of a thermal cloud -------------------------------------------

def test_density_ratio_is_boltzmann(fig2b):
    # the ratio of two pixels is that of their z-trapezoids of exp(-V/k_B T),
    # with V evaluated at their nodes by the kernel
    r0 = resonance_radius(fig2b)
    pixel = 3 * r0 / 40
    region = ((-20 * pixel, 20 * pixel),) * 2 + ((-0.1 * r0, 0.1 * r0),)
    img = column_density(fig2b, T20, region, (41, 41, 9), atom_number=1.0)
    xs, ys = img.coords()
    zs = np.linspace(-0.1 * r0, 0.1 * r0, 9)

    def column(i, j):
        v = dressed_potential(np.stack([np.full(9, xs[i]), np.full(9, ys[j]), zs], -1), fig2b)
        return np.trapezoid(np.exp(-v / (K_B * T20)), zs)

    (i1, j1), (i2, j2) = (5, 7), (20, 31)
    got = img.values[i1, j1] / img.values[i2, j2]
    assert got == pytest.approx(column(i1, j1) / column(i2, j2), rel=1e-12)


def test_density_normalised_to_atom_number(fig2b):
    # the image's own (y, x) trapezoid integral is the atom number
    region, dims = imaging_region(fig2b)
    img = column_density(fig2b, T20, region, dims, atom_number=12345.0)
    assert img.integral() == pytest.approx(12345.0, rel=1e-12)


def test_cold_cloud_concentrates_in_wells(fig2a):
    # at 0.1 uK the cloud collapses into the two conical wells on the x axis;
    # a slab grid fine enough to resolve k_B*T/|grad V| (~1 um) puts < 1e-3
    # of the atoms in columns whose every node lies above 15 k_B*T
    # (conical-well tail bound: Gamma(3,15)/2 ~ 4e-5)
    r0 = resonance_radius(fig2a)
    temperature = 0.1e-6
    pixel = 2 * (r0 + 2.5e-5) / 600
    region = ((-300 * pixel, 300 * pixel), (-13 * pixel, 13 * pixel), (-6e-6, 6e-6))
    dims = (601, 27, 15)
    img = column_density(fig2a, temperature, region, dims, atom_number=1.0)
    v = sample_grid(fig2a, region, dims).values
    outside = v.min(axis=2) - v.min() > 15 * K_B * temperature
    frac_outside = img.values[outside].sum() / img.values.sum()
    assert frac_outside < 1e-3
    # both wells carry population: the distribution is symmetric in x
    half = img.values[:300].sum() / img.values.sum()
    assert half == pytest.approx(0.5, abs=1e-6)


def test_density_azimuthally_uniform_circular(fig2b):
    r0 = resonance_radius(fig2b)
    phis = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pts = np.stack([r0 * np.cos(phis), r0 * np.sin(phis), np.zeros(64)], axis=-1)
    v = dressed_potential(pts, fig2b)
    w = np.exp(-(v - v.min()) / (K_B * T20))
    assert (w.max() - w.min()) / w.max() < 1e-6


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_density_and_projection_match_whole_array_code(name):
    # the one pass against the two-stage whole-grid code it replaced, on the
    # benchmark-size grid
    cfg = reference_configs()[name]
    region, dims = imaging_region(cfg)
    img = column_density(cfg, T20, region, dims, od_scale=0.5)
    oracle = two_stage_image(cfg, T20, region, dims, od_scale=0.5)
    assert (img.pixel_size, img.origin, img.od_scale) == (
        oracle.pixel_size, oracle.origin, oracle.od_scale
    )
    assert np.abs(img.values - oracle.values).max() <= oracle_tolerance(oracle, dims[2])


def _divided_step_image(cfg, temperature, region, dims, atom_number=1e5, od_scale=1.0):
    """The image as column_density made it before its Boltzmann step was a
    product: per slab run, V - V_run divided by -k_B T, exp, the trapezoid's
    end weights in a strided pass, then a plain z sum; the runs lifted to the
    common floor and normalised as column_density does."""
    dims, origin, spacing, axes = ringtrap.grids.grid_axes(region, dims)
    kt = K_B * temperature
    runs = list(ringtrap.grids.slab_runs(dims))
    img = np.empty(dims[:2])
    floors = np.empty(len(runs))
    for k, run in enumerate(runs):
        w = np.empty((axes[0][run].size,) + dims[1:])
        ringtrap.grids.fill_potential(cfg, (axes[0][run], axes[1], axes[2]), w,
                                      ringtrap.grids.fill_workspace(w.shape))
        floors[k] = w.min()
        w -= floors[k]
        w /= -kt
        np.exp(w, out=w)
        w[..., :: dims[2] - 1] *= 0.5
        w.sum(axis=2, out=img[run])
    for run, lift in zip(runs, spacing[2] * np.exp((floors - floors.min()) / -kt)):
        img[run] *= lift
    rows = img.sum(axis=1) - 0.5 * (img[:, 0] + img[:, -1])
    img *= atom_number / (float(np.trapezoid(rows, dx=spacing[0])) * spacing[1]) * od_scale
    return img


@pytest.mark.parametrize("name, nz", [("fig2b", 33), ("gravity", 9), ("fig2c", 2)])
def test_boltzmann_product_matches_the_divided_step(name, nz):
    # the product with -1/k_B T and the trapezoid weights against the
    # division, strided end weights and sum it replaced, on the same V. The
    # bound is ORACLE_EPS_PER_Z_NODE: a node's exponent x differs by the
    # rounding of 1/k_B T and of one product against one quotient, <= 3 u x,
    # which moves its weight e^-x by <= 3 u x e^-x <= 3 u / e; exp rounds
    # each weight once more, and each z reduction of nz weights rounds to
    # within nz u of its column: a few eps per z node of the peak column
    cfg = reference_configs()[name]
    region, dims = imaging_region(cfg, nz=nz)
    img = column_density(cfg, T20, region, dims, atom_number=3e4, od_scale=0.5)
    want = _divided_step_image(cfg, T20, region, dims, atom_number=3e4, od_scale=0.5)
    assert np.abs(img.values - want).max() <= oracle_tolerance(img, nz)


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_density_matches_out_of_place_oracle(name):
    # the textbook formula, out of place on the whole grid: V of every node
    # position by the kernel's (..., 3) form, its Boltzmann weights, their
    # z-trapezoids, normalised by the (y, x) trapezoid
    cfg = reference_configs()[name]
    region, dims = imaging_region(cfg, pixel=4 * PIXEL, nz=9)
    img = column_density(cfg, T20, region, dims, atom_number=3e4)
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(region, dims)]
    v = dressed_potential(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1), cfg)
    columns = np.trapezoid(np.exp(-(v - v.min()) / (K_B * T20)), axes[2], axis=2)
    oracle = columns * 3e4 / np.trapezoid(np.trapezoid(columns, axes[1]), axes[0])
    assert np.abs(img.values - oracle).max() <= oracle_tolerance(img, dims[2])


@pytest.mark.parametrize("nz, chunk", [(2, None), (9, 500), (9, 2**17)])
def test_one_pass_matches_oracle_on_thin_and_wide_slabs(fig2c, monkeypatch, nz, chunk):
    # nz = 2, where the z trapezoid halves every node; blocks smaller than
    # one 79 x 9 slab, where slab_runs yields one slab per run and the fill
    # splits it into z-rows; and blocks larger than the default, where one
    # slab run covers the whole grid and the workspace must grow with it
    region, dims = imaging_region(fig2c, pixel=4 * PIXEL, nz=nz)
    if chunk is not None:
        monkeypatch.setattr(ringtrap.grids, "_CHUNK", chunk)
        per_run = 1 if chunk < dims[1] * dims[2] else dims[0]
        assert all(len(range(dims[0])[r]) == per_run for r in ringtrap.grids.slab_runs(dims))
    img = column_density(fig2c, T20, region, dims)
    oracle = two_stage_image(fig2c, T20, region, dims)
    assert np.abs(img.values - oracle.values).max() <= oracle_tolerance(oracle, nz)


def test_one_pass_fills_the_bits_of_the_sampled_grid(fig2b, monkeypatch):
    # each slab run is filled with the V that sample_grid gives its nodes;
    # workers fill their runs in any order, so the blocks are put in the
    # order of their first x node
    filled = []

    def capture(cfg, axes, out, work, planes):
        ringtrap.grids.fill_potential(cfg, axes, out, work, planes)
        filled.append((axes[0][0], out.copy()))

    monkeypatch.setattr(ringtrap.imaging, "fill_potential", capture)
    region, dims = imaging_region(fig2b, half_xy_factor=1.2, nz=5)
    column_density(fig2b, T20, region, dims)
    grid = sample_grid(fig2b, region, dims)
    blocks = [block for _, block in sorted(filled, key=lambda item: item[0])]
    assert np.concatenate(blocks).tobytes() == grid.values.tobytes()


def test_image_pipeline_holds_one_block_beyond_its_arrays(fig2b, tmp_path, monkeypatch):
    # the image workload's 311 x 311 x 33 grid (25.5 MB as a 3-D array): the
    # one pass grows by the image and, per worker, one block of whole
    # x-slabs, the kernel workspace and one (y, z) plane, the temporary of
    # forming the planes; 32 KB more covers the run list, the axes and a
    # kernel call's small arrays (~17 KB measured). No kernel call makes
    # iterator buffers. The CSV export adds at most one block to what is
    # held when it starts
    region, dims = imaging_region(fig2b)
    block = 8 * (_CHUNK // (dims[1] * dims[2])) * dims[1] * dims[2]
    workspace = WORKSPACE_ROWS * block
    plane = 8 * dims[1] * dims[2]
    tracemalloc.start()
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(ringtrap.imaging, "_workers", lambda n, k=workers: min(k, n))
            img, grown = traced_growth(lambda: column_density(fig2b, T20, region, dims))
            assert grown <= img.values.nbytes + workers * (block + workspace + plane) + (32 << 10)
        _, grown = traced_growth(lambda: export_image_csv(img, tmp_path / "img.csv"))
        assert grown <= block
    finally:
        tracemalloc.stop()


# -- the pass on several workers ----------------------------------------------

def _slab_runs_of(dims):
    return [range(dims[0])[run] for run in ringtrap.grids.slab_runs(dims)]


def test_workers_one_per_available_cpu_and_at_most_one_per_run(monkeypatch):
    monkeypatch.setattr(ringtrap.imaging.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    assert [ringtrap.imaging._workers(n) for n in (1, 2, 3, 104)] == [1, 2, 3, 3]
    # where the affinity call is missing, every CPU counts
    monkeypatch.delattr(ringtrap.imaging.os, "sched_getaffinity")
    monkeypatch.setattr(ringtrap.imaging.os, "cpu_count", lambda: 5)
    assert ringtrap.imaging._workers(104) == 5
    monkeypatch.setattr(ringtrap.imaging.os, "cpu_count", lambda: None)
    assert ringtrap.imaging._workers(104) == 1


@pytest.mark.parametrize("workers", [2, 3, 50])
def test_image_bits_do_not_depend_on_the_worker_count(fig2b, monkeypatch, workers):
    # seven slab runs, the last 21 of 31 slabs; 50 workers are capped at 7
    region, dims = imaging_region(fig2b, half_xy_factor=1.2, nz=5)
    runs = _slab_runs_of(dims)
    assert len(runs) == 7 and 0 < len(runs[-1]) < len(runs[0])
    monkeypatch.setattr(ringtrap.imaging, "_workers", lambda n: 1)
    serial = column_density(fig2b, T20, region, dims, atom_number=3e4, od_scale=0.5)
    threads = []
    start = ringtrap.imaging.threading.Thread.start

    def counted(thread):
        threads.append(thread)
        start(thread)

    monkeypatch.setattr(ringtrap.imaging.threading.Thread, "start", counted)
    monkeypatch.setattr(ringtrap.imaging, "_workers", lambda n: min(workers, n))
    img = column_density(fig2b, T20, region, dims, atom_number=3e4, od_scale=0.5)
    assert len(threads) == min(workers, len(runs)) - 1
    assert img.values.tobytes() == serial.values.tobytes()
    assert (img.pixel_size, img.origin, img.od_scale) == (
        serial.pixel_size, serial.origin, serial.od_scale
    )


def test_non_finite_potential_in_a_later_worker_rejected(fig2b, monkeypatch):
    # V = 0 but for an inf in the last run, which the third worker fills
    region, dims = imaging_region(fig2b, half_xy_factor=1.2, nz=5)
    xs = ringtrap.grids.grid_axes(region, dims)[3][0]
    last = _slab_runs_of(dims)[-1]

    def fill(cfg, axes, out, work, planes):
        out[...] = 0.0
        if axes[0][0] >= xs[last[0]]:
            out[-1, -1, -1] = np.inf

    monkeypatch.setattr(ringtrap.imaging, "_workers", lambda n: min(3, n))
    monkeypatch.setattr(ringtrap.imaging, "fill_potential", fill)
    with pytest.raises(ValueError, match="grid values must all be finite"):
        column_density(fig2b, T20, region, dims)


def test_first_failing_part_raises(fig2b, monkeypatch):
    # parts 1 and 2 of three both fail; part 1's error is raised, every time
    region, dims = imaging_region(fig2b, half_xy_factor=1.2, nz=5)
    xs = ringtrap.grids.grid_axes(region, dims)[3][0]
    runs = _slab_runs_of(dims)  # parts of runs 0-1, 2-3 and 4-6

    def fill(cfg, axes, out, work, planes):
        out[...] = 0.0
        if axes[0][0] >= xs[runs[2][0]]:
            raise RuntimeError(f"run at x = {axes[0][0]!r}")

    monkeypatch.setattr(ringtrap.imaging, "_workers", lambda n: min(3, n))
    monkeypatch.setattr(ringtrap.imaging, "fill_potential", fill)
    for _ in range(5):
        with pytest.raises(RuntimeError) as err:
            column_density(fig2b, T20, region, dims)
        assert str(err.value) == f"run at x = {xs[runs[2][0]]!r}"


def test_errstate_reaches_every_worker(fig2b, monkeypatch):
    # a division by zero only in the last run, which a worker thread fills,
    # raises under the caller's errstate as in the serial pass
    region, dims = imaging_region(fig2b, half_xy_factor=1.2, nz=5)
    xs = ringtrap.grids.grid_axes(region, dims)[3][0]
    last = _slab_runs_of(dims)[-1]

    def fill(cfg, axes, out, work, planes):
        out[...] = 0.0
        if axes[0][0] >= xs[last[0]]:
            np.divide(1.0, out[:1, :1, :1], out=out[:1, :1, :1])

    monkeypatch.setattr(ringtrap.imaging, "_workers", lambda n: min(2, n))
    monkeypatch.setattr(ringtrap.imaging, "fill_potential", fill)
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError, match="divide by zero"):
            column_density(fig2b, T20, region, dims)
    # without it the inf reaches the finiteness check
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="finite"):
            column_density(fig2b, T20, region, dims)


def test_non_finite_density_rejected(fig2b):
    region, dims = imaging_region(fig2b, half_xy_factor=1.2, nz=5)
    with pytest.raises(ValueError, match="not finite"):
        column_density(fig2b, T20, region, dims, atom_number=1e300)


def test_non_finite_potential_rejected(fig2b, monkeypatch):
    def fill(cfg, axes, out, work, planes):
        out[...] = 0.0
        if axes[0][0] > 0:
            out[-1, -1, -1] = np.inf

    monkeypatch.setattr(ringtrap.imaging, "fill_potential", fill)
    region, dims = imaging_region(fig2b, half_xy_factor=1.2, nz=5)
    with pytest.raises(ValueError, match="finite"):
        column_density(fig2b, T20, region, dims)


def test_zero_temperature_rejected(fig2b):
    with pytest.raises(ValueError):
        column_density(fig2b, 0.0, ((-1, 1), (-1, 1), (-1, 1)), (5, 5, 5))
    with pytest.raises(ValueError, match="atom number"):
        column_density(fig2b, T20, ((-1, 1), (-1, 1), (-1, 1)), (5, 5, 5), atom_number=-1.0)


def test_column_density_uniform_box(fig2b, monkeypatch):
    # a flat potential: every column is the z extent, so the image is the
    # uniform areal density N / (Lx Ly) whatever the z spacing
    monkeypatch.setattr(
        ringtrap.imaging, "fill_potential", lambda cfg, axes, out, work, planes: out.fill(-3e-28)
    )
    region = ((0, 7e-6), (0, 7e-6), (0, 8e-6))
    img = column_density(fig2b, T20, region, (8, 8, 5), atom_number=49.0)
    np.testing.assert_allclose(img.values, 1e12, rtol=1e-14)


def test_column_density_conserves_atom_number(fig2b):
    region, dims = imaging_region(fig2b)
    img = column_density(fig2b, T20, region, dims, atom_number=5e4, od_scale=0.25)
    assert img.integral() == pytest.approx(5e4 * 0.25, rel=1e-12)


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
    with pytest.raises(ValueError, match="collapsed"):
        column_density(fig2b, T20, region, dims)
    with pytest.raises(ValueError, match="square"):
        column_density(fig2b, T20, ((0, 3e-6), (0, 6e-6), (0, 2e-6)), (4, 4, 3))


# -- radius measurement ------------------------------------------------------

def test_round_trip_all_three_regimes(fig2a, fig2b, fig2c):
    for cfg in (fig2a, fig2b, fig2c):
        r0 = resonance_radius(cfg)
        meas = measure_ring_radius(synth_image(cfg), (0.0, 0.0), n_diameters=8)
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
    meas = measure_ring_radius(img, (c, c), n_diameters=8)
    assert meas.radius == pytest.approx(100.0, abs=0.01)
    assert meas.uncertainty < 0.01


def test_rotated_image_same_radius(fig2c):
    img = synth_image(fig2c)
    # the image is square about the trap axis, so its turn keeps the origin
    rot = SyntheticImage(
        pixel_size=img.pixel_size, values=np.rot90(img.values).copy(), origin=img.origin
    )
    m1 = measure_ring_radius(img, (0.0, 0.0), n_diameters=8)
    m2 = measure_ring_radius(rot, (0.0, 0.0), n_diameters=8)
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


# -- the noise stream ---------------------------------------------------------

def _splitmix64_reference(seed, n):
    """Outputs 1 to n of SplitMix64 seeded with ``seed``, in Python ints."""
    out = []
    state = seed
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        out.append(z ^ (z >> 31))
    return out


def _box_muller_reference(seed, n):
    """Deviates 0 to n - 1 by the stream's definition in Python floats: pair
    k takes outputs 2k + 1 and 2k + 2, u = (output >> 11) 2**-53, and gives
    r (cos, sin)(2 pi u2 - pi/2) with r = sqrt(-2 ln(1 - u1))."""
    words = _splitmix64_reference(seed, n + n % 2)
    out = []
    for w1, w2 in zip(words[0::2], words[1::2]):
        u1, u2 = (w1 >> 11) * 2.0**-53, (w2 >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        theta = 2.0 * math.pi * u2 - math.pi / 2
        out += [r * math.cos(theta), r * math.sin(theta)]
    return out[:n]


def test_splitmix64_reference_known_answers():
    # the published first outputs of SplitMix64 at seeds 0 and 1234567
    assert _splitmix64_reference(0, 3) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
    ]
    assert _splitmix64_reference(1234567, 3) == [
        0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77
    ]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_stream_bits_are_splitmix64(seed):
    # the uint64 stage, exact integer arithmetic, against the pure-int
    # SplitMix64 over counters 1 to 2m: pair k holds outputs 2k + 1 and
    # 2k + 2; seed 2**64 - 1 wraps every state, and the offset of the
    # second half, seed + (2 - 2m) * golden, wraps below zero
    m = 37
    bits = ringtrap.imaging._pair_bits(seed, np.empty(2 * m, np.uint64))
    want = _splitmix64_reference(seed, 2 * m)
    assert [int(b) for b in bits[:m]] == want[0::2]
    assert [int(b) for b in bits[m:]] == want[1::2]


@pytest.mark.parametrize("seed, n", [(0, 64), (7, 63), (2**64 - 1, 2)])
def test_stream_deviates_follow_box_muller(seed, n):
    # the deviates against the definition in Python floats: both round a
    # log, a cosine and a square root of the same uniforms, so they agree to
    # a few ulp of the largest deviate (|z| < 8.6)
    got = ringtrap.imaging._normal_deviates(seed, n)
    want = _box_muller_reference(seed, n)
    assert got.shape == (n,)
    assert np.abs(got - want).max() <= 1e-13


def test_stream_moments_and_ks_distance():
    # 2**20 deviates of one seed against N(0, 1), each bound fixed from n
    # before the run: the mean and variance within 5 standard errors (1/n
    # and 2/n), the correlation of a pair's two deviates within 5/sqrt(n/2),
    # and the Kolmogorov-Smirnov distance below 1.63/sqrt(n), its 1% point
    n = 2**20
    z = ringtrap.imaging._normal_deviates(2015, n)
    assert abs(z.mean()) < 5 / math.sqrt(n)
    assert abs(z.var() - 1) < 5 * math.sqrt(2 / n)
    assert abs(np.mean(z[0::2] * z[1::2])) < 5 / math.sqrt(n / 2)
    z.sort()
    cdf = 0.5 + 0.5 * np.frompyfunc(math.erf, 1, 1)(z / math.sqrt(2)).astype(float)
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert ks < 1.63 / math.sqrt(n)


def test_stream_prefix_does_not_depend_on_the_draw_size():
    # a deviate depends only on the seed and its index: a small draw, of odd
    # or even size, is the head of a large one, bit for bit
    large = ringtrap.imaging._normal_deviates(99, 10**6)
    for n in (1, 2, 1001, 4096):
        small = ringtrap.imaging._normal_deviates(99, n)
        assert small.tobytes() == large[:n].tobytes()


def test_noise_is_image_plus_scaled_deviates_clipped(fig2b):
    # pixel i in C order takes deviate i, scaled by sigma = frac * max
    img = synth_image(fig2b)
    noisy = add_noise(img, 0.05, seed=3)
    sigma = 0.05 * img.values.max()
    want = img.values + ringtrap.imaging._normal_deviates(3, img.values.size).reshape(img.dims) * sigma
    np.testing.assert_allclose(noisy.values, np.maximum(want, 0.0), rtol=1e-15, atol=1e-15 * sigma)
    assert (noisy.values == 0).any() and noisy.quant_scale is None
    assert add_noise(img, 0.0, seed=3) is img
    # sigma ~1e213, whose square overflows, still gives finite noise
    assert np.isfinite(add_noise(img, 1e200, seed=3).values).all()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_noise_seed_outside_uint64_rejected(fig2b, seed):
    with pytest.raises(ValueError, match="noise seed"):
        add_noise(synth_image(fig2b), 0.01, seed=seed)


def test_noise_draw_holds_two_image_sized_arrays(fig2b):
    # the hashes and the deviates, each ceil(n/2) pairs of float64 (16 bytes
    # beyond the odd 311 x 311 image), and the headers of their views
    img = synth_image(fig2b)
    assert img.values.size % 2 == 1
    tracemalloc.start()
    try:
        _, grown = traced_growth(lambda: add_noise(img, 0.02, seed=5))
    finally:
        tracemalloc.stop()
    assert grown <= 2 * (img.values.nbytes + 8) + 4096


def test_noisy_image_run_imports_no_numpy_random(tmp_path):
    # the image subcommand with noise, in a fresh interpreter, draws without
    # numpy.random
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[rf]\nbx_g = 0.7\nby_g = 0.7\nalpha_deg = -90\n[gravity]\nenabled = false\n"
        "[imaging]\nnoise_frac = 0.02\nnoise_seed = 11\n"
    )
    code = (
        "import sys\nfrom ringtrap.cli import main\n"
        f"status = main(['image', '--config', {str(ini)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(status, 'numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = str(Path(ringtrap.imaging.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stderr


def test_zero_atom_image_measurement_errors(fig2b):
    region, dims = imaging_region(fig2b)
    img = column_density(fig2b, T20, region, dims, atom_number=0.0)
    assert img.values.max() == 0.0
    with pytest.raises(MeasurementError):
        measure_ring_radius(img, (0.0, 0.0), n_diameters=4)


def test_measurement_mean_and_std_invariants(fig2b):
    meas = measure_ring_radius(synth_image(fig2b), (0.0, 0.0), n_diameters=8)
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


@pytest.mark.parametrize("pixel, ok", [
    (np.nan, False), (np.inf, False), (-np.inf, False), (-1e-300, False), (0.0, True), (-0.0, True),
])
def test_image_values_must_be_finite_and_non_negative(pixel, ok):
    values = np.ones((4, 5))
    values[2, 3] = pixel
    if ok:
        assert SyntheticImage(pixel_size=PIXEL, values=values).values[2, 3] == 0.0
    else:
        with pytest.raises(ValueError, match="image values must be finite and non-negative"):
            SyntheticImage(pixel_size=PIXEL, values=values)
