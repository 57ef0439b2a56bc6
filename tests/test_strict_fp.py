"""The reference pipelines raise no floating-point warning.

``analyze_trap`` and ``frequency_sweep`` run on the four reference configs,
in the z = 0 plane and with a z band, ``sample_grid`` fills grids that hold
the trap centre, and the kernel takes points whose coordinates differ by
hundreds of decades, under ``np.errstate(all="raise")``: any division by
zero, overflow, underflow or invalid operation (such as the 0/0 of a
zero-width z window, or 1/R at the centre) fails the test. So do rf phases
so small that the sine parts of the amplitude underflow.
"""

import numpy as np
import pytest

from ringtrap import analyze_trap, dressed_potential, frequency_sweep, sample_grid
from ringtrap.analysis import shell_minimum

from conftest import B07, imaging_region, make_trap, reference_configs


@pytest.mark.parametrize("band_factor", [0.0, 1e-6, 0.3, 2.0])
@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_pipelines_raise_no_fp_error(name, band_factor):
    cfg = reference_configs()[name]
    with np.errstate(all="raise"):
        analysis = analyze_trap(cfg, z_band_factor=band_factor)
        rows = frequency_sweep(
            cfg, [0.5 * cfg.rf.omega, cfg.rf.omega], z_band_factor=band_factor
        )
    assert np.isfinite(analysis.ring_radius) and np.isfinite(analysis.depth)
    assert all(np.isfinite(row.barrier_height) for row in rows)


@pytest.mark.parametrize("grid", ["map", "image"])
@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_grid_fill_through_the_centre_raises_no_fp_error(name, grid):
    cfg = reference_configs()[name]
    if grid == "map":
        # the README's 401 x 401 grid of the z = 0 plane
        region, dims = ((-5e-4, 5e-4), (-5e-4, 5e-4), (0.0, 0.0)), (401, 401, 1)
    else:
        # a pixel of 2^-17 m makes every node a whole number of pixels from
        # the axis, and nz = 33 puts the middle z plane exactly at 0
        region, dims = imaging_region(cfg, pixel=2.0**-17)
    with np.errstate(all="raise"):
        filled = sample_grid(cfg, region, dims)
    assert all(0.0 in axis for axis in filled.axes())  # the trap centre is a node


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_kernel_at_disparate_coordinates_raises_no_fp_error(name):
    # the square of the 1e-200 m coordinate's part of the coupling
    # underflows to 0, which changes nothing
    cfg = reference_configs()[name]
    with np.errstate(all="raise"):
        v = dressed_potential([1e-200, 1e-4, 0.0], cfg)
    assert v == dressed_potential([0.0, 1e-4, 0.0], cfg)



@pytest.mark.parametrize("gravity", [False, True])
@pytest.mark.parametrize("alpha", [1.6e-193, 1.1e-308])
def test_tiny_rf_phase_raises_no_fp_error(alpha, gravity):
    # the squares of the ~1e-197 T sine part underflow on the sphere of
    # field directions, and a subnormal phase's sine underflows itself; the
    # 0 they give changes nothing, so the trap is that of phase 0
    with np.errstate(all="raise"):
        cfg = make_trap(b_x=B07, b_y=B07, alpha=alpha, gravity=gravity)
        analysis = analyze_trap(cfg)
        got = shell_minimum(cfg, np.array([0.6, 0.0, 0.8]))
    plain = make_trap(b_x=B07, b_y=B07, gravity=gravity)
    expected = shell_minimum(plain, np.array([0.6, 0.0, 0.8]))
    np.testing.assert_allclose(got.position, expected.position, rtol=1e-12, atol=1e-15)
    assert analysis.geometry == analyze_trap(plain).geometry
