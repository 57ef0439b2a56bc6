import math
import tracemalloc

import numpy as np
import pytest

import ringtrap.grids
import ringtrap.imaging
from ringtrap import (
    ScalarGrid,
    column_density,
    dressed_potential,
    resonance_radius,
    sample_grid,
)
from ringtrap.constants import HBAR, K_B, RB87
from ringtrap.dressed import PLANE_ROWS, STAGE_ROWS, WORKSPACE_ROWS, yz_planes
from ringtrap.grids import _CHUNK, fill_workspace, grid_axes, node_blocks

from conftest import (
    B07,
    count_kernel_calls,
    make_trap,
    node_positions,
    oracle_tolerance,
    reference_configs,
    traced_growth,
    two_stage_projection,
)


def test_fig2b_plane_minimum_locus(fig2b):
    # the minimum-value locus of the z=0 plane grid is the resonance circle:
    # in every azimuthal sector the lowest node sits at radius r0
    r0 = resonance_radius(fig2b)
    grid = sample_grid(fig2b, ((-5e-4, 5e-4), (-5e-4, 5e-4), (0, 0)), (401, 401, 1))
    vals = grid.values[:, :, 0]
    xs, ys, _ = grid.axes()
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    radii = np.hypot(xg, yg)
    phis = np.arctan2(yg, xg)
    diag = np.hypot(*grid.spacing[:2])
    for k in range(16):
        lo, hi = -np.pi + k * np.pi / 8, -np.pi + (k + 1) * np.pi / 8
        sector = (phis >= lo) & (phis < hi)
        sub = np.where(sector, vals, np.inf)
        i, j = np.unravel_index(np.argmin(sub), sub.shape)
        assert abs(radii[i, j] - r0) <= diag


def test_bare_trap_grid_min_on_shell():
    cfg = make_trap()  # no rf amplitudes
    r0 = resonance_radius(cfg)
    grid = sample_grid(cfg, ((-2 * r0, 2 * r0), (-2 * r0, 2 * r0), (0, 0)), (201, 201, 1))
    assert grid.values.min() < 1e-3 * RB87.m_F * HBAR * cfg.rf.omega
    pos = grid.min_position()
    assert np.hypot(pos[0], pos[1]) == pytest.approx(r0, abs=2 * grid.spacing[0])


def test_planar_grid_matches_3d_evaluation(fig2c):
    r0 = resonance_radius(fig2c)
    region = ((-r0, r0), (0.2 * r0, 1.5 * r0), (1e-5, 1e-5))
    grid = sample_grid(fig2c, region, (21, 21, 1))
    pts = node_positions(grid).reshape(-1, 3)
    np.testing.assert_array_equal(grid.values.reshape(-1), dressed_potential(pts, fig2c))


def test_collapsed_axis_uses_midpoint(fig2a):
    grid = sample_grid(fig2a, ((0, 1e-4), (0, 1e-4), (-3e-5, 1e-5)), (5, 5, 1))
    assert grid.axes()[2][0] == pytest.approx(-1e-5)


def test_node_count_guard(fig2a):
    with pytest.raises(ValueError, match="node limit"):
        sample_grid(fig2a, ((0, 1), (0, 1), (0, 1)), (1000, 1000, 1000))
    # 10^8 nodes fit the node limit, one more does not
    ringtrap.grids.check_node_limit((10**4, 10**4, 1))
    with pytest.raises(ValueError, match="node limit of 100000000"):
        ringtrap.grids.check_node_limit((10**8 + 1, 1, 1))


def test_grid_validation():
    with pytest.raises(ValueError):
        ScalarGrid(origin=(0, 0, 0), spacing=(1, 1, 1), dims=(2, 2, 2), values=np.zeros((2, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros((2, 2, 2))
        values[1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ScalarGrid(origin=(0, 0, 0), spacing=(1, 1, 1), dims=(2, 2, 2), values=values)
    with pytest.raises(ValueError):
        ScalarGrid(origin=(0, 0, 0), spacing=(0, 1, 1), dims=(2, 2, 2), values=np.zeros((2, 2, 2)))


def test_determinism(fig2b):
    g1 = sample_grid(fig2b, ((-1e-4, 1e-4), (-1e-4, 1e-4), (0, 0)), (51, 51, 1))
    g2 = sample_grid(fig2b, ((-1e-4, 1e-4), (-1e-4, 1e-4), (0, 0)), (51, 51, 1))
    np.testing.assert_array_equal(g1.values, g2.values)


def divmod_fill(cfg, axes, dims):
    """The fill sample_grid used before slabs: C-order chunks of _CHUNK nodes,
    positions gathered from the axes by divmod node indices."""
    nx, ny, nz = dims
    n_nodes = nx * ny * nz
    vals = np.empty(n_nodes)
    for start in range(0, n_nodes, _CHUNK):
        stop = min(start + _CHUNK, n_nodes)
        idx = np.arange(start, stop)
        ix, rem = np.divmod(idx, ny * nz)
        iy, iz = np.divmod(rem, nz)
        pts = np.stack([axes[0][ix], axes[1][iy], axes[2][iz]], axis=-1)
        vals[start:stop] = dressed_potential(pts, cfg)
    return vals.reshape(dims)


CIRCULAR = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2)


@pytest.mark.parametrize(
    "cfg, region, dims",
    [
        (CIRCULAR, ((-5e-4, 5e-4), (-5e-4, 5e-4), (0, 0)), (401, 401, 1)),
        # gravity on, 3D
        (make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True),
         ((-3e-4, 3e-4), (-2e-4, 4e-4), (-5e-5, 5e-5)), (41, 37, 9)),
        # collapsed middle axis
        (CIRCULAR, ((-3e-4, 3e-4), (1e-4, 2e-4), (-5e-5, 5e-5)), (7, 1, 5)),
        # one x-slab holds more than _CHUNK nodes
        (CIRCULAR, ((-1e-4, 1e-4), (-3e-4, 3e-4), (-1e-4, 1e-4)), (2, 600, 600)),
        # one z-row holds more than _CHUNK nodes
        (CIRCULAR, ((1e-4, 1e-4), (0, 0), (-3e-4, 3e-4)), (1, 1, 300_000)),
    ],
)
def test_fill_matches_divmod_oracle(monkeypatch, cfg, region, dims):
    calls = count_kernel_calls(monkeypatch, ringtrap.grids)
    grid = sample_grid(cfg, region, dims)
    np.testing.assert_array_equal(grid.values, divmod_fill(cfg, grid.axes(), dims))
    sizes = [math.prod(shape[:-1]) for shape in calls]
    assert all(shape[-1] == 3 for shape in calls)
    assert max(sizes) <= _CHUNK
    assert sum(sizes) == math.prod(dims)


def centred_region(dims, pitch=2.0**-17):
    """A box whose nodes are whole numbers of ``pitch`` from the axes, so
    that the trap centre is a node."""
    return tuple(
        (-(n // 2) * pitch, (n - 1 - n // 2) * pitch) if n > 1 else (0.0, 0.0)
        for n in dims
    )


@pytest.mark.parametrize(
    "dims, block",
    [
        ((41, 41, 33), (_CHUNK // (41 * 33), 41, 33)),  # a run of whole x-slabs
        ((2, 600, 600), (1, _CHUNK // 600, 600)),  # z-rows of one slab
        ((1, 1, 300_000), (1, 1, _CHUNK)),  # a segment of one z-row
    ],
)
@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_centre_node_in_each_kind_of_block(name, dims, block):
    # the block that holds the centre takes the rescue and the centre's
    # coupling inside the workspace: no floating-point error, and the bits of
    # one kernel call on the stacked positions of every node
    cfg = reference_configs()[name]
    with np.errstate(all="raise"):
        grid = sample_grid(cfg, centred_region(dims), dims)
        stacked = dressed_potential(node_positions(grid), cfg)
    centre = [int(np.flatnonzero(axis == 0.0)[0]) for axis in grid.axes()]
    box = next(
        box for box in node_blocks(dims)
        if all(i in range(n)[s] for i, n, s in zip(centre, dims, box))
    )
    assert tuple(len(range(n)[s]) for n, s in zip(dims, box)) == block
    assert grid.values.tobytes() == stacked.tobytes()


def test_fill_grows_by_one_workspace_whatever_its_block_count(fig2b):
    # 4 and 40 blocks of one x-slab each, both grids holding the centre:
    # beyond its own values a fill holds the workspace's four node rows, the
    # planes with the scratch row of their forming, and, in the centre's
    # block, one mask of a byte per node, numpy's ufunc buffers and the
    # workspace's x row, all far below one block of float temporaries
    block = 8 * 127 * 257
    growth = []
    tracemalloc.start()
    try:
        for n in (4, 40):
            dims = (n, 127, 257)
            grid, grown = traced_growth(lambda: sample_grid(fig2b, centred_region(dims), dims))
            assert all(0.0 in axis for axis in grid.axes())
            growth.append(grown - grid.values.nbytes)
    finally:
        tracemalloc.stop()
    workspace = (STAGE_ROWS + PLANE_ROWS) * block
    assert all(workspace <= g < workspace + block for g in growth)
    # nothing accumulates per block: the fills differ by a few small objects
    assert abs(growth[1] - growth[0]) < 16 << 10


@pytest.mark.parametrize("gravity", [False, True])
def test_kernel_call_with_a_workspace_allocates_less_than_a_block(gravity):
    # a whole-slab block holding the centre, which takes the rescue: every
    # block-sized temporary is in the workspace and V goes into ``out``
    cfg = make_trap(b_x=B07, b_z=2e-5, beta=0.3, gravity=gravity)
    y, z = ((np.arange(n) - n // 2) * 2.0**-17 for n in (127, 257))
    coords = (np.zeros((1, 1, 1)), y[None, :, None], z[None, None, :])
    work = np.empty((WORKSPACE_ROWS, _CHUNK))
    out = np.empty((1, 127, 257))
    tracemalloc.start()
    try:
        _, grown = traced_growth(lambda: dressed_potential(coords, cfg, work=work, out=out))
    finally:
        tracemalloc.stop()
    assert grown < out.nbytes
    assert out.tobytes() == dressed_potential(coords, cfg).tobytes()
    # given the planes, as in a grid fill, it needs the x row and the four
    # node rows only
    planes = yz_planes(coords[1], coords[2], cfg)
    _, work = fill_workspace(out.shape)
    assert len(work) == 1 + STAGE_ROWS and work[0].size == 1
    out.fill(np.nan)
    tracemalloc.start()
    try:
        _, grown = traced_growth(
            lambda: dressed_potential(coords, cfg, work=work, out=out, planes=planes)
        )
    finally:
        tracemalloc.stop()
    assert grown < out.nbytes
    assert out.tobytes() == dressed_potential(coords, cfg).tobytes()


# image-workload grid, planes, a z line, a slab over _CHUNK, collapsed axes,
# an x line and slabs of 12,000 nodes
SLAB_SHAPES = [
    (311, 311, 33), (401, 401, 1), (1, 1, 300_000), (2, 600, 600),
    (7, 1, 5), (1, 37, 9), (1000, 1, 1), (5, 4000, 3),
]


@pytest.mark.parametrize("chunk", [1, 7, 1024, 1 << 15, _CHUNK])
@pytest.mark.parametrize("dims", SLAB_SHAPES)
def test_slab_runs_match_whole_array_trapezoids(monkeypatch, dims, chunk):
    # the runs tile the first axis with at most ``chunk`` nodes each, or one
    # slab; where the grid makes an image, the one pass over them gives the
    # two-stage whole-array image of the same potential, here random values
    # of 1e-3 to 1e3 k_B T on a grid of 1 m pixels, to rounding
    monkeypatch.setattr(ringtrap.grids, "_CHUNK", chunk)
    runs = list(ringtrap.grids.slab_runs(dims))
    slab = math.prod(dims[1:])
    assert np.array_equal(np.concatenate([np.arange(dims[0])[r] for r in runs]),
                          np.arange(dims[0]))
    assert all(len(range(dims[0])[r]) * slab <= max(chunk, slab) for r in runs)
    if min(dims) < 2:
        return  # no image: a collapsed axis
    kt = K_B * 20e-6
    base = np.random.default_rng(math.prod(dims)).random(dims)
    region = [(0.0, n - 1.0) for n in dims]
    # the stand-in fill takes no kernel planes
    monkeypatch.setattr(ringtrap.imaging, "fill_planes", lambda cfg, axes: None)
    for scale in (1e-3, 1.0, 1e3):
        monkeypatch.setattr(
            ringtrap.imaging, "fill_potential",
            lambda cfg, axes, out, work, planes: np.multiply(
                base[axes[0].astype(int)], scale * kt, out=out
            ),
        )
        img = column_density(None, 20e-6, region, dims)
        oracle = two_stage_projection(
            ScalarGrid(origin=(0, 0, 0), spacing=(1, 1, 1), dims=dims, values=base * (scale * kt)),
            20e-6,
        )
        assert np.abs(img.values - oracle.values).max() <= oracle_tolerance(oracle, dims[2])


def test_slab_runs_cover_the_first_axis(monkeypatch):
    # runs of 3 slabs of 4 x 5 nodes; one slab a run where a slab is larger
    monkeypatch.setattr(ringtrap.grids, "_CHUNK", 60)
    assert list(ringtrap.grids.slab_runs((7, 4, 5))) == [slice(0, 3), slice(3, 6), slice(6, 9)]
    assert list(ringtrap.grids.slab_runs((2, 61))) == [slice(0, 1), slice(1, 2)]


def test_grid_dims_and_extent_are_checked():
    with pytest.raises(ValueError, match="dims must be three positive integers"):
        ScalarGrid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2, 2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="dims must be three positive integers"):
        grid_axes([(-1.0, 1.0)] * 2, (3, 3))
    # a multi-node axis needs hi > lo; a one-node axis may have none
    with pytest.raises(ValueError, match="positive extent on multi-node axes"):
        grid_axes([(-1.0, 1.0), (0.5, 0.5), (-1.0, 1.0)], (3, 3, 3))
    dims, origin, _, _ = grid_axes([(-1.0, 1.0), (0.5, 0.5), (-1.0, 1.0)], (3, 1, 3))
    assert dims == (3, 1, 3) and origin[1] == 0.5
