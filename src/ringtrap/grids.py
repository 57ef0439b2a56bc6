"""Sampled scalar fields on axis-aligned rectangular grids."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dressed import dressed_potential, kernel_workspace, yz_planes
from .fields import TrapConfig

#: most nodes in one block of :func:`node_blocks` and :func:`slab_runs`:
#: blocks are runs of whole x-slabs, split into z-rows or z-runs only where
#: one slab holds more nodes. 2^15 nodes keep the kernel's temporaries (a few
#: MB) in cache and bound the working set of the fill, and of each worker of
#: the image's pass over slab runs, to one block (one slab where one slab is
#: larger).
_CHUNK = 1 << 15

#: refuse grids of more nodes: 800 MB as a sampled grid of float64; the
#: image, which holds one slab run per worker, takes time linear in its nodes
MAX_GRID_NODES = 100_000_000


def check_node_limit(dims) -> None:
    """Raise ValueError for a grid of ``dims`` beyond ``MAX_GRID_NODES``."""
    n_nodes = math.prod(dims)
    if n_nodes > MAX_GRID_NODES:
        raise ValueError(
            f"grid of {n_nodes} nodes exceeds the node limit of {MAX_GRID_NODES}; "
            "reduce dims or sample the region in pieces"
        )


@dataclass(frozen=True)
class ScalarGrid:
    """Scalar values sampled on a regular grid.

    ``origin`` is the coordinate of node (0,0,0), ``spacing`` the node pitch
    per axis and ``dims`` the node counts. An axis with ``dims == 1`` is
    collapsed (planar or line grids); its spacing is stored as 1.0.
    """

    origin: tuple
    spacing: tuple
    dims: tuple
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if len(dims) != 3 or any(n < 1 for n in dims):
            raise ValueError("dims must be three positive integers")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != dims:
            raise ValueError(f"values shape {vals.shape} does not match dims {dims}")
        # min and max propagate NaN and reach any inf, with no per-node mask
        if not (math.isfinite(vals.min()) and math.isfinite(vals.max())):
            raise ValueError("grid values must all be finite")
        if any(s <= 0 for n, s in zip(dims, self.spacing) if n > 1):
            raise ValueError("spacing must be positive on non-collapsed axes")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "values", vals)

    def axes(self) -> list[np.ndarray]:
        """Node coordinates along each axis."""
        return [
            self.origin[i] + self.spacing[i] * np.arange(self.dims[i])
            for i in range(3)
        ]

    def node_positions(self) -> np.ndarray:
        """All node coordinates, shape ``dims + (3,)``."""
        ax = self.axes()
        mesh = np.meshgrid(*ax, indexing="ij")
        return np.stack(mesh, axis=-1)

    def min_position(self) -> np.ndarray:
        """Coordinates of the smallest value (first occurrence)."""
        idx = np.unravel_index(int(np.argmin(self.values)), self.dims)
        ax = self.axes()
        return np.array([ax[i][idx[i]] for i in range(3)])


def slab_runs(dims):
    """Slices of the first axis of an array of shape ``dims``: consecutive
    runs of whole slabs (index steps along that axis) of at most ``_CHUNK``
    nodes together, or of one slab where one slab alone holds more."""
    step = max(1, _CHUNK // math.prod(dims[1:]))
    for lo in range(0, dims[0], step):
        yield slice(lo, lo + step)


def node_blocks(dims):
    """Split the C-order nodes of a grid of ``dims`` into consecutive boxes of
    at most ``_CHUNK`` nodes, each a tuple of three slices.

    A box is a run of whole x-slabs when one slab fits, else a run of whole
    z-rows of one slab, else a run of nodes of one z-row. Each box is one
    contiguous run of the flattened grid.
    """
    # the first axis whose slabs fit; the z axis's slabs are single nodes
    axis = next(a for a in range(3) if math.prod(dims[a + 1:]) <= _CHUNK)
    for outer in np.ndindex(*dims[:axis]):
        for run in slab_runs(dims[axis:]):
            yield (
                *(slice(i, i + 1) for i in outer),
                run,
                *(slice(None),) * (2 - axis),
            )


def grid_axes(region, dims):
    """``(dims, origin, spacing, axes)`` of the grid of ``dims`` nodes over
    ``region``, as :func:`sample_grid` takes them; ``axes`` are the node
    coordinates of :meth:`ScalarGrid.axes`."""
    dims = tuple(int(n) for n in dims)
    if len(dims) != 3 or any(n < 1 for n in dims):
        raise ValueError("dims must be three positive integers")
    check_node_limit(dims)
    origin, spacing = [], []
    for (lo, hi), n in zip(region, dims):
        lo, hi = float(lo), float(hi)
        if n == 1:
            origin.append(0.5 * (lo + hi))
            spacing.append(1.0)
            continue
        if not hi > lo:
            raise ValueError("region must have positive extent on multi-node axes")
        origin.append(lo)
        spacing.append((hi - lo) / (n - 1))
    axes = [o + s * np.arange(n) for o, s, n in zip(origin, spacing, dims)]
    return dims, origin, spacing, axes


def fill_workspace(shape) -> np.ndarray:
    """The kernel workspace for :func:`fill_potential` into an array of
    ``shape``: room for its largest :func:`node_blocks` box."""
    return kernel_workspace(min(_CHUNK, math.prod(shape)))


def fill_planes(cfg: TrapConfig, axes, work):
    """The kernel's (y, z) planes (:func:`yz_planes`) of the grid of node
    coordinates ``axes``, formed once in the workspace ``work`` for every
    :func:`node_blocks` box: (1, ny, nz) arrays where the boxes are runs of
    whole x-slabs. Where one slab holds more nodes than a box, each box forms
    the planes of its own nodes, and this is None."""
    if len(axes[1]) * len(axes[2]) > _CHUNK:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # as in fill_potential
        return yz_planes(axes[1][None, :, None], axes[2][None, None, :], cfg, work)


def fill_potential(cfg: TrapConfig, axes, out, work, planes=None) -> None:
    """Write V at the nodes of the grid of node coordinates ``axes`` into
    ``out`` one :func:`node_blocks` box at a time: the kernel takes each
    box's three axis slices, which broadcast to its nodes, its temporaries go
    into the workspace ``work`` (:func:`fill_workspace`), and V straight into
    ``out``, so no box allocates. The (y, z) planes of the kernel's first
    stage are ``planes``, by default :func:`fill_planes` of ``axes``: a
    caller that fills several grids of the same y and z axes through one
    workspace forms them once. A node's V has the same bits in any grid
    that holds it. A node whose V overflows is inf or NaN, with no
    floating-point warning: the caller's finite check reports it."""
    if planes is None:
        planes = fill_planes(cfg, axes, work)
    with np.errstate(over="ignore", invalid="ignore"):
        for box in node_blocks(out.shape):
            dressed_potential(
                (axes[0][box[0], None, None],
                 axes[1][None, box[1], None],
                 axes[2][None, None, box[2]]),
                cfg, work=work, out=out[box], planes=planes,
            )


def sample_grid(cfg: TrapConfig, region, dims) -> ScalarGrid:
    """Evaluate the dressed potential on every node of a rectangular grid.

    Parameters
    ----------
    region : three (min, max) pairs
        Axis-aligned box in meters. An axis with one node collapses to the
        midpoint of its interval.
    dims : three ints
        Node counts; at least 2 on non-collapsed axes.

    The grid is filled by :func:`fill_potential` through one kernel
    workspace. Grids beyond ``MAX_GRID_NODES`` are rejected.
    """
    dims, origin, spacing, axes = grid_axes(region, dims)
    vals = np.empty(dims)
    fill_potential(cfg, axes, vals, fill_workspace(dims))
    return ScalarGrid(origin=origin, spacing=spacing, dims=dims, values=vals)
