"""Sampled scalar fields on axis-aligned rectangular grids."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dressed import dressed_potential
from .fields import TrapConfig

#: refuse to allocate grids beyond this many nodes
MAX_GRID_NODES = 100_000_000

#: number of nodes evaluated per chunk when filling large grids
_CHUNK = 1 << 18


@dataclass(frozen=True)
class ScalarGrid:
    """Scalar values sampled on a regular grid.

    ``origin`` is the coordinate of node (0,0,0), ``spacing`` the node pitch
    per axis and ``dims`` the node counts. An axis with ``dims == 1`` is
    collapsed (planar or line grids); its spacing is stored as 1.0 and it is
    skipped by :meth:`integral`.
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
        if not np.all(np.isfinite(vals)):
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

    def integral(self) -> float:
        """Trapezoidal integral over all non-collapsed axes."""
        out = self.values
        for axis in (2, 1, 0):
            if self.dims[axis] > 1:
                out = np.trapezoid(out, dx=self.spacing[axis], axis=axis)
            else:
                out = np.squeeze(out, axis=axis)
        return float(out)

    def min_position(self) -> np.ndarray:
        """Coordinates of the smallest value (first occurrence)."""
        idx = np.unravel_index(int(np.argmin(self.values)), self.dims)
        ax = self.axes()
        return np.array([ax[i][idx[i]] for i in range(3)])


def _axis_nodes(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    if n == 1:
        return np.array([0.5 * (lo + hi)]), 1.0
    if not hi > lo:
        raise ValueError("region must have positive extent on multi-node axes")
    spacing = (hi - lo) / (n - 1)
    # same arithmetic ScalarGrid.axes() uses, so positions reconstruct exactly
    return lo + spacing * np.arange(n), spacing


def sample_grid(cfg: TrapConfig, region, dims) -> ScalarGrid:
    """Evaluate the dressed potential on every node of a rectangular grid.

    Parameters
    ----------
    region : three (min, max) pairs
        Axis-aligned box in meters. An axis with one node collapses to the
        midpoint of its interval.
    dims : three ints
        Node counts; at least 2 on non-collapsed axes.

    The fill is deterministic for fixed inputs. Grids above
    ``MAX_GRID_NODES`` nodes are rejected; shrink dims or split the region.
    """
    dims = tuple(int(n) for n in dims)
    if len(dims) != 3 or any(n < 1 for n in dims):
        raise ValueError("dims must be three positive integers")
    n_nodes = dims[0] * dims[1] * dims[2]
    if n_nodes > MAX_GRID_NODES:
        raise ValueError(
            f"grid of {n_nodes} nodes exceeds the {MAX_GRID_NODES} node limit; "
            "reduce dims or sample the region in pieces"
        )
    region = [(float(lo), float(hi)) for lo, hi in region]
    axes, spacings = [], []
    for (lo, hi), n in zip(region, dims):
        ax, sp = _axis_nodes(lo, hi, n)
        axes.append(ax)
        spacings.append(sp)

    # fill in C-order chunks; positions are built per chunk to bound memory
    nx, ny, nz = dims
    vals = np.empty(n_nodes)
    for start in range(0, n_nodes, _CHUNK):
        stop = min(start + _CHUNK, n_nodes)
        idx = np.arange(start, stop)
        ix, rem = np.divmod(idx, ny * nz)
        iy, iz = np.divmod(rem, nz)
        pts = np.stack([axes[0][ix], axes[1][iy], axes[2][iz]], axis=-1)
        vals[start:stop] = dressed_potential(pts, cfg)
    return ScalarGrid(
        origin=(axes[0][0], axes[1][0], axes[2][0]),
        spacing=tuple(spacings),
        dims=dims,
        values=vals.reshape(dims),
    )
