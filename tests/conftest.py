import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import ringtrap.dressed
from ringtrap import (
    QuadrupoleConfig,
    RB87,
    RfConfig,
    SyntheticImage,
    TrapConfig,
    column_density,
    dressed_potential,
    resonance_radius,
    sample_grid,
)
from ringtrap.constants import K_B

# property tests draw the same examples on every run and have no deadline:
# the suite must be deterministic and must not fail on a slow shared machine
settings.register_profile(
    "ringtrap", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("ringtrap")

OMEGA_15MHZ = 2 * np.pi * 1.5e6
B07 = 0.7e-4  # 0.7 G in tesla
B02 = 0.2e-4  # 0.2 G in tesla
PIXEL = 2.5e-6


def make_trap(b_x=0.0, b_y=0.0, b_z=0.0, alpha=0.0, beta=0.0,
              omega=OMEGA_15MHZ, gradient=1.0, gravity=False, atom=RB87):
    return TrapConfig(
        atom=atom,
        quad=QuadrupoleConfig(gradient=gradient),
        rf=RfConfig(b_x=b_x, b_y=b_y, b_z=b_z, alpha=alpha, beta=beta, omega=omega),
        gravity_on=gravity,
    )


def reference_configs():
    """The fig. 2a/b/c panels and the circular ring under gravity, by name."""
    return {
        "fig2a": make_trap(b_x=B07),
        "fig2b": make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2),
        "fig2c": make_trap(b_x=B07, b_z=B02, beta=0.0),
        "gravity": make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True),
    }


def grid_global_min(cfg, lo, hi, n=161):
    """Brute-force node minimum over the box (lo, hi), evaluated slab by
    slab: (V, position, largest change of V to a neighbouring node)."""
    axes = [np.linspace(lo[i], hi[i], n) for i in range(3)]
    xg, yg = np.meshgrid(axes[0], axes[1], indexing="ij")
    best_v, best_pos = np.inf, None
    for z in axes[2]:
        pts = np.stack([xg, yg, np.full_like(xg, z)], axis=-1)
        vals = dressed_potential(pts, cfg)
        idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[idx] < best_v:
            best_v = float(vals[idx])
            best_pos = np.array([axes[0][idx[0]], axes[1][idx[1]], z])
    cell = np.array([ax[1] - ax[0] for ax in axes])
    neighbors = best_pos + np.vstack([np.diag(cell), -np.diag(cell)])
    neighbors = np.clip(neighbors, lo, hi)
    variation = float(np.max(np.abs(dressed_potential(neighbors, cfg) - best_v)))
    return best_v, best_pos, variation


def quadrupole_field(r, quad):
    """Quadrupole field vector B_q*(x, y, -2z) [T] at position(s) ``r``, an
    array of shape (..., 3) in meters: the field model of the kernel's
    Larmor frequency."""
    r = np.asarray(r, dtype=float)
    return quad.gradient * (r * np.array([1.0, 1.0, -2.0]))


def field_magnitude(r, quad):
    """|B| = B_q * sqrt(x^2 + y^2 + 4 z^2); exactly zero at the origin."""
    r = np.asarray(r, dtype=float)
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    return quad.gradient * np.sqrt(x * x + y * y + 4.0 * z * z)


def larmor_frequency(r, cfg):
    """The kernel's local Larmor frequency omega_0 [rad/s] at position(s)
    ``r`` in either form; zero at the trap centre."""
    return ringtrap.dressed._larmor_and_rabi_squared(r, cfg)[0]


def detuning(r, cfg):
    """delta = omega - omega_0(r) of the kernel: positive inside the
    resonance shell."""
    return cfg.rf.omega - larmor_frequency(r, cfg)


def potential_gradient(r, cfg, h=1e-7):
    """Central-difference gradient of V [J/m], O(h^2) accurate; one kernel call."""
    r = np.asarray(r, dtype=float)
    steps = h * np.eye(3)
    v = dressed_potential(np.concatenate([r + steps, r - steps]), cfg)
    return (v[:3] - v[3:]) / (2.0 * h)


def richardson_gradient(r, cfg, h):
    """The Richardson extrapolant (4 g(h/2) - g(h)) / 3 of the central
    difference gradient g of V at ``r``: its error is O(h^4), not O(h^2)."""
    return (4 * potential_gradient(r, cfg, h / 2) - potential_gradient(r, cfg, h)) / 3


def node_positions(grid):
    """All node coordinates of a ``ScalarGrid``, shape ``dims + (3,)``."""
    return np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)


def count_kernel_calls(monkeypatch, module):
    """Route ``module.dressed_potential`` through a counter; returns the list
    of point-array shapes it is called with. A tuple of coordinate arrays
    counts as the (..., 3) array of the points it broadcasts to. Any further
    arguments, such as a workspace and an output array, pass through."""
    calls = []

    def counted(r, cfg, *args, **kwargs):
        calls.append(np.broadcast(*r).shape + (3,) if isinstance(r, tuple) else np.shape(r))
        return dressed_potential(r, cfg, *args, **kwargs)

    monkeypatch.setattr(module, "dressed_potential", counted)
    return calls


def count_coupling_calls(monkeypatch):
    """Route ``dressed._larmor_and_rabi_squared``, the body that every kernel
    entry point (``dressed_potential``, ``rabi_squared``, ...) runs once per
    call, through a counter; returns the list of point-array shapes it is
    called with. A tuple of coordinate arrays counts as the (..., 3) array
    of the points it broadcasts to."""
    kernel = ringtrap.dressed._larmor_and_rabi_squared
    shapes = []

    def counted(r, cfg, *args):
        shapes.append(np.broadcast(*r).shape + (3,) if isinstance(r, tuple) else np.shape(r))
        return kernel(r, cfg, *args)

    monkeypatch.setattr(ringtrap.dressed, "_larmor_and_rabi_squared", counted)
    return shapes


def traced_growth(step):
    """Run ``step()`` under tracemalloc, which must be tracing; return its
    result and its peak above what was held when it started."""
    tracemalloc.reset_peak()
    held, _ = tracemalloc.get_traced_memory()
    result = step()
    return result, tracemalloc.get_traced_memory()[1] - held


@pytest.fixture
def fig2a():
    """Linear polarization along x: double-well regime."""
    return make_trap(b_x=B07)


@pytest.fixture
def fig2b():
    """Circular polarization in the xy plane: symmetric-ring regime."""
    return make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2)


@pytest.fixture
def fig2c():
    """Linear x plus axial z component, beta=0: asymmetric-ring regime."""
    return make_trap(b_x=B07, b_z=B02, beta=0.0)


def imaging_region(cfg, pixel=PIXEL, half_xy_factor=1.8, half_z_factor=0.1, nz=33):
    """Default synthetic-imaging box: ring plane slab, square pixels."""
    r0 = resonance_radius(cfg)
    n_half = int(np.ceil(half_xy_factor * r0 / pixel))
    ext = n_half * pixel
    region = ((-ext, ext), (-ext, ext), (-half_z_factor * r0, half_z_factor * r0))
    return region, (2 * n_half + 1, 2 * n_half + 1, nz)


def whole_array_integral(grid):
    """Trapezoidal integral of a grid over all its non-collapsed axes: one
    trapezoid pass per axis over the whole array."""
    out = grid.values
    for axis in (2, 1, 0):
        if grid.dims[axis] > 1:
            out = np.trapezoid(out, dx=grid.spacing[axis], axis=axis)
        else:
            out = np.squeeze(out, axis=axis)
    return float(out)


#: largest difference of the one-pass image from the two-stage oracle,
#: relative to the image maximum, per z node. Each node's weight exp(-x)
#: takes an exponent x = (V - V_ref)/k_B T rounded to within a few ulps of
#: x, so its error is at most a few eps * x e^-x <= a few eps of the peak
#: weight 1; a column adds nz such weights, and the run's lift and the
#: normalisation round a few times more. No physics tolerance is involved.
ORACLE_EPS_PER_Z_NODE = 4 * np.finfo(float).eps


def oracle_tolerance(img, nz):
    """The rounding bound of ``ORACLE_EPS_PER_Z_NODE`` for an image of a
    grid of ``nz`` z nodes."""
    return ORACLE_EPS_PER_Z_NODE * nz * img.values.max()


def two_stage_image(cfg, temperature, region, dims, atom_number=1e5, od_scale=1.0):
    """The image made in two stages through a whole 3-D grid, as
    ``column_density`` made it before it ran in one pass: the potential grid
    of ``sample_grid``, then :func:`two_stage_projection`."""
    return two_stage_projection(
        sample_grid(cfg, region, dims), temperature, atom_number, od_scale
    )


def two_stage_projection(grid, temperature, atom_number=1e5, od_scale=1.0):
    """The second stage of :func:`two_stage_image`: the potential ``grid``
    turned into the Boltzmann density exp(-(V - V_min)/k_B T) in place,
    normalised by its 3-D trapezoid integral to ``atom_number``, then
    trapezoid-projected along z and scaled by ``od_scale``."""
    w = grid.values
    w -= w.min()
    w /= -(K_B * temperature)
    np.exp(w, out=w)
    w *= atom_number / whole_array_integral(grid)
    img = np.trapezoid(w, dx=grid.spacing[2], axis=2) * od_scale
    return SyntheticImage(
        pixel_size=grid.spacing[0], values=img, origin=grid.origin[:2], od_scale=od_scale
    )


def synth_image(cfg, temperature=20e-6, atoms=1e5, pixel=PIXEL):
    region, dims = imaging_region(cfg, pixel=pixel)
    return column_density(cfg, temperature, region, dims, atom_number=atoms)
