"""Synthetic absorption imaging of a thermal cloud and ring-radius readout.

A thermal cloud in the dressed trap is modelled with a Boltzmann density
n(r) ~ exp(-(V - V_min)/k_B T), projected along the quadrupole axis z into a
column density map, and the ring radius is measured the way it is done on
real absorption images: two-Gaussian fits to diameter profiles through the
cloud centroid, averaged over directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import K_B
from .errors import MeasurementError
from .fields import TrapConfig
from .gaussfit import FitError, fit_two_gaussians
from .grids import ScalarGrid, sample_grid, slab_runs


@dataclass(frozen=True)
class SyntheticImage:
    """2D column-density map emulating an absorption image.

    ``values[i, j]`` is the column density at in-plane position
    ``(axis0[i], axis1[j])`` with square pixels of ``pixel_size`` meters.
    Values are a column density scaled by ``od_scale`` (an arbitrary
    optical-density proxy constant; the radius measurement is
    scale-invariant).
    """

    pixel_size: float
    values: np.ndarray
    origin: tuple = (0.0, 0.0)
    od_scale: float = 1.0
    quant_scale: float | None = None  # uint16 scale this image was stored with

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 2 or vals.shape[1] < 2:
            raise ValueError("image must be a 2D array with at least 2x2 pixels")
        if not np.all(np.isfinite(vals)) or vals.min() < 0:
            raise ValueError("image values must be finite and non-negative")
        if not self.pixel_size > 0:
            raise ValueError("pixel size must be positive")
        object.__setattr__(self, "values", vals)

    @property
    def dims(self) -> tuple:
        return self.values.shape

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        n0, n1 = self.values.shape
        return (
            self.origin[0] + self.pixel_size * np.arange(n0),
            self.origin[1] + self.pixel_size * np.arange(n1),
        )

    def integral(self) -> float:
        """Trapezoidal integral over the image plane (atoms, if normalised)."""
        out = np.trapezoid(self.values, dx=self.pixel_size, axis=1)
        return float(np.trapezoid(out, dx=self.pixel_size, axis=0))

    def centroid(self) -> tuple[float, float]:
        total = float(self.values.sum())
        if total <= 0:
            raise MeasurementError("image is empty; no identifiable centroid")
        c0, c1 = self.coords()
        w0 = float((self.values.sum(axis=1) * c0).sum() / total)
        w1 = float((self.values.sum(axis=0) * c1).sum() / total)
        return (w0, w1)


def thermal_density(
    cfg: TrapConfig, temperature: float, region, dims, atom_number: float = 1e5
) -> ScalarGrid:
    """Boltzmann density n(r) = N exp(-(V - V_min)/k_B T) / Z on a grid.

    Normalised so the trapezoidal integral over the grid equals
    ``atom_number``. The grid region doubles as the trap truncation: only
    population inside it is modelled.

    The potential grid is made here and does not escape before it is
    turned into the density in place: the density keeps the one grid array
    the fill allocates. The fill and the normalising integral each work one
    block at a time, so the peak is 8 B per node plus one block.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    if atom_number < 0:
        raise ValueError("atom number must be non-negative")
    grid = sample_grid(cfg, region, dims)  # ScalarGrid rejects non-finite values
    w = grid.values
    w -= w.min()
    w /= -(K_B * temperature)
    np.exp(w, out=w)  # weights in [0, 1]
    norm = grid.integral()
    if norm <= 0:
        raise ValueError("density normalisation integral vanished")
    scale = atom_number / norm
    if not math.isfinite(scale):
        raise ValueError("density scale atom_number / integral is not finite")
    w *= scale
    return grid


def column_density(density: ScalarGrid, od_scale: float = 1.0) -> SyntheticImage:
    """Project a 3D density along z by trapezoidal integration.

    The x and y spacings must agree (square pixels). With the density
    normalised by :func:`thermal_density`, the image integral equals the
    atom number to machine precision. Each run of x-slabs (:func:`slab_runs`)
    is projected into the image in turn, so only one block of temporaries
    is held on top of the image.
    """
    if density.dims[2] < 2:
        raise ValueError("projection axis is collapsed; nothing to integrate")
    p0, p1 = density.spacing[0], density.spacing[1]
    if not math.isclose(p0, p1, rel_tol=1e-12):
        raise ValueError("image pixels must be square; grid spacings differ")
    img = np.empty(density.dims[:2])
    for run in slab_runs(density.dims):
        img[run] = np.trapezoid(density.values[run], dx=density.spacing[2], axis=2)
    img *= od_scale
    return SyntheticImage(
        pixel_size=p0,
        values=img,
        origin=density.origin[:2],
        od_scale=od_scale,
    )


def add_noise(image: SyntheticImage, sigma_frac: float, seed: int = 0) -> SyntheticImage:
    """Additive Gaussian noise with sigma = sigma_frac * max(image), clipped
    at zero. Deterministic for a fixed seed."""
    if sigma_frac < 0:
        raise ValueError("noise fraction must be non-negative")
    if sigma_frac == 0:
        return image
    rng = np.random.default_rng(seed)
    sigma = sigma_frac * float(image.values.max())
    noisy = np.clip(image.values + rng.normal(0.0, sigma, image.values.shape), 0.0, None)
    return replace(image, values=noisy, quant_scale=None)


# ---------------------------------------------------------------------------
# ring-radius measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiameterFit:
    angle: float
    radius: float
    residual: float  # RMS fit residual relative to the profile peak


@dataclass(frozen=True)
class RadiusMeasurement:
    """Ring radius from two-Gaussian diameter fits, averaged over angles."""

    radius: float
    uncertainty: float  # std of per-diameter radii
    per_diameter: tuple
    excluded: tuple = ()  # (angle, reason) for diameters that failed

    def __post_init__(self):
        if self.uncertainty < 0:
            raise ValueError("uncertainty must be non-negative")


def _bilinear(values: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    i0 = np.floor(i).astype(int)
    j0 = np.floor(j).astype(int)
    i0 = np.clip(i0, 0, values.shape[0] - 2)
    j0 = np.clip(j0, 0, values.shape[1] - 2)
    di = i - i0
    dj = j - j0
    return (
        values[i0, j0] * (1 - di) * (1 - dj)
        + values[i0 + 1, j0] * di * (1 - dj)
        + values[i0, j0 + 1] * (1 - di) * dj
        + values[i0 + 1, j0 + 1] * di * dj
    )


def extract_diameter_profile(image: SyntheticImage, angle: float, center=None):
    """Sample the image along a line through ``center`` at ``angle``.

    Returns (signed distance from the centre [m], value) arrays with one
    sample per pixel pitch, clipped to the image interior.
    """
    c0, c1 = center if center is not None else image.centroid()
    a0, a1 = image.coords()
    u0, u1 = math.cos(angle), math.sin(angle)
    # longest reach that keeps every sample inside the image
    reach = math.hypot(a0[-1] - a0[0], a1[-1] - a1[0])
    n = int(reach / image.pixel_size)
    t = (np.arange(2 * n + 1) - n) * image.pixel_size
    p0 = c0 + t * u0
    p1 = c1 + t * u1
    inside = (p0 >= a0[0]) & (p0 <= a0[-1]) & (p1 >= a1[0]) & (p1 <= a1[-1])
    t, p0, p1 = t[inside], p0[inside], p1[inside]
    i = (p0 - a0[0]) / image.pixel_size
    j = (p1 - a1[0]) / image.pixel_size
    return t, _bilinear(image.values, i, j)


def measure_ring_radius(
    image: SyntheticImage, n_diameters: int = 8, center=None
) -> RadiusMeasurement:
    """Ring radius by the diameter method.

    For each of ``n_diameters`` equally spaced angles in [0, pi), the profile
    through the image centroid is fit with a sum of two Gaussians and the
    half peak-to-peak centre separation gives one radius. Degenerate or
    failed fits are excluded (and reported); if every diameter fails, a
    :class:`MeasurementError` is raised. ``radius`` is the mean of the
    per-diameter radii and ``uncertainty`` their standard deviation.
    """
    if n_diameters < 2:
        raise ValueError("need at least 2 diameters")
    ctr = center if center is not None else image.centroid()
    fits = []
    excluded = []
    for k in range(n_diameters):
        angle = k * math.pi / n_diameters
        t, prof = extract_diameter_profile(image, angle, ctr)
        try:
            fit = fit_two_gaussians(t, prof)
        except FitError as err:
            excluded.append((angle, str(err)))
            continue
        if fit.degenerate:
            excluded.append((angle, "degenerate: centers collapsed"))
            continue
        if not fit.converged:
            excluded.append((angle, "fit did not converge"))
            continue
        rms = math.sqrt(fit.cost / t.size) / max(float(prof.max()), 1e-300)
        fits.append(DiameterFit(angle=angle, radius=fit.separation / 2.0, residual=rms))
    if not fits:
        raise MeasurementError(
            "all diameter fits failed: " + "; ".join(r for _, r in excluded)
        )
    radii = np.array([f.radius for f in fits])
    return RadiusMeasurement(
        radius=float(radii.mean()),
        uncertainty=float(radii.std()),
        per_diameter=tuple(fits),
        excluded=tuple(excluded),
    )
