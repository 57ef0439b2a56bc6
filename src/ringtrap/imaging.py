"""Synthetic absorption imaging of a thermal cloud and ring-radius readout.

A thermal cloud in the dressed trap is modelled with a Boltzmann density
n(r) ~ exp(-(V - V_min)/k_B T), projected along the quadrupole axis z into a
column density map in one pass with no 3-D grid, and the ring radius is
measured the way it is done on real absorption images: two-Gaussian fits to
diameter profiles through the trap centre, averaged over directions.
"""

from __future__ import annotations

import contextvars
import math
import operator
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .constants import K_B
from .errors import MeasurementError
from .fields import TrapConfig
from .gaussfit import FitError, fit_two_gaussians
from .grids import fill_planes, fill_potential, fill_workspace, grid_axes, slab_runs


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
        if not (vals.min() >= 0 and math.isfinite(vals.max())):  # NaN fails min() >= 0
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


def _workers(n_items: int) -> int:
    """Threads for ``n_items`` independent items: one per CPU this process
    may run on, and at most one per item."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_items))


def _run_parts(task, n_items: int) -> None:
    """Call ``task`` on contiguous parts of ``range(n_items)``, one part per
    worker (:func:`_workers`): the caller runs part 0 itself, and every other
    part runs on a thread of its own, in a copy of the caller's context, so
    that ``np.errstate`` holds there too. A part stops at its first
    exception; once every thread is joined, the exception of the
    lowest-numbered failing part is raised."""
    n = _workers(n_items)
    parts = [range(n_items * i // n, n_items * (i + 1) // n) for i in range(n)]
    errors = [None] * n

    def run(i):
        try:
            task(parts[i])
        except BaseException as err:
            errors[i] = err

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(run, i))
        for i in range(1, n)
    ]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for err in errors:
        if err is not None:
            raise err


def column_density(
    cfg: TrapConfig, temperature: float, region, dims, atom_number: float = 1e5,
    od_scale: float = 1.0,
) -> SyntheticImage:
    """Absorption image of a thermal cloud: the Boltzmann density
    N exp(-(V - V_min)/k_B T) / Z on the grid of ``dims`` nodes over
    ``region``, z-projected by the trapezoid rule and scaled by ``od_scale``.
    Z makes the image's own (y, x) trapezoid integral ``atom_number``; the
    region is the trap truncation. Pixels must be square, and nz >= 2.

    One pass, no 3-D array: for each run of whole x-slabs (``slab_runs``) V
    fills one reused block, and each node's weight exp(-(V - V_run)/k_B T)
    is taken against the run's least V_run in three passes: subtract V_run,
    multiply by -1/k_B T, exp. One product with the trapezoid weights
    (1/2, 1, ..., 1, 1/2) then z-integrates the block into its image rows,
    which are lifted at the end to the common floor V_min by
    dz exp(-(V_run - V_min)/k_B T). The runs are split into contiguous
    parts, one per available CPU (``_run_parts``), and each part holds a
    block and a kernel workspace of its own, and forms the kernel's (y, z)
    planes once (``fill_planes``) for all its runs. Every run is computed as
    in one serial pass, so the image has the same bits for any number of
    workers.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    if atom_number < 0:
        raise ValueError("atom number must be non-negative")
    dims, origin, spacing, axes = grid_axes(region, dims)
    if dims[2] < 2:
        raise ValueError("projection axis is collapsed; nothing to integrate")
    if not math.isclose(spacing[0], spacing[1], rel_tol=1e-12):
        raise ValueError("image pixels must be square; grid spacings differ")
    kt = K_B * temperature
    runs = list(slab_runs(dims))
    img = np.empty(dims[:2])
    floors = np.empty(len(runs))
    trapezoid = np.ones(dims[2])
    trapezoid[[0, -1]] = 0.5

    def project(part):
        # the runs ``part`` through a block and a workspace of their own;
        # each writes only its image rows and its floor
        block = np.empty((axes[0][runs[0]].size,) + dims[1:])
        work = fill_workspace(block.shape)
        planes = fill_planes(cfg, axes, work)
        for k in part:
            run = runs[k]
            w = block[: axes[0][run].size]
            fill_potential(cfg, (axes[0][run], axes[1], axes[2]), w, work, planes)
            # min and max propagate NaN and reach any inf, with no per-node mask
            floors[k] = w.min()
            if not (math.isfinite(floors[k]) and math.isfinite(w.max())):
                raise ValueError("grid values must all be finite")
            w -= floors[k]
            w *= -1.0 / kt
            np.exp(w, out=w)  # weights in [0, 1]
            np.matmul(w, trapezoid, out=img[run])

    _run_parts(project, len(runs))
    for run, lift in zip(runs, spacing[2] * np.exp((floors - floors.min()) / -kt)):
        img[run] *= lift
    # the trapezoid rule along y, then x, with no image-sized temporary
    rows = img.sum(axis=1) - 0.5 * (img[:, 0] + img[:, -1])
    norm = float(np.trapezoid(rows, dx=spacing[0])) * spacing[1]
    if norm <= 0:
        raise ValueError("density normalisation integral vanished")
    scale = atom_number / norm
    if not math.isfinite(scale):
        raise ValueError("density scale atom_number / integral is not finite")
    img *= scale * od_scale
    return SyntheticImage(spacing[0], img, tuple(origin[:2]), od_scale)


# ---------------------------------------------------------------------------
# image noise: a counter-based Gaussian stream
# ---------------------------------------------------------------------------

#: SplitMix64's state increment, the odd integer nearest 2**64 / golden ratio
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(states: np.ndarray, scratch: np.ndarray) -> None:
    """SplitMix64's output for each uint64 state, in place; ``scratch`` is a
    uint64 array of the same size. Array arithmetic wraps mod 2**64."""
    np.right_shift(states, 30, out=scratch)
    states ^= scratch
    states *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(states, 27, out=scratch)
    states ^= scratch
    states *= np.uint64(0x94D049BB133111EB)
    np.right_shift(states, 31, out=scratch)
    states ^= scratch


def _pair_bits(seed: int, scratch: np.ndarray) -> np.ndarray:
    """Outputs 1 to 2m of SplitMix64 seeded with ``seed`` as a new uint64
    array, where 2m is the size of the uint64 array ``scratch``: the hashes
    of the states seed + c * _GOLDEN mod 2**64, with c = 2k + 1 in entry k
    and c = 2k + 2 in entry m + k, the two halves of pair k. Entry i starts
    as i * 2 _GOLDEN and adds its half's offset, seed + _GOLDEN or
    seed + (2 - 2m) _GOLDEN, each constant reduced mod 2**64 as a Python int."""
    m = scratch.size // 2
    bits = np.arange(2 * m, dtype=np.uint64)
    bits *= np.uint64(2 * _GOLDEN % 2**64)
    bits[:m] += np.uint64((seed + _GOLDEN) % 2**64)
    bits[m:] += np.uint64((seed + (2 - 2 * m) * _GOLDEN) % 2**64)
    _splitmix64(bits, scratch)
    return bits


def _normal_deviates(seed: int, n: int, scale: float = 1.0) -> np.ndarray:
    """The first ``n`` deviates of ``seed``'s standard normal stream, times
    ``scale``; deviate i depends only on ``seed`` and i.

    Pair k hashes counters 2k + 1 and 2k + 2 (:func:`_pair_bits`), takes the
    top 53 bits of each as integers k1, k2 (uniforms u = k 2**-53 in [0, 1))
    and gives deviates 2k and 2k + 1 by Box-Muller: r = sqrt(-2 ln(1 - u1)),
    which 1 - u1 > 0 keeps finite, and the angle theta = 2 pi u2 - pi/2,
    written as theta = phi + h pi with h = [u2 >= 1/2] and phi in
    [-pi/2, pi/2): (z0, z1) = (-1)**h r (cos phi, sin phi). Each pair takes
    one cosine, of phi / 2, as cos phi = 2 cos**2(phi/2) - 1 (the math
    library's cosine is about twice as fast on [-pi/4, pi/4] as on
    [-pi/2, pi/2]), and sin phi = sqrt(1 - cos**2 phi) signed as phi.

    Two arrays of 2 ceil(n/2) 8-byte words are held, the hashes and the
    result, which first serves as the hashing's scratch, and each step
    writes over one of them."""
    m = (n + 1) // 2
    out = np.empty(2 * m)
    bits = _pair_bits(seed, out.view(np.uint64))
    bits >>= np.uint64(11)
    k1, k2 = bits[:m], bits[m:]
    np.subtract(np.uint64(1 << 53), k1, out=k1)  # 2**53 (1 - u1), in [1, 2**53]
    out[:m] = k1.view(np.int64)
    sign = k1  # the sign bit of (-1)**h, from bit 52 of k2
    np.right_shift(k2, 52, out=sign)
    sign <<= np.uint64(63)
    # bit 51 flipped, the low 52 bits of k2 read as a signed 52-bit integer
    # are 2**52 phi / pi; shifted to the top of an int64 they cast exactly
    k2 ^= np.uint64(1 << 51)
    k2 <<= np.uint64(12)
    out[m:] = k2.view(np.int64)
    r, half = out[:m], out[m:]
    r *= 2.0**-53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    r *= scale  # after the root, so that scale**2 cannot overflow
    np.bitwise_xor(r.view(np.uint64), sign, out=r.view(np.uint64))
    half *= math.pi * 2.0**-65  # phi / 2, in [-pi/4, pi/4)
    work = bits.view(np.float64)
    sin, cos = work[:m], work[m:]
    np.cos(half, out=cos)
    cos *= cos
    cos *= 2.0
    cos -= 1.0
    np.multiply(cos, cos, out=sin)
    np.subtract(1.0, sin, out=sin)
    np.sqrt(sin, out=sin)
    np.copysign(sin, half, out=sin)
    cos *= r
    sin *= r
    out[0::2] = cos
    out[1::2] = sin
    return out[:n]


def add_noise(image: SyntheticImage, sigma_frac: float, seed: int = 0) -> SyntheticImage:
    """Additive Gaussian noise with sigma = sigma_frac * max(image), clipped
    at zero.

    Pixel i in C order gets deviate i of ``seed``'s standard normal stream
    (:func:`_normal_deviates`, SplitMix64 and Box-Muller), so a pixel's noise
    depends only on the seed, 0 <= seed < 2**64, and its flat index. The
    integer stage is exact, the same on every numpy; the deviates then take
    one log, cosine and two square roots each. The draw holds two
    image-sized arrays at most, one of which becomes the noisy image."""
    if sigma_frac < 0:
        raise ValueError("noise fraction must be non-negative")
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"noise seed must be in [0, 2**64), got {seed!r}")
    if sigma_frac == 0:
        return image
    sigma = sigma_frac * float(image.values.max())
    noisy = _normal_deviates(seed, image.values.size, sigma).reshape(image.values.shape)
    noisy += image.values
    np.maximum(noisy, 0.0, out=noisy)
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


def extract_diameter_profile(image: SyntheticImage, angle: float, center):
    """Sample the image along a line through ``center`` at ``angle``.

    Returns (signed distance from the centre [m], value) arrays with one
    sample per pixel pitch, clipped to the image interior.
    """
    c0, c1 = center
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
    image: SyntheticImage, center, n_diameters: int = 8
) -> RadiusMeasurement:
    """Ring radius by the diameter method, about the ring's centre ``center``
    (c0, c1) in image coordinates: the trap axis, which gravity does not
    move, unlike the cloud's centroid, which it pulls below the ring.

    For each of ``n_diameters`` equally spaced angles in [0, pi), the profile
    through ``center`` is fit with a sum of two Gaussians and the
    half peak-to-peak centre separation gives one radius. A fit counts if it
    converged with its centres apart, both lobes of positive amplitude, both
    centres inside the sampled profile, the lobes resolved, their centre
    separation above the sum of their widths (which keeps each width shorter
    than the profile), and each lobe at least one sample (pixel) wide; other
    diameters are excluded with their reasons. With
    fewer than two diameters left the image shows no ring, and a
    :class:`MeasurementError` is raised. ``radius`` is the mean of the
    per-diameter radii and ``uncertainty`` their standard deviation.
    """
    if n_diameters < 2:
        raise ValueError("need at least 2 diameters")
    fits = []
    excluded = []
    for k in range(n_diameters):
        angle = k * math.pi / n_diameters
        t, prof = extract_diameter_profile(image, angle, center)
        try:
            fit = fit_two_gaussians(t, prof)
        except FitError as err:
            excluded.append((angle, str(err)))
            continue
        if fit.degenerate:
            excluded.append((angle, "degenerate: centers collapsed"))
        elif not fit.converged:
            excluded.append((angle, "fit did not converge"))
        elif not all(a > 0 for a in fit.params[::3]):
            excluded.append((angle, "a lobe has no positive amplitude"))
        elif not all(t[0] <= c <= t[-1] for c in fit.centers):
            excluded.append((angle, "a center lies outside the profile"))
        elif not fit.separation > fit.params[2] + fit.params[5]:
            excluded.append((angle, "lobes not resolved: widths sum to the separation or more"))
        elif min(fit.params[2], fit.params[5]) < image.pixel_size:
            excluded.append((angle, "a lobe is narrower than one sample"))
        else:
            rms = math.sqrt(fit.cost / t.size) / max(float(prof.max()), 1e-300)
            fits.append(DiameterFit(angle=angle, radius=fit.separation / 2.0, residual=rms))
    if len(fits) < 2:
        raise MeasurementError(
            f"no ring: {len(fits)} of {n_diameters} diameter fits accepted; "
            + "; ".join(r for _, r in excluded)
        )
    radii = np.array([f.radius for f in fits])
    return RadiusMeasurement(
        radius=float(radii.mean()),
        uncertainty=float(radii.std()),
        per_diameter=tuple(fits),
        excluded=tuple(excluded),
    )
