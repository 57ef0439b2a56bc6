"""Two-Gaussian profile fitting by damped Gauss-Newton least squares.

Absorption-image diameters through an annular cloud show two lobes; half the
fitted peak-to-peak centre separation is the ring radius along that diameter.
The solver is deterministic: fixed initialisation, no randomness anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError

_MIN_SAMPLES = 12
_MAX_ITER = 200
_COST_RTOL = 1e-10


def two_gaussian(x, params):
    """Sum of two Gaussians; ``params`` = (a1, c1, w1, a2, c2, w2)."""
    a1, c1, w1, a2, c2, w2 = params
    u1 = (x - c1) / w1
    u2 = (x - c2) / w2
    return a1 * np.exp(-0.5 * u1 * u1) + a2 * np.exp(-0.5 * u2 * u2)


def _jacobian(x, params):
    a1, c1, w1, a2, c2, w2 = params
    u1 = (x - c1) / w1
    u2 = (x - c2) / w2
    g1 = np.exp(-0.5 * u1 * u1)
    g2 = np.exp(-0.5 * u2 * u2)
    jac = np.empty((x.size, 6))
    jac[:, 0] = g1
    jac[:, 1] = a1 * g1 * u1 / w1
    jac[:, 2] = a1 * g1 * u1 * u1 / w1
    jac[:, 3] = g2
    jac[:, 4] = a2 * g2 * u2 / w2
    jac[:, 5] = a2 * g2 * u2 * u2 / w2
    return jac


@dataclass(frozen=True)
class TwoGaussianFit:
    params: tuple  # (a1, c1, w1, a2, c2, w2), centers sorted ascending
    cost: float  # sum of squared residuals at the solution
    converged: bool
    degenerate: bool  # centers collapsed within one sample spacing
    iterations: int

    @property
    def centers(self) -> tuple:
        return (self.params[1], self.params[4])

    @property
    def separation(self) -> float:
        return abs(self.params[4] - self.params[1])


def _initial_guess(x, y):
    """Centers at the two highest local maxima on either side of the centroid,
    widths a quarter of their separation, amplitudes the values there."""
    total = float(np.sum(y))
    centroid = float(np.sum(x * y) / total) if total > 0 else float(np.mean(x))
    interior = np.arange(1, x.size - 1)
    is_max = (y[interior] >= y[interior - 1]) & (y[interior] >= y[interior + 1])
    peaks = interior[is_max]
    left = peaks[x[peaks] < centroid]
    right = peaks[x[peaks] >= centroid]
    if left.size == 0 or right.size == 0:
        # fall back to the extreme-side maxima of the raw samples
        half = x.size // 2
        i1 = int(np.argmax(y[:half]))
        i2 = half + int(np.argmax(y[half:]))
    else:
        i1 = int(left[np.argmax(y[left])])
        i2 = int(right[np.argmax(y[right])])
    c1, c2 = float(x[i1]), float(x[i2])
    sep = max(abs(c2 - c1), float(x[1] - x[0]))
    w = sep / 4.0
    return np.array([max(y[i1], 1e-300), c1, w, max(y[i2], 1e-300), c2, w])


def fit_two_gaussians(positions, values) -> TwoGaussianFit:
    """Least-squares fit of two Gaussians to a 1D profile.

    Requires at least 12 samples and a non-constant profile. Iterates a
    Levenberg-damped Gauss-Newton update until the relative cost decrease
    falls below 1e-10 or 200 iterations. Singular normal equations raise
    :class:`FitError` at once: the damped matrix J'J + lam diag(J'J), with
    lam >= 1e-12, is positive definite while every diagonal entry of J'J is
    positive. An entry is zero where a lobe underflows on every sample, and
    damping, which scales the diagonal, keeps it zero for every lam. A step
    to a non-finite parameter or cost fails like one that raises the cost. A
    fit whose centres collapse within one sample spacing is flagged
    ``degenerate``.
    """
    x = np.asarray(positions, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("positions and values must be equal-length 1D arrays")
    if x.size < _MIN_SAMPLES:
        raise FitError(f"need at least {_MIN_SAMPLES} samples, got {x.size}")
    if np.ptp(y) == 0.0:
        raise FitError("profile is constant; nothing to fit")

    spacing = float(np.min(np.diff(np.sort(x))))
    p = _initial_guess(x, y)
    resid = two_gaussian(x, p) - y
    cost = float(resid @ resid)
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        jac = _jacobian(x, p)
        jtj = jac.T @ jac
        jtr = jac.T @ resid
        try:
            step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -jtr)
        except np.linalg.LinAlgError:
            raise FitError(
                "normal equations singular: a parameter has no effect on the profile"
            ) from None

        p_new = p + step
        p_new[2] = max(abs(p_new[2]), spacing / 10.0)  # widths stay positive
        p_new[5] = max(abs(p_new[5]), spacing / 10.0)
        cost_new = np.inf  # an overflowing or nan cost fails too
        if np.all(np.isfinite(p_new)):
            with np.errstate(over="ignore", invalid="ignore"):
                resid_new = two_gaussian(x, p_new) - y
                cost_new = float(resid_new @ resid_new)
        if cost_new < cost:
            rel_drop = (cost - cost_new) / max(cost, 1e-300)
            p, resid, cost = p_new, resid_new, cost_new
            lam = max(lam / 10.0, 1e-12)
            if rel_drop < _COST_RTOL:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                converged = cost == 0.0
                break

    if p[4] < p[1]:  # report centers in ascending order
        p = np.array([p[3], p[4], p[5], p[0], p[1], p[2]])
    degenerate = abs(p[4] - p[1]) < spacing
    return TwoGaussianFit(
        params=tuple(float(v) for v in p),
        cost=cost,
        converged=converged,
        degenerate=degenerate,
        iterations=it,
    )
