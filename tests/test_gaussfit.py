import numpy as np
import pytest

from ringtrap import SyntheticImage, fit_two_gaussians, measure_ring_radius, two_gaussian
from ringtrap.errors import FitError


def profile(params, n=101, span=250.0):
    x = np.linspace(-span, span, n)
    return x, two_gaussian(x, params)


def test_noiseless_recovery_exact():
    truth = (1.0, -100.0, 12.0, 0.8, 95.0, 15.0)
    x, y = profile(truth)
    fit = fit_two_gaussians(x, y)
    assert fit.converged and not fit.degenerate
    np.testing.assert_allclose(fit.params, truth, rtol=1e-6)


def test_separation_and_centers():
    truth = (0.5, -80.0, 10.0, 0.5, 80.0, 10.0)
    x, y = profile(truth)
    fit = fit_two_gaussians(x, y)
    assert fit.separation == pytest.approx(160.0, rel=1e-8)
    assert fit.centers[0] < fit.centers[1]  # ascending order


def test_noisy_centers_monte_carlo():
    # oracle: over 100 seeds with 1% additive uniform noise, the 95th
    # percentile center error stays below half a lobe width
    truth = (1.0, -100.0, 12.0, 1.0, 100.0, 12.0)
    x, y0 = profile(truth, n=201)
    errs = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        y = y0 + 0.01 * rng.uniform(-1, 1, y0.size)
        fit = fit_two_gaussians(x, y)
        errs.append(max(abs(fit.params[1] - truth[1]), abs(fit.params[4] - truth[4])))
    assert np.percentile(errs, 95) < 0.5 * truth[2]


def test_single_gaussian_flagged_degenerate():
    x = np.linspace(-100, 100, 81)
    y = np.exp(-0.5 * (x / 20.0) ** 2)
    fit = fit_two_gaussians(x, y)
    assert fit.degenerate


def test_determinism_bitwise():
    truth = (1.0, -60.0, 9.0, 0.7, 70.0, 11.0)
    x, y0 = profile(truth, n=151)
    rng = np.random.default_rng(3)
    y = y0 + 0.02 * rng.uniform(-1, 1, y0.size)
    f1 = fit_two_gaussians(x, y)
    f2 = fit_two_gaussians(x, y)
    assert f1.params == f2.params
    assert f1.cost == f2.cost
    assert f1.iterations == f2.iterations


def test_too_few_samples_rejected():
    x = np.linspace(-10, 10, 11)
    with pytest.raises(FitError):
        fit_two_gaussians(x, np.abs(x))


def test_constant_profile_rejected():
    x = np.linspace(-10, 10, 40)
    with pytest.raises(FitError):
        fit_two_gaussians(x, np.ones_like(x))


def lone_lobe(t):
    """One lobe at t = -50 and a 1e-6 bump on the sample at t = +50, which
    the initial guess takes for the second lobe: a few steps send that lobe
    ~1e7 samples away, where it underflows on every sample and the squares
    of its three Jacobian columns, the normal equations' diagonal, are 0."""
    y = np.exp(-0.5 * ((t + 50.0) / 10.0) ** 2)
    y[t == 50.0] += 1e-6
    return y


def test_singular_normal_equations_fail_at_the_first_failed_solve(monkeypatch):
    # damping scales the diagonal, so it cannot lift a zero diagonal entry:
    # the first singular solve ends the fit, with no retry
    solve, failed = np.linalg.solve, []

    def spy(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            failed.append(a)
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    with pytest.raises(FitError, match="normal equations singular: a parameter has no effect"):
        fit_two_gaussians(np.arange(-100.0, 101.0), lone_lobe(np.arange(-100.0, 101.0)))
    assert len(failed) == 1
    assert not np.diag(failed[0])[3:].any()


def test_singular_diameter_is_excluded():
    # a ring image whose 0 degree diameter is the lone-lobe profile
    n, c = 201, 100.0
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    values = np.exp(-0.5 * ((np.hypot(ii - c, jj - c) - 50.0) / 10.0) ** 2)
    values[:, 100] = lone_lobe(np.arange(n) - c)
    meas = measure_ring_radius(SyntheticImage(pixel_size=1.0, values=values), (c, c), 4)
    assert meas.excluded[0][0] == 0.0
    assert meas.excluded[0][1].startswith("normal equations singular")
    assert 0.0 not in [f.angle for f in meas.per_diameter]
