"""The reference pipelines raise no floating-point warning.

``analyze_trap`` and ``frequency_sweep`` run on the four reference configs,
in the z = 0 plane and with a z band, under ``np.errstate(all="raise")``:
any division by zero, overflow, underflow or invalid operation (such as the
0/0 of a zero-width z window) fails the test.
"""

import numpy as np
import pytest

from ringtrap import analyze_trap, frequency_sweep

from conftest import reference_configs


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
    assert all(row.error is None for row in rows)
