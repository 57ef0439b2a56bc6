"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from ringtrap import (
    Geometry,
    add_noise,
    analyze_trap,
    azimuthal_profile,
    classify_geometry,
    criteria_report,
    dressed_potential,
    frequency_sweep,
    measure_ring_radius,
    potential_hessian,
    rabi_squared,
    resonance_radius,
    trap_frequencies,
)
from ringtrap.analysis import _field_direction, shell_minimum
from ringtrap.cli import EXIT_OK, main
from ringtrap.config import load_config
from ringtrap.constants import (
    G_ACCEL,
    GAUSS,
    GAUSS_PER_CM,
    HBAR,
    MHZ,
    MICROKELVIN,
    MU_B,
    RB87,
)
from ringtrap.grids import sample_grid
from ringtrap.image_io import (
    export_grid_binary,
    export_image_binary,
    import_grid_binary,
    import_image_binary,
)

from conftest import (
    B07,
    B02,
    PIXEL,
    grid_global_min,
    make_trap,
    potential_gradient,
    richardson_gradient,
    synth_image,
)

GRAD_100_GCM = 1.0  # T/m


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_1_ring_radius_theory_line():
    """Resonance radius linear in frequency at 142.9 um/MHz; numeric within 2%."""
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gradient=GRAD_100_GCM)
    t0 = time.monotonic()
    freqs_mhz = np.linspace(0.5, 3.0, 11)
    rows = frequency_sweep(cfg, 2 * np.pi * 1e6 * freqs_mhz)
    elapsed = time.monotonic() - t0

    radii_um = np.array([r.resonance_radius for r in rows]) * 1e6
    slope, intercept = np.polyfit(freqs_mhz, radii_um, 1)
    slope_expected = 2 * np.pi * 1e6 * HBAR / (RB87.g_F * MU_B * GRAD_100_GCM) * 1e6
    numeric_ok = all(
        abs(r.numeric_radius - r.resonance_radius) <= 0.02 * r.resonance_radius
        for r in rows
    )
    ok = (
        abs(slope - 142.9) <= 0.001 * 142.9
        and abs(slope - slope_expected) <= 1e-9 * slope_expected
        and numeric_ok
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        f"slope {slope:.4f} um/MHz (theory {slope_expected:.4f}), numeric "
        f"radii within 2%: {numeric_ok}, runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_2_fig2_regime_classification():
    """The three captioned parameter sets classify as their figure panels."""
    t0 = time.monotonic()
    got = {}
    for name, cfg, want in [
        ("Bx only", make_trap(b_x=B07), Geometry.DOUBLE_WELL),
        ("Bx=By circ", make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2), Geometry.SYMMETRIC_RING),
        ("Bx+Bz beta=0", make_trap(b_x=B07, b_z=B02, beta=0.0), Geometry.ASYMMETRIC_RING),
    ]:
        cls = classify_geometry(azimuthal_profile(cfg, n_phi=64))
        got[name] = (cls.geometry, want)
    elapsed = time.monotonic() - t0
    ok = all(g is w for g, w in got.values()) and elapsed < 30.0
    detail = ", ".join(f"{k}: {g.value}" for k, (g, w) in got.items())
    report(2, ok, f"{detail}; runtime {elapsed:.2f}s < 30s")


def test_criterion_3_quasi_2d_confinement():
    """omega_z/omega_rho > 1 at the ring minimum with a clean Hessian."""
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)
    res = analyze_trap(cfg).minimum
    # the Richardson extrapolant of the step-1e-7 m central difference: the
    # plain difference is biased by ~6e-29 N across the narrow dressed valley
    grad_norm = float(np.linalg.norm(richardson_gradient(res.position, cfg, 1e-7)))
    grad_bound = 1e-8 * RB87.mass * G_ACCEL
    freqs = trap_frequencies(cfg, res.position)
    eigs_ok = all(l >= 0 for l in freqs.eigenvalues)
    ratio = freqs.omega_z / freqs.omega_rho
    ok = ratio > 1.0 and eigs_ok and grad_norm < grad_bound
    report(
        3,
        ok,
        f"omega_z/omega_rho = {ratio:.2f} > 1, eigenvalues non-negative: "
        f"{eigs_ok}, |grad| = {grad_norm:.2e} < {grad_bound:.2e} J/m",
    )


def test_criterion_4_gravity_criteria():
    """kappa arithmetic and the coupling-dominance flag, either side of it."""
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gradient=GRAD_100_GCM)
    rep = criteria_report(cfg)
    kappa_expected = RB87.g_F * RB87.m_F * MU_B * GRAD_100_GCM / (RB87.mass * G_ACCEL)
    kappa_ok = abs(rep.kappa - 6.553) <= 1e-3 and rep.kappa == pytest.approx(
        kappa_expected, rel=1e-12
    )
    exact_ok = rep.coupling_dominated is (rep.omega_over_rabi < rep.kappa)

    # 0.476 G circular puts omega/Omega at ~9; kappa crosses it under B_q scaling
    b9 = 0.476e-4
    flips = []
    for gradient, want in [(1.3, False), (1.45, True)]:
        r = criteria_report(make_trap(b_x=b9, b_y=b9, alpha=-np.pi / 2, gradient=gradient))
        flips.append(
            r.coupling_dominated is want
            and r.coupling_dominated is (r.omega_over_rabi < r.kappa)
            and abs(r.omega_over_rabi - 9.006) < 2e-3
        )
    ok = kappa_ok and exact_ok and all(flips)
    report(
        4,
        ok,
        f"kappa = {rep.kappa:.4f} (= 6.553 +- 1e-3), omega/Omega = "
        f"{rep.omega_over_rabi:.3f}, flag exact: {exact_ok}, flip across "
        f"kappa boundary at omega/Omega ~ 9: {all(flips)}",
    )


def _torus_points(r0, n, seed):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.3 * r0, 1.7 * r0, n)
    phi = rng.uniform(-np.pi, np.pi, n)
    z = rng.uniform(-0.4 * r0, 0.4 * r0, n)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)


def test_criterion_5_symmetry_suite():
    """Reflection, uniformity and phase-reflection identities, 1e4 points each."""
    n = 10_000
    results = {}

    lin = make_trap(b_x=B07)
    pts = _torus_points(resonance_radius(lin), n, seed=101)
    v = dressed_potential(pts, lin)
    worst = 0.0
    for axis in range(3):
        m = pts.copy()
        m[:, axis] *= -1
        vm = dressed_potential(m, lin)
        scale = np.maximum(np.maximum(np.abs(v), np.abs(vm)), 1e-35)
        worst = max(worst, float(np.max(np.abs(v - vm) / scale)))
    results["linear reflections"] = (worst, 1e-12)

    circ = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2)
    r0 = resonance_radius(circ)
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(n // 360 + 1):
        rho = rng.uniform(0.3 * r0, 1.7 * r0)
        z = rng.uniform(-0.4 * r0, 0.4 * r0)
        phis = np.linspace(0, 2 * np.pi, 360, endpoint=False)
        ring = np.stack([rho * np.cos(phis), rho * np.sin(phis), np.full(360, z)], axis=-1)
        vr = dressed_potential(ring, circ)
        worst = max(worst, float((vr.max() - vr.min()) / np.abs(vr).max()))
    results["circular uniformity"] = (worst, 1e-9)

    worst = 0.0
    for beta in (0.3, 1.1, -2.0):
        cp = make_trap(b_x=B07, b_z=B02, beta=beta)
        cm = make_trap(b_x=B07, b_z=B02, beta=-beta)
        pts = _torus_points(resonance_radius(cp), n // 3 + 1, seed=int(beta * 1000) % 977)
        m = pts * np.array([1.0, -1.0, 1.0])
        v1, v2 = dressed_potential(pts, cp), dressed_potential(m, cm)
        scale = np.maximum(np.maximum(np.abs(v1), np.abs(v2)), 1e-35)
        worst = max(worst, float(np.max(np.abs(v1 - v2) / scale)))
    results["beta reflection"] = (worst, 1e-12)

    ok = all(w <= tol for w, tol in results.values())
    detail = ", ".join(f"{k}: {w:.2e} <= {tol:g}" for k, (w, tol) in results.items())
    report(5, ok, detail)


def test_criterion_6_oracle_equivalence():
    """Optimizer minimum matches a 161^3 brute-force grid, all three regimes."""
    details = []
    ok = True
    for name, cfg in [
        ("double-well", make_trap(b_x=B07, gravity=True)),
        ("ring", make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2, gravity=True)),
        ("asym-ring", make_trap(b_x=B07, b_z=B02, beta=0.0, gravity=True)),
    ]:
        r0 = resonance_radius(cfg)
        lo = np.array([-1.35 * r0, -1.35 * r0, -0.45 * r0])
        hi = np.array([1.35 * r0, 1.35 * r0, 0.45 * r0])
        v_grid, pos_grid, cell_var = grid_global_min(cfg, lo, hi)
        res = shell_minimum(cfg, _field_direction(pos_grid))
        gap = v_grid - res.value
        # the search spans all space: its minimum must lie inside the grid
        inside = np.all(np.abs(res.position) <= hi)
        good = res.value <= v_grid + 1e-45 and gap <= cell_var and inside
        ok &= good
        details.append(
            f"{name}: grid-optimizer gap {gap:.2e} <= cell var {cell_var:.2e}, "
            f"z / r0 = {res.position[2] / r0:.3f}"
        )
    report(6, ok, "; ".join(details))


def test_criterion_7_imaging_round_trip():
    """Synthetic image at 20 uK reproduces the ring radius, noise included."""
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2)
    r0 = resonance_radius(cfg)
    img = synth_image(cfg, temperature=20e-6, pixel=PIXEL)
    clean = measure_ring_radius(img, (0.0, 0.0), n_diameters=8)
    clean_err = abs(clean.radius - r0)

    errs = []
    for seed in range(100):
        noisy = add_noise(img, 0.01, seed=seed)
        meas = measure_ring_radius(noisy, (0.0, 0.0), n_diameters=6)
        errs.append(abs(meas.radius - r0))
    p95 = float(np.percentile(errs, 95))
    ok = clean_err <= 5e-6 and p95 <= 10e-6
    report(
        7,
        ok,
        f"clean radius {clean.radius * 1e6:.2f} um vs {r0 * 1e6:.2f} um "
        f"(err {clean_err * 1e6:.2f} um <= 5), noisy 95th pct err "
        f"{p95 * 1e6:.2f} um <= 10 over 100 seeds",
    )


def test_criterion_8_finite_difference_health():
    """Richardson ratios ~4 at 100 random smooth points; coupling never negative."""
    cfg = make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2)
    r0 = resonance_radius(cfg)
    rng = np.random.default_rng(12345)
    h = 1e-6
    ratios_g, ratios_h = [], []
    for _ in range(100):
        rho = rng.uniform(0.6 * r0, 1.4 * r0)
        phi = rng.uniform(-np.pi, np.pi)
        z = rng.uniform(-0.3 * r0, 0.3 * r0)
        r = np.array([rho * np.cos(phi), rho * np.sin(phi), z])
        g1 = potential_gradient(r, cfg, h)
        g2 = potential_gradient(r, cfg, h / 2)
        g4 = potential_gradient(r, cfg, h / 4)
        ref = (4.0 * g4 - g2) / 3.0
        ratios_g.append(np.linalg.norm(g1 - ref) / np.linalg.norm(g2 - ref))
        h1 = potential_hessian(r, cfg, h)
        h2 = potential_hessian(r, cfg, h / 2)
        h4 = potential_hessian(r, cfg, h / 4)
        refh = (4.0 * h4 - h2) / 3.0
        ratios_h.append(
            np.linalg.norm(h1 - refh, "fro") / np.linalg.norm(h2 - refh, "fro")
        )
    ratios = np.array(ratios_g + ratios_h)
    ratio_ok = bool(np.all((ratios >= 3.2) & (ratios <= 4.8)))

    # torus sample plus points straddling the coupling-zero manifold of the
    # axial-rf config, where the coupling nearly vanishes
    pts = _torus_points(r0, 200_000, seed=777)
    raw = rabi_squared(pts, cfg)
    cfg_c = make_trap(b_x=B07, b_z=B02, beta=0.0)
    x = rng.uniform(0.5 * r0, 1.3 * r0, 200_000) * rng.choice([-1, 1], 200_000)
    near_zero = np.stack(
        [x, rng.normal(0, 1e-13, x.size), -x * B02 / (2 * B07) + rng.normal(0, 1e-13, x.size)],
        axis=-1,
    )
    raw_c = rabi_squared(near_zero, cfg_c)
    neg = np.concatenate([raw[raw < 0], raw_c[raw_c < 0]])
    sign_ok = neg.size == 0
    ok = ratio_ok and sign_ok
    report(
        8,
        ok,
        f"gradient ratios [{min(ratios_g):.2f}, {max(ratios_g):.2f}], hessian "
        f"ratios [{min(ratios_h):.2f}, {max(ratios_h):.2f}] within 4 +- 20%; "
        f"negative couplings {neg.size} == 0: {sign_ok}",
    )


def test_criterion_9_determinism_and_format_fidelity(tmp_path):
    """Byte-identical reruns, bit-exact image and grid files, unit round trips."""
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[rf]\nbx_g = 0.7\nby_g = 0.7\nalpha_deg = -90\nfreq_mhz = 1.5\n"
        "[gravity]\nenabled = false\n"
        "[analysis]\ngrid_nx = 61\ngrid_ny = 61\n"
        "grid_x_min_mm = -0.3\ngrid_x_max_mm = 0.3\n"
        "grid_y_min_mm = -0.3\ngrid_y_max_mm = 0.3\n"
        "[imaging]\nxy_halfwidth_factor = 1.5\nnz = 17\n"
    )
    produced = {}
    for tag in ("a", "b"):
        for cmd in ("potential", "analyze", "sweep", "image"):
            out = tmp_path / f"{cmd}_{tag}"
            assert main([cmd, "--config", str(ini), "--out", str(out)]) == EXIT_OK
            for f in sorted(out.iterdir()):
                produced.setdefault((cmd, f.name), []).append(f.read_bytes())
    rerun_ok = all(a == b for a, b in produced.values())

    img = synth_image(make_trap(b_x=B07, b_y=B07, alpha=-np.pi / 2), pixel=5e-6)
    p1, h1 = tmp_path / "x.u16", tmp_path / "x.hdr"
    export_image_binary(img, p1, h1)
    back = import_image_binary(p1, h1)
    p2, h2 = tmp_path / "y.u16", tmp_path / "y.hdr"
    export_image_binary(back, p2, h2)
    image_ok = p1.read_bytes() == p2.read_bytes() and h1.read_text() == h2.read_text()

    # the potential run's grid reloads bit for bit and re-exports byte for byte
    rc = load_config(ini)
    sampled = sample_grid(rc.trap, rc.grid_region, rc.grid_dims)
    g1, gh1 = tmp_path / "potential_a" / "grid.f64", tmp_path / "potential_a" / "grid.hdr"
    grid = import_grid_binary(g1, gh1)
    g2, gh2 = tmp_path / "y.f64", tmp_path / "y.hdr"
    export_grid_binary(grid, g2, gh2)
    grid_ok = (
        grid.values.tobytes() == sampled.values.tobytes()
        and all(np.array_equal(a, b) for a, b in zip(grid.axes(), sampled.axes()))
        and g1.read_bytes() == g2.read_bytes()
        and gh1.read_bytes() == gh2.read_bytes()
    )

    rng = np.random.default_rng(5)
    # a lab value times its unit's factor is SI and the SI value divided by
    # it is the lab value again; math.radians multiplies by pi / 180
    factors = [GAUSS, GAUSS_PER_CM, MHZ, math.pi / 180, MICROKELVIN]
    worst = 0.0
    for factor in factors:
        for v in rng.uniform(1e-6, 1e6, 200):
            back_v = v * factor / factor
            worst = max(worst, abs(back_v - v) / v)
    units_ok = worst <= 1e-12

    ok = rerun_ok and image_ok and grid_ok and units_ok
    report(
        9,
        ok,
        f"reruns byte-identical over {len(produced)} files: {rerun_ok}; image "
        f"export/import bit-exact: {image_ok}; grid reload bit-exact: {grid_ok}; "
        f"unit round-trip worst {worst:.2e} <= 1e-12",
    )
