import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ringtrap.analysis
import ringtrap.cli
import ringtrap.config
import ringtrap.grids
import ringtrap.imaging
from ringtrap import TrapConfig, rabi_frequency, resonance_radius, sample_grid
from ringtrap.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from ringtrap.config import load_config
from ringtrap.constants import MICROKELVIN
from ringtrap.grids import fill_potential, node_blocks
from ringtrap.image_io import import_grid_binary
from ringtrap.imaging import measure_ring_radius

from conftest import node_positions

BASE = """
[rf]
bx_g = 0.7
by_g = 0.7
alpha_deg = -90
freq_mhz = 1.5

[gravity]
enabled = false

[analysis]
grid_nx = 81
grid_ny = 81
grid_x_min_mm = -0.3
grid_x_max_mm = 0.3
grid_y_min_mm = -0.3
grid_y_max_mm = 0.3
"""


#: the default writes only the binary bulk files; tests that read CSV ask for it
CSV_AND_BIN = "output.formats=csv,bin"


@pytest.fixture
def ini(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(BASE)
    return p


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        if ":" in line and not line.startswith(" "):
            k, _, v = line.partition(":")
            out[k.strip()] = v.strip()
    return out


def test_potential_outputs(ini, tmp_path):
    out = tmp_path / "pot"
    argv = ["potential", "--config", str(ini), "--out", str(out), "--set", CSV_AND_BIN]
    assert main(argv) == EXIT_OK
    grid = (out / "grid.csv").read_text().splitlines()
    assert grid[0] == "x_m,y_m,z_m,V_J,V_uK"
    assert len(grid) == 1 + 81 * 81
    summary = json.loads((out / "summary.json").read_text())
    r_min = math.hypot(summary["min_position_m"][0], summary["min_position_m"][1])
    assert r_min == pytest.approx(summary["resonance_radius_m"], abs=2 * summary["spacing_m"][0])
    assert (out / "resolved.ini").exists()


def test_potential_deterministic_reruns(ini, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["potential", "--config", str(ini), "--out", str(out1), "--set", CSV_AND_BIN])
    main(["potential", "--config", str(ini), "--out", str(out2), "--set", CSV_AND_BIN])
    for name in ("grid.csv", "summary.json", "resolved.ini"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def per_row_grid_csv(grid):
    """grid.csv as the potential command wrote it before the per-axis writer:
    all node positions, and five reprs per row."""
    pos = node_positions(grid).reshape(-1, 3)
    vals = grid.values.reshape(-1)
    lines = ["x_m,y_m,z_m,V_J,V_uK"]
    for (x, y, z), v in zip(pos.tolist(), vals.tolist()):
        lines.append(f"{x!r},{y!r},{z!r},{v!r},{v / MICROKELVIN!r}")
    return "\n".join(lines) + "\n"


# blocks of z-runs, of whole z-rows and of several x-slabs on a 5 x 4 x 3 grid
@pytest.mark.parametrize("chunk, n_blocks", [(2, 40), (7, 10), (40, 2)])
def test_potential_csv_matches_per_row_writer(ini, tmp_path, monkeypatch, chunk, n_blocks):
    monkeypatch.setattr(ringtrap.grids, "_CHUNK", chunk)
    overrides = [
        "gravity.enabled=true",
        "analysis.grid_nx=5", "analysis.grid_ny=4", "analysis.grid_nz=3",
        "analysis.grid_z_min_mm=-0.05", "analysis.grid_z_max_mm=0.05",
        CSV_AND_BIN,
    ]
    argv = ["potential", "--config", str(ini), "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == EXIT_OK
    rc = load_config(ini, overrides=overrides)
    assert len(list(node_blocks(rc.grid_dims))) == n_blocks
    grid = sample_grid(rc.trap, rc.grid_region, rc.grid_dims)
    assert (tmp_path / "grid.csv").read_bytes() == per_row_grid_csv(grid).encode()


def test_default_outputs_are_binary(ini, tmp_path):
    out = tmp_path / "pot"
    assert main(["potential", "--config", str(ini), "--out", str(out)]) == EXIT_OK
    assert sorted(f.name for f in out.iterdir()) == [
        "grid.f64", "grid.hdr", "resolved.ini", "summary.json",
    ]
    rc = load_config(ini)
    grid = sample_grid(rc.trap, rc.grid_region, rc.grid_dims)
    back = import_grid_binary(out / "grid.f64", out / "grid.hdr")
    assert back.values.tobytes() == grid.values.tobytes()
    assert (back.origin, back.spacing, back.dims) == (grid.origin, grid.spacing, grid.dims)
    out = tmp_path / "im"
    argv = ["image", "--config", str(ini), "--out", str(out),
            "--set", "imaging.xy_halfwidth_factor=1.2"]
    assert main(argv) == EXIT_OK
    assert sorted(f.name for f in out.iterdir()) == [
        "image.hdr", "image.u16", "radius.txt", "resolved.ini",
    ]


@pytest.mark.parametrize("command", ["potential", "analyze", "sweep", "image"])
@pytest.mark.parametrize("formats", ["xml", "csv,xml", ""])
def test_bad_output_format_fails_before_any_computation(ini, tmp_path, command, formats):
    out = tmp_path / "f"
    argv = [command, "--config", str(ini), "--out", str(out),
            "--set", f"output.formats={formats}"]
    assert main(argv) == EXIT_CONFIG
    assert not out.exists()


def test_analyze_report(ini, tmp_path):
    out = tmp_path / "an"
    assert main(["analyze", "--config", str(ini), "--out", str(out)]) == EXIT_OK
    rep = read_report(out / "analysis.txt")
    assert rep["geometry"] == "symmetric-ring"
    assert float(rep["ring_radius_um"]) == pytest.approx(214.343, abs=0.01)
    assert float(rep["kappa"]) == pytest.approx(6.553, abs=1e-3)
    assert rep["coupling_dominated"] == "true"


def test_potential_zero_amplitude_min_on_shell(ini, tmp_path):
    out = tmp_path / "bare"
    code = main(
        ["potential", "--config", str(ini), "--out", str(out),
         "--set", "rf.bx_g=0", "--set", "rf.by_g=0"]
    )
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    # bare Zeeman potential m_F*hbar*|delta|: the node nearest the shell bounds
    # the grid minimum by (slope * half spacing)
    slope = 2 * 1.054571817e-34 * 0.5 * 9.2740100783e-24 * 1.0 / 1.054571817e-34
    assert 0.0 <= summary["min_J"] <= slope * summary["spacing_m"][0] / 2
    r_min = math.hypot(summary["min_position_m"][0], summary["min_position_m"][1])
    assert r_min == pytest.approx(summary["resonance_radius_m"], abs=2 * summary["spacing_m"][0])


def test_analyze_gravity_negligible_flag(ini, tmp_path):
    out = tmp_path / "gn"
    main(["analyze", "--config", str(ini), "--out", str(out)])
    rep = read_report(out / "analysis.txt")
    assert rep["gravity_negligible"] == "true"  # kappa = 6.553 > threshold 5


def test_analyze_reports_refined_minimum_only_when_stationary_inside_box(ini, tmp_path):
    out, ring = tmp_path / "grav", tmp_path / "ring"
    argv = ["analyze", "--config", str(ini), "--out"]
    assert main(argv + [str(out), "--set", "gravity.enabled=true"]) == EXIT_OK
    text = (out / "analysis.txt").read_text().splitlines()
    rep = read_report(out / "analysis.txt")
    listed = text[text.index("minima: azimuth_deg,x_um,y_um,z_um,V_uK") + 1]
    listed = np.array([float(c) for c in listed.split(",")[1:4]])
    refined = np.array([float(c) for c in rep["refined_minimum_um"].split(",")])
    # the gravity ring's 3D minimum leaves the ring plane toward the pole
    assert refined[2] > 50.0
    assert float(rep["refined_offset_um"]) == pytest.approx(
        np.linalg.norm(refined - listed), rel=1e-12)
    assert rep["omega_z_Hz"] != "unavailable"
    # the circular ring's refinement ends in the coupling hole at the pole,
    # a cusp: no line
    assert main(argv + [str(ring)]) == EXIT_OK
    assert "refined_" not in (ring / "analysis.txt").read_text()


def test_analyze_double_well_via_set_override(ini, tmp_path):
    out = tmp_path / "dw"
    code = main(
        ["analyze", "--config", str(ini), "--out", str(out), "--set", "rf.by_g=0"]
    )
    assert code == EXIT_OK
    rep = read_report(out / "analysis.txt")
    assert rep["geometry"] == "double-well"
    assert rep["n_minima"] == "2"


def test_sweep_csv(ini, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(ini), "--out", str(out)]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "freq_MHz,r_resonance_um,r_numeric_um,barrier_uK,geometry,error"
    assert len(lines) == 12  # header + 11 default frequencies
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[1]) == pytest.approx(71.448, abs=1e-3)
    assert first[4] == "symmetric-ring"


def test_sweep_single_point_matches_analyze(ini, tmp_path):
    out = tmp_path / "sw1"
    main(
        ["sweep", "--config", str(ini), "--out", str(out),
         "--set", "sweep.freq_mhz_list=1.5"]
    )
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    out2 = tmp_path / "an1"
    main(["analyze", "--config", str(ini), "--out", str(out2)])
    rep = read_report(out2 / "analysis.txt")
    assert float(row[2]) == pytest.approx(float(rep["ring_radius_um"]), rel=1e-12)
    assert row[4] == rep["geometry"]


def test_sweep_echoes_configured_frequency(ini, tmp_path):
    # 1.25 MHz does not survive a MHz -> rad/s -> MHz round trip exactly
    out = tmp_path / "swf"
    code = main(
        ["sweep", "--config", str(ini), "--out", str(out),
         "--set", "sweep.freq_mhz_list=1.25,1.5"]
    )
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1.25", "1.5"]


def test_list_sweep_echo_reruns(ini, tmp_path):
    # the echo of a list sweep must not bring back the range keys, which
    # would conflict with the list on reload
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["sweep", "--config", str(ini), "--out", str(first),
            "--set", "sweep.freq_mhz_list=1.0,1.25,1.5"]
    assert main(argv) == EXIT_OK
    echo = first / "resolved.ini"
    assert main(["sweep", "--config", str(echo), "--out", str(second)]) == EXIT_OK
    assert (second / "sweep.csv").read_bytes() == (first / "sweep.csv").read_bytes()
    assert (second / "resolved.ini").read_bytes() == echo.read_bytes()
    assert len((first / "sweep.csv").read_text().splitlines()) == 4


def test_one_frequency_range_sweep_echo_reruns(ini, tmp_path):
    # a range of count 1 is the one frequency freq_mhz_start; the stop is unused
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["sweep", "--config", str(ini), "--out", str(first),
            "--set", "sweep.freq_mhz_start=1.25", "--set", "sweep.freq_mhz_stop=3.0",
            "--set", "sweep.freq_mhz_count=1"]
    assert main(argv) == EXIT_OK
    lines = (first / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[0] == "1.25"
    echo = first / "resolved.ini"
    assert load_config(echo).sweep_freqs_mhz == (1.25,)
    assert main(["sweep", "--config", str(echo), "--out", str(second)]) == EXIT_OK
    assert (second / "sweep.csv").read_bytes() == (first / "sweep.csv").read_bytes()
    assert (second / "resolved.ini").read_bytes() == echo.read_bytes()


def test_sweep_amplitude_table_center_trap(ini, tmp_path):
    table = tmp_path / "amps.csv"
    table.write_text("freq_MHz,bx_G,by_G,bz_G\n1.0,0.7,0.7,0\n3.0,0,0,0\n")
    out = tmp_path / "swt"
    code = main(
        ["sweep", "--config", str(ini), "--out", str(out),
         "--set", "sweep.freq_mhz_list=1.0,3.0",
         "--set", f"sweep.amplitude_table={table}"]
    )
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].split(",")[4] == "symmetric-ring"
    assert lines[2].split(",")[4] == "center-trap"


@pytest.mark.parametrize("bad", ["-0.7", "nan", "inf"])
def test_invalid_amplitude_table_entry_rejected_at_load(ini, tmp_path, bad):
    table = tmp_path / "amps.csv"
    table.write_text(f"freq_MHz,bx_G,by_G,bz_G\n1.0,0.7,0.7,0\n3.0,{bad},0,0\n")
    out = tmp_path / "swn"
    code = main(
        ["sweep", "--config", str(ini), "--out", str(out),
         "--set", "sweep.freq_mhz_list=1.0,3.0",
         "--set", f"sweep.amplitude_table={table}"]
    )
    assert code == EXIT_CONFIG
    assert not (out / "sweep.csv").exists()
    assert not (out / "resolved.ini").exists()


def test_amplitude_table_frequency_mismatch_is_a_config_error(ini, tmp_path):
    table = tmp_path / "amps.csv"
    table.write_text("freq_MHz,bx_G,by_G,bz_G\n1.0,0.7,0.7,0\n2.0,0.7,0.7,0\n")
    out = tmp_path / "swm"
    code = main(
        ["sweep", "--config", str(ini), "--out", str(out),
         "--set", "sweep.freq_mhz_list=1.0,3.0",
         "--set", f"sweep.amplitude_table={table}"]
    )
    assert code == EXIT_CONFIG
    assert not (out / "sweep.csv").exists()


def test_image_outputs_and_measurement(ini, tmp_path):
    out = tmp_path / "im"
    argv = ["image", "--config", str(ini), "--out", str(out), "--set", CSV_AND_BIN]
    assert main(argv) == EXIT_OK
    for name in ("image.csv", "image.u16", "image.hdr", "radius.txt", "resolved.ini"):
        assert (out / name).exists()
    rep = read_report(out / "radius.txt")
    assert float(rep["radius_um"]) == pytest.approx(214.343, abs=5.0)
    assert rep["n_diameters_used"] == "8"


def test_image_frees_the_density_before_the_fits(ini, tmp_path, monkeypatch):
    # the one pass's block of density weights and its kernel workspace are
    # most of an image run's memory, and only the projection needs them
    refs = []

    def fill(cfg, axes, out, work, planes):
        arrays = (out, *work)
        refs.extend(weakref.ref(a if a.base is None else a.base) for a in arrays)
        return fill_potential(cfg, axes, out, work, planes)

    def measure(image, center, **kwargs):
        assert refs and all(ref() is None for ref in refs)
        return measure_ring_radius(image, center, **kwargs)

    monkeypatch.setattr(ringtrap.imaging, "fill_potential", fill)
    monkeypatch.setattr(ringtrap.imaging, "measure_ring_radius", measure)
    argv = ["image", "--config", str(ini), "--out", str(tmp_path / "im"),
            "--set", "imaging.xy_halfwidth_factor=1.2"]
    assert main(argv) == EXIT_OK


NO_RING = """
[quadrupole]
gradient_g_per_cm = 34.47

[rf]
bx_g = 0.1
by_g = 0
bz_g = 0
freq_mhz = 1.6122687

[gravity]
enabled = true

[imaging]
temperature_uk = 0.3
"""


#: a cold spot on coarse pixels (r0 = 978 um, 65.1 um pixels, 5 z nodes):
#: its 22.5 and 157.5 degree fits found lobes 0.126 and 0.751 pixels wide
NARROW_LOBES = [
    "quadrupole.gradient_g_per_cm=35.2", "rf.bx_g=0.98", "rf.freq_mhz=2.41",
    "imaging.temperature_uk=0.32", "imaging.pixel_um=65.1", "imaging.nz=5",
]


def test_cloud_without_a_ring_exits_3(tmp_path, capsys):
    # gravity holds the atoms in one spot at the bottom of the shell. At
    # 0.3 uK the two-Gaussian fits found lobes far outside their profiles
    # (radius 6.3e+168 um); at 1 and 3 uK they found overlapping lobes
    # (17 +- 19 and 28 +- 30 um, against r0 = 668 um); on coarse pixels
    # they found lobes narrower than a pixel (58 um, against r0 = 978 um).
    # Each run reported them with exit 0
    ini = tmp_path / "spot.ini"
    ini.write_text(NO_RING)
    cases = [[f"imaging.temperature_uk={t}"] for t in ("0.3", "1.0", "3.0")]
    for k, overrides in enumerate(cases + [NARROW_LOBES]):
        out = tmp_path / f"spot-{k}"
        argv = ["image", "--config", str(ini), "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_NUMERIC
        assert "no ring" in capsys.readouterr().err
        assert not (out / "radius.txt").exists()


@pytest.mark.parametrize("command, overrides", [
    ("potential", ["analysis.grid_x_min_mm=1e300", "analysis.grid_x_max_mm=1e301"]),
    ("image", ["imaging.z_halfwidth_factor=1e300"]),
])
def test_overflowing_grid_fill_exits_3_without_a_warning(ini, tmp_path, capsys, command, overrides):
    # x**2 of nodes 1e297 m to 1e298 m out, and z**2 of an image
    # half-height of ~1e296 m, overflow in the kernel; the finite check over
    # the filled nodes reports it, with no numpy overflow warning first (a
    # failure under filterwarnings = ["error"], a traceback under -W error)
    argv = [command, "--config", str(ini), "--out", str(tmp_path / "huge")]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err == "ringtrap: numerical failure: grid values must all be finite\n"


#: how far an exit-0 image radius may lie from r0, as a fraction of r0: 1.5
#: pixels of r0 / 15. A lobe of a ring thinner than a pixel, or one skewed by
#: a thermal width near r0 (100 uK at 30 G/cm), sits within about a pixel of
#: the valley floor; 557 exit-0 runs of a 1,500-config scan of the property's
#: ranges read 0.969-1.059 r0
RADIUS_TOLERANCE = 0.1


def test_gravity_ring_radius_is_measured_about_the_trap_centre(ini, tmp_path):
    # gravity collects the atoms in the lower part of the ring: diameters
    # through the cloud's centroid, well below the ring's centre, cut chords
    # and read 0.819 r0
    argv = ["image", "--config", str(ini), "--out", str(tmp_path / "im")]
    for item in (
        "quadrupole.gradient_g_per_cm=100", "rf.freq_mhz=2.0", "rf.bx_g=0.5",
        "rf.by_g=0.5", "rf.alpha_deg=-90", "gravity.enabled=true",
        "imaging.temperature_uk=20", "imaging.nz=5",
    ):
        argv += ["--set", item]
    assert main(argv) == EXIT_OK
    rep = read_report(tmp_path / "im" / "radius.txt")
    r0_um = float(rep["resonance_radius_um"])
    assert abs(float(rep["radius_um"]) - r0_um) <= RADIUS_TOLERANCE * r0_um


@settings(max_examples=12)
@given(
    gradient=st.floats(30.0, 150.0),
    freq=st.floats(1.0, 3.0),
    amplitude=st.floats(0.05, 1.0),
    circular=st.booleans(),
    gravity=st.booleans(),
    log_t=st.floats(-1.0, 2.0),
)
def test_image_reports_a_ring_inside_the_image_or_exits_3(
    tmp_path_factory, gradient, freq, amplitude, circular, gravity, log_t
):
    # 0.1-100 uK, linear or circular rf, with and without gravity, on coarse
    # pixels of about r0 / 15 and 5 z nodes
    overrides = [
        f"quadrupole.gradient_g_per_cm={gradient!r}",
        f"rf.freq_mhz={freq!r}",
        f"rf.bx_g={amplitude!r}",
        f"rf.by_g={amplitude if circular else 0.0!r}",
        f"gravity.enabled={str(gravity).lower()}",
        f"imaging.temperature_uk={10.0**log_t!r}",
        "imaging.nz=5",
    ]
    tmp = tmp_path_factory.mktemp("prop")
    ini = tmp / "run.ini"
    ini.write_text(BASE)
    r0 = resonance_radius(load_config(ini, overrides=overrides).trap)
    overrides.append(f"imaging.pixel_um={r0 * 1e6 / 15!r}")
    argv = ["image", "--config", str(ini), "--out", str(tmp / "out")]
    for item in overrides:
        argv += ["--set", item]
    code = main(argv)
    assert code in (EXIT_OK, EXIT_NUMERIC)
    if code == EXIT_OK:
        rep = read_report(tmp / "out" / "radius.txt")
        assert abs(float(rep["radius_um"]) * 1e-6 - r0) <= RADIUS_TOLERANCE * r0
        assert math.isfinite(float(rep["uncertainty_um"]))


def test_analysis_window_knobs_flow_through(ini, tmp_path):
    out = tmp_path / "rw"
    code = main(
        ["analyze", "--config", str(ini), "--out", str(out),
         "--set", "analysis.rho_min_factor=0.8", "--set", "analysis.rho_max_factor=1.2"]
    )
    assert code == EXIT_OK
    rep = read_report(out / "analysis.txt")
    assert float(rep["ring_radius_um"]) == pytest.approx(214.343, abs=0.01)
    bad = main(
        ["analyze", "--config", str(ini), "--out", str(tmp_path / "rx"),
         "--set", "analysis.rho_min_factor=2.0", "--set", "analysis.rho_max_factor=1.0"]
    )
    assert bad == EXIT_CONFIG


def test_analyze_coupling_test_at_reported_minimum(ini, tmp_path):
    # with gravity and a z band the valley minimum leaves the z = 0 plane;
    # omega/Omega must be taken there, not on a separate in-plane profile
    out = tmp_path / "zb"
    overrides = ["gravity.enabled=true", "analysis.z_band_factor=0.3"]
    argv = ["analyze", "--config", str(ini), "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == EXIT_OK
    text = (out / "analysis.txt").read_text().splitlines()
    rep = read_report(out / "analysis.txt")
    first = text[text.index("minima: azimuth_deg,x_um,y_um,z_um,V_uK") + 1]
    pos = np.array([float(c) for c in first.split(",")[1:4]]) * 1e-6
    assert abs(pos[2]) > 1e-5  # the reported minimum is off-plane
    cfg = load_config(ini, overrides=overrides).trap
    expected = cfg.rf.omega / rabi_frequency(pos, cfg)
    assert float(rep["omega_over_rabi"]) == pytest.approx(expected, rel=1e-9)
    want_flag = "true" if expected < float(rep["kappa"]) else "false"
    assert rep["coupling_dominated"] == want_flag


@pytest.mark.parametrize("override", [
    "analysis.n_phi=32",
    "atom.species=Xx",
    "sweep.freq_mhz_list=1.0, abc",
    "sweep.freq_mhz_list=1.0, nan",
    "sweep.freq_mhz_list=1.0, nan, inf",
    "sweep.amplitude_table=missing.csv",
    "sweep.freq_mhz_count=1000000000000",
    "imaging.pixel_um=0.01",
    "imaging.xy_halfwidth_factor=1e308",
], ids=["n_phi", "species", "freq-token", "freq-nan", "freq-nan-inf", "table", "freq-count",
        "image-nodes", "image-inf"])
def test_classification_azimuth_limit_checked_at_load(ini, tmp_path, override):
    # every builder runs when the config loads: a config that one subcommand
    # cannot use fails every subcommand, before any output is written
    for command in ("analyze", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", str(ini), "--out", str(out),
                     "--set", override]) == EXIT_CONFIG
        assert not out.exists()


def test_image_od_scale_scales_pixels(ini, tmp_path):
    vals = {}
    for tag, scale in (("one", "1.0"), ("two", "2.0")):
        out = tmp_path / tag
        main(["image", "--config", str(ini), "--out", str(out),
              "--set", f"imaging.od_scale={scale}",
              "--set", "imaging.xy_halfwidth_factor=1.2", "--set", CSV_AND_BIN])
        from ringtrap.image_io import import_image_csv

        vals[tag] = import_image_csv(out / "image.csv").values
    assert (vals["two"] == 2.0 * vals["one"]).all()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[rf]\nunknown_key = 1\n")
    assert main(["potential", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    missing = tmp_path / "missing.ini"
    assert main(["potential", "--config", str(missing), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["potential", "analyze", "sweep", "image"])
def test_underflowing_gradient_is_a_config_error(ini, tmp_path, capsys, command):
    # g_F mu_B B_q of 1e-300 G/cm underflows to 0, which every length scale
    # divides by
    out = tmp_path / "tiny"
    argv = [command, "--config", str(ini), "--out", str(out),
            "--set", "quadrupole.gradient_g_per_cm=1e-300"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("ringtrap: config error: quadrupole gradient")
    assert "underflows" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [(["rf.freq_mhz=1e-320"], "[rf] freq_mhz=1e-320 gives a resonance radius of 0.0 m"),
     (["rf.bx_g=1e308", "rf.by_g=1e308"], "rf amplitudes")],
)
def test_trap_without_a_finite_ring_is_a_config_error(ini, tmp_path, capsys, overrides, message):
    # the README examples that once exited 0 with a ring radius of 0 or nan
    out = tmp_path / "none"
    argv = ["analyze", "--config", str(ini), "--out", str(out)]
    for pair in overrides:
        argv += ["--set", pair]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"ringtrap: config error: {message}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_too_many_profile_azimuths_are_a_config_error(ini, tmp_path, capsys, command):
    # 10^12 azimuths would ask numpy for terabytes in the profile; the limit
    # is checked at load, before any output
    out = tmp_path / "wide"
    argv = [command, "--config", str(ini), "--out", str(out),
            "--set", "analysis.n_phi=1000000000000"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("ringtrap: config error: [analysis] n_phi")
    assert "Traceback" not in err
    assert not out.exists()


def test_two_runs_in_one_process_keep_their_own_overrides(ini, tmp_path):
    # the parser is built once per process; each call parses its own --set
    one, two = tmp_path / "one", tmp_path / "two"
    argv = ["analyze", "--config", str(ini)]
    assert main(argv + ["--out", str(one), "--set", "rf.freq_mhz=1.25"]) == EXIT_OK
    assert main(argv + ["--out", str(two), "--set", "rf.by_g=0"]) == EXIT_OK
    first, second = (load_config(d / "resolved.ini") for d in (one, two))
    assert (first.get("rf", "freq_mhz"), first.get("rf", "by_g")) == (1.25, 0.7)
    assert (second.get("rf", "freq_mhz"), second.get("rf", "by_g")) == (1.5, 0.0)
    assert ringtrap.cli._build_parser.cache_info().currsize == 1


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_a_run_builds_its_trap_once(ini, tmp_path, monkeypatch, command):
    # the load builds every run object, and the subcommand reads them
    built = []

    def counted(*args, **kwargs):
        built.append(kwargs)
        return TrapConfig(*args, **kwargs)

    monkeypatch.setattr(ringtrap.config, "TrapConfig", counted)
    assert main([command, "--config", str(ini), "--out", str(tmp_path)]) == EXIT_OK
    assert len(built) == 1


def test_numeric_error_exit_code(ini, tmp_path):
    # zero atoms -> empty image -> measurement failure -> exit 3
    out = tmp_path / "z"
    code = main(
        ["image", "--config", str(ini), "--out", str(out), "--set", "imaging.atom_number=0"]
    )
    assert code == EXIT_NUMERIC


def test_grid_node_cap_is_a_config_error(ini, tmp_path, capsys):
    big = ["--set", "analysis.grid_nx=20000", "--set", "analysis.grid_ny=20000"]
    argv = ["potential", "--config", str(ini), "--out", str(tmp_path / "p")]
    assert main(argv + big) == EXIT_CONFIG
    assert "[analysis] grid of 400000000 nodes exceeds the node limit of 100000000" in (
        capsys.readouterr().err
    )
    argv = ["image", "--config", str(ini), "--out", str(tmp_path / "i")]
    assert main(argv + ["--set", "imaging.pixel_um=0.01"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[imaging] grid of" in err and "exceeds the node limit of 100000000" in err


def test_invalid_seed_and_non_text_config_are_config_errors(ini, tmp_path):
    argv = ["image", "--config", str(ini), "--out", str(tmp_path / "s")]
    assert main(argv + ["--set", "imaging.noise_seed=-1"]) == EXIT_CONFIG
    binary = tmp_path / "binary.ini"
    binary.write_bytes(b"\xff\xfe[rf]\n")
    argv = ["potential", "--config", str(binary), "--out", str(tmp_path / "b")]
    assert main(argv) == EXIT_CONFIG


def test_noise_seed_beyond_uint64_is_a_config_error(ini, tmp_path):
    argv = ["image", "--config", str(ini), "--out", str(tmp_path / "s"),
            "--set", "imaging.noise_frac=0.02", "--set", f"imaging.noise_seed={2**64}"]
    assert main(argv) == EXIT_CONFIG
    assert not (tmp_path / "s").exists()


def test_stray_value_error_is_a_numerical_failure(ini, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("failure deep in the numerics")

    monkeypatch.setattr(ringtrap.analysis, "analyze_trap", broken)
    argv = ["analyze", "--config", str(ini), "--out", str(tmp_path / "v")]
    assert main(argv) == EXIT_NUMERIC


def test_io_error_exit_code(ini, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["potential", "--config", str(ini), "--out", str(blocker)]) == EXIT_IO


@pytest.mark.parametrize("command", ["potential", "analyze", "sweep", "image"])
def test_resolved_ini_reloads(ini, tmp_path, command):
    # the echo writes the unset [atom] keys as empty values; reading it back
    # must give the same run
    first, second = tmp_path / "first", tmp_path / "second"
    argv = [command, "--config", str(ini), "--out", str(first),
            "--set", "imaging.xy_halfwidth_factor=1.2"]
    assert main(argv) == EXIT_OK
    echo = first / "resolved.ini"
    assert load_config(echo).resolved_ini() == echo.read_text()
    assert main([command, "--config", str(echo), "--out", str(second)]) == EXIT_OK
    for path in first.iterdir():
        assert (second / path.name).read_bytes() == path.read_bytes()


def package_env():
    """The environment of a fresh interpreter that imports this package."""
    env = dict(os.environ)
    src = str(Path(ringtrap.cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


#: a script for a fresh interpreter: with a subcommand, ``ringtrap.cli.main``
#: runs it; without, ``import ringtrap`` and ``load_config`` alone. It prints
#: the exit code and the package's modules then loaded, and ``configparser``
#: if it loaded
IMPORT_PROBE = """
import json, sys
command, config, out = sys.argv[1:]
if command:
    import ringtrap.cli
    code = ringtrap.cli.main([command, "--config", config, "--out", out,
                              "--set", "imaging.xy_halfwidth_factor=1.2"])
else:
    import ringtrap
    from ringtrap.config import load_config
    load_config(config)
    code = 0
loaded = [m for m in sys.modules if m.startswith("ringtrap.") or m == "configparser"]
print(json.dumps([code, sorted(loaded)]))
"""


#: the package modules that a subcommand runs, besides ``config``
RUN_MODULES = {"analyze": {"analysis", "valley"}, "sweep": {"valley"}, "image": {"imaging"}}


@pytest.mark.parametrize("command, absent", [
    ("potential", {"analysis", "valley", "imaging", "gaussfit", "configparser"}),
    ("image", {"analysis", "valley", "configparser"}),
    ("analyze", {"imaging", "gaussfit", "configparser"}),
    ("sweep", {"analysis", "imaging", "gaussfit", "configparser"}),
    ("", {"analysis", "valley", "imaging", "gaussfit", "image_io", "configparser"}),
])
def test_a_run_imports_only_the_modules_it_runs(ini, tmp_path, command, absent):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, command, str(ini), str(tmp_path / "out")],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    loaded = {m.removeprefix("ringtrap.") for m in modules}
    assert code == EXIT_OK
    present = {"config"} | RUN_MODULES.get(command, set())
    assert present <= loaded and not absent & loaded, sorted(loaded)


def test_config_syntax_error_exits_2_with_one_line(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[rf\nbx_g = 0.7\n")
    proc = subprocess.run(
        [sys.executable, "-m", "ringtrap.cli", "analyze", "--config", str(bad),
         "--out", str(tmp_path / "out")],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.splitlines() == [
        "ringtrap: config error: config syntax error: line 1: "
        "expected [section] or key = value, got '[rf'"
    ]
    assert not (tmp_path / "out").exists()


def test_console_entry_point(ini, tmp_path):
    # the module run as a program, as the console script runs it: its exit
    # status is main's return value
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "ringtrap.cli", *args],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )

    missing = run("analyze", "--config", str(tmp_path / "none.ini"))
    assert missing.returncode == EXIT_CONFIG
    assert "config file not found" in missing.stderr
    out = tmp_path / "an"
    done = run("analyze", "--config", str(ini), "--out", str(out))
    assert done.returncode == EXIT_OK, done.stderr
    assert read_report(out / "analysis.txt")["geometry"] == "symmetric-ring"
