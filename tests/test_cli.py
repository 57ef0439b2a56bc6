import json
import math

import numpy as np
import pytest

import ringtrap.cli
from ringtrap import rabi_frequency
from ringtrap.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from ringtrap.config import load_config

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
    assert main(["potential", "--config", str(ini), "--out", str(out)]) == EXIT_OK
    grid = (out / "grid.csv").read_text().splitlines()
    assert grid[0] == "x_m,y_m,z_m,V_J,V_uK"
    assert len(grid) == 1 + 81 * 81
    summary = json.loads((out / "summary.json").read_text())
    r_min = math.hypot(summary["min_position_m"][0], summary["min_position_m"][1])
    assert r_min == pytest.approx(summary["resonance_radius_m"], abs=2 * summary["spacing_m"][0])
    assert (out / "resolved.ini").exists()


def test_potential_deterministic_reruns(ini, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["potential", "--config", str(ini), "--out", str(out1)])
    main(["potential", "--config", str(ini), "--out", str(out2)])
    for name in ("grid.csv", "summary.json", "resolved.ini"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


def test_image_outputs_and_measurement(ini, tmp_path):
    out = tmp_path / "im"
    assert main(["image", "--config", str(ini), "--out", str(out)]) == EXIT_OK
    for name in ("image.csv", "image.u16", "image.hdr", "radius.txt", "resolved.ini"):
        assert (out / name).exists()
    rep = read_report(out / "radius.txt")
    assert float(rep["radius_um"]) == pytest.approx(214.343, abs=5.0)
    assert rep["n_diameters_used"] == "8"


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
    cfg = load_config(ini, overrides=overrides).trap()
    expected = cfg.rf.omega / rabi_frequency(pos, cfg)
    assert float(rep["omega_over_rabi"]) == pytest.approx(expected, rel=1e-9)
    want_flag = "true" if expected < float(rep["kappa"]) else "false"
    assert rep["coupling_dominated"] == want_flag


def test_classification_azimuth_limit_checked_at_load(ini, tmp_path):
    out = tmp_path / "np"
    code = main(
        ["analyze", "--config", str(ini), "--out", str(out), "--set", "analysis.n_phi=32"]
    )
    assert code == EXIT_CONFIG
    assert not (out / "resolved.ini").exists()


def test_image_od_scale_scales_pixels(ini, tmp_path):
    vals = {}
    for tag, scale in (("one", "1.0"), ("two", "2.0")):
        out = tmp_path / tag
        main(["image", "--config", str(ini), "--out", str(out),
              "--set", f"imaging.od_scale={scale}",
              "--set", "imaging.xy_halfwidth_factor=1.2"])
        from ringtrap.image_io import import_image_csv

        vals[tag] = import_image_csv(out / "image.csv").values
    assert (vals["two"] == 2.0 * vals["one"]).all()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[rf]\nunknown_key = 1\n")
    assert main(["potential", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    missing = tmp_path / "missing.ini"
    assert main(["potential", "--config", str(missing), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_numeric_error_exit_code(ini, tmp_path):
    # zero atoms -> empty image -> measurement failure -> exit 3
    out = tmp_path / "z"
    code = main(
        ["image", "--config", str(ini), "--out", str(out), "--set", "imaging.atom_number=0"]
    )
    assert code == EXIT_NUMERIC


def test_grid_node_cap_is_a_config_error(ini, tmp_path):
    big = ["--set", "analysis.grid_nx=20000", "--set", "analysis.grid_ny=20000"]
    argv = ["potential", "--config", str(ini), "--out", str(tmp_path / "p")]
    assert main(argv + big) == EXIT_CONFIG
    argv = ["image", "--config", str(ini), "--out", str(tmp_path / "i")]
    assert main(argv + ["--set", "imaging.pixel_um=0.01"]) == EXIT_CONFIG


def test_invalid_seed_and_non_text_config_are_config_errors(ini, tmp_path):
    argv = ["image", "--config", str(ini), "--out", str(tmp_path / "s")]
    assert main(argv + ["--set", "imaging.noise_seed=-1"]) == EXIT_CONFIG
    binary = tmp_path / "binary.ini"
    binary.write_bytes(b"\xff\xfe[rf]\n")
    argv = ["potential", "--config", str(binary), "--out", str(tmp_path / "b")]
    assert main(argv) == EXIT_CONFIG


def test_stray_value_error_is_a_numerical_failure(ini, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("failure deep in the numerics")

    monkeypatch.setattr(ringtrap.cli, "analyze_trap", broken)
    argv = ["analyze", "--config", str(ini), "--out", str(tmp_path / "v")]
    assert main(argv) == EXIT_NUMERIC


def test_io_error_exit_code(ini, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["potential", "--config", str(ini), "--out", str(blocker)]) == EXIT_IO


def test_console_entry_point():
    from ringtrap.cli import entry
    assert callable(entry)
