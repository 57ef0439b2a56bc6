"""Command-line interface: potential grids, geometry analysis, frequency
sweeps and synthetic images, all driven by one INI config.

Every subcommand writes a resolved-config echo next to its outputs and is
deterministic: identical configs produce byte-identical files. Exit codes:
0 success, 2 configuration error (:class:`ConfigError`, raised before any
computation), 3 numerical failure (any other package error or
``ValueError``), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import analyze_trap, frequency_sweep, resonance_radius
from .config import RunConfig, load_config
from .errors import ConfigError, RingtrapError
from .grids import sample_grid
from .image_io import export_image_binary, export_image_csv
from .imaging import add_noise, column_density, measure_ring_radius, thermal_density
from .units import convert_units

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_TWO_PI = 2.0 * np.pi


def _write_text(path: Path, text: str) -> None:
    path.write_text(text)


def _echo_config(rc: RunConfig, outdir: Path) -> None:
    _write_text(outdir / "resolved.ini", rc.resolved_ini())


def _fmt(value) -> str:
    if value is None:
        return "unavailable"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_potential(rc: RunConfig, outdir: Path) -> int:
    cfg = rc.trap()
    grid = sample_grid(cfg, rc.grid_region(), rc.grid_dims())
    pos = grid.node_positions().reshape(-1, 3)
    vals = grid.values.reshape(-1)
    # v / j_per_uk rounds exactly as convert_units(v, "J", "uK") does
    j_per_uk = convert_units(1.0, "uK", "J")
    lines = ["x_m,y_m,z_m,V_J,V_uK"]
    for (x, y, z), v in zip(pos.tolist(), vals.tolist()):
        lines.append(f"{x!r},{y!r},{z!r},{v!r},{v / j_per_uk!r}")
    _write_text(outdir / "grid.csv", "\n".join(lines) + "\n")

    vmin = float(grid.values.min())
    vmax = float(grid.values.max())
    summary = {
        "dims": list(grid.dims),
        "origin_m": list(grid.origin),
        "spacing_m": list(grid.spacing),
        "min_J": vmin,
        "min_uK": convert_units(vmin, "J", "uK"),
        "min_position_m": [float(c) for c in grid.min_position()],
        "max_J": vmax,
        "max_uK": convert_units(vmax, "J", "uK"),
        "resonance_radius_m": resonance_radius(cfg),
    }
    _write_text(outdir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def run_analyze(rc: RunConfig, outdir: Path) -> int:
    cfg = rc.trap()
    r0 = resonance_radius(cfg)
    analysis = analyze_trap(
        cfg,
        n_phi=rc.get("analysis", "n_phi"),
        rho_factors=rc.rho_factors(),
        z_band=rc.get("analysis", "z_band_factor") * r0,
        tolerances=rc.classifier_tolerances(),
    )
    criteria = analysis.criteria

    um = 1e6
    hz = lambda w: None if w is None else w / _TWO_PI
    ratio = (
        analysis.omega_z / analysis.omega_rho
        if analysis.omega_z is not None
        and analysis.omega_rho not in (None, 0.0)
        else None
    )
    lines = [
        f"geometry: {analysis.geometry}",
        f"low_confidence: {_fmt(analysis.low_confidence)}",
        f"ring_radius_um: {_fmt(analysis.ring_radius * um)}",
        f"resonance_radius_um: {_fmt(analysis.resonance_radius * um)}",
        f"barrier_uK: {_fmt(convert_units(analysis.barrier_height, 'J', 'uK'))}",
        f"depth_uK: {_fmt(convert_units(analysis.depth, 'J', 'uK'))}",
        f"omega_rho_Hz: {_fmt(hz(analysis.omega_rho))}",
        f"omega_z_Hz: {_fmt(hz(analysis.omega_z))}",
        f"omega_phi_Hz: {_fmt(hz(analysis.omega_phi))}",
        f"omega_z_over_omega_rho: {_fmt(ratio)}",
        f"kappa: {_fmt(criteria.kappa)}",
        f"omega_over_rabi: {_fmt(criteria.omega_over_rabi)}",
        f"coupling_dominated: {_fmt(criteria.coupling_dominated)}",
        f"gravity_negligible: {_fmt(criteria.gravity_negligible)}",
        f"n_minima: {len(analysis.minima)}",
        "minima: azimuth_deg,x_um,y_um,z_um,V_uK",
    ]
    for pos, v, azim in analysis.minima:
        x, y, z = (float(c) * um for c in pos)
        lines.append(
            f"  {float(np.degrees(azim))!r},{x!r},{y!r},{z!r},"
            f"{convert_units(v, 'J', 'uK')!r}"
        )
    for note in analysis.notes:
        lines.append(f"note: {note}")
    _write_text(outdir / "analysis.txt", "\n".join(lines) + "\n")
    return EXIT_OK


def run_sweep(rc: RunConfig, outdir: Path, config_dir: Path) -> int:
    cfg = rc.trap()
    freqs_mhz = rc.sweep_frequencies_mhz()
    table_g = rc.amplitude_table_g(len(freqs_mhz), config_dir)
    omegas = [convert_units(f, "MHz", "rad/s") for f in freqs_mhz]
    amplitudes = None
    if table_g is not None:
        for (f_mhz, *_), f_want in zip(table_g, freqs_mhz):
            if abs(f_mhz - f_want) > 1e-9 * max(abs(f_want), 1.0):
                raise ConfigError(
                    f"[sweep] amplitude_table frequency {f_mhz} MHz does not "
                    f"match sweep frequency {f_want} MHz"
                )
        amplitudes = [
            tuple(convert_units(b, "G", "T") for b in row[1:]) for row in table_g
        ]
    r0 = resonance_radius(cfg)
    rows = frequency_sweep(
        cfg,
        omegas,
        amplitudes=amplitudes,
        n_phi=rc.get("analysis", "n_phi"),
        rho_factors=rc.rho_factors(),
        z_band=rc.get("analysis", "z_band_factor") * r0,
        tolerances=rc.classifier_tolerances(),
    )
    um = 1e6
    lines = ["freq_MHz,r_resonance_um,r_numeric_um,barrier_uK,geometry,error"]
    for f_mhz, row in zip(freqs_mhz, rows):
        if row.error is None:
            lines.append(
                f"{f_mhz!r},"
                f"{row.resonance_radius * um!r},"
                f"{row.numeric_radius * um!r},"
                f"{convert_units(row.barrier_height, 'J', 'uK')!r},"
                f"{row.geometry},"
            )
        else:
            lines.append(f"{f_mhz!r},,,,,{row.error}")
    _write_text(outdir / "sweep.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def run_image(rc: RunConfig, outdir: Path) -> int:
    cfg = rc.trap()
    r0 = resonance_radius(cfg)
    region, dims = rc.image_grid(r0)
    density = thermal_density(
        cfg,
        temperature=rc.get("imaging", "temperature_uk") * 1e-6,
        region=region,
        dims=dims,
        atom_number=rc.get("imaging", "atom_number"),
    )
    image = column_density(density, axis="z", od_scale=rc.get("imaging", "od_scale"))
    noise = rc.get("imaging", "noise_frac")
    if noise > 0:
        image = add_noise(image, noise, seed=rc.get("imaging", "noise_seed"))

    formats = rc.output_formats()
    if "csv" in formats:
        export_image_csv(image, outdir / "image.csv")
    if "bin" in formats:
        export_image_binary(image, outdir / "image.u16", outdir / "image.hdr")

    measurement = measure_ring_radius(image, n_diameters=rc.get("imaging", "n_diameters"))
    um = 1e6
    lines = [
        f"radius_um: {measurement.radius * um!r}",
        f"uncertainty_um: {measurement.uncertainty * um!r}",
        f"resonance_radius_um: {r0 * um!r}",
        f"n_diameters_used: {len(measurement.per_diameter)}",
        f"n_diameters_excluded: {len(measurement.excluded)}",
        "per_diameter: angle_deg,radius_um,rms_residual",
    ]
    for fit in measurement.per_diameter:
        lines.append(
            f"  {float(np.degrees(fit.angle))!r},{fit.radius * um!r},{fit.residual!r}"
        )
    for angle, reason in measurement.excluded:
        lines.append(f"excluded: {float(np.degrees(angle))!r},{reason}")
    _write_text(outdir / "radius.txt", "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringtrap",
        description="rf-dressed quadrupole trap potentials and ring analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("potential", "sample the dressed potential on a grid and export CSV"),
        ("analyze", "classify the trap geometry and report ring observables"),
        ("sweep", "analyse the trap across a list of dressing frequencies"),
        ("image", "synthesise an absorption image and measure the ring radius"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the INI run config")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one config value (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = load_config(args.config, overrides=args.set)
        outdir = Path(args.out) if args.out else Path(rc.get("output", "directory"))
        outdir.mkdir(parents=True, exist_ok=True)  # raises if outdir is a file
        _echo_config(rc, outdir)
        if args.command == "potential":
            return run_potential(rc, outdir)
        if args.command == "analyze":
            return run_analyze(rc, outdir)
        if args.command == "sweep":
            return run_sweep(rc, outdir, Path(args.config).resolve().parent)
        return run_image(rc, outdir)
    except ConfigError as err:
        print(f"ringtrap: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"ringtrap: i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except (RingtrapError, ValueError) as err:
        print(f"ringtrap: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
