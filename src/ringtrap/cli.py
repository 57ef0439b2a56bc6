"""Command-line interface: potential grids, geometry analysis, frequency
sweeps and synthetic images, all driven by one INI config.

Every subcommand writes a resolved-config echo next to its outputs and is
deterministic: identical configs produce byte-identical files. Exit codes:
0 success, 2 configuration error (:class:`ConfigError`, raised when the
config loads, before any computation or output), 3 numerical failure (any
other package error or ``ValueError``), 4 I/O error.

A subcommand imports what only it runs when it runs: ``sweep`` imports
:mod:`ringtrap.valley`, ``analyze`` imports :mod:`ringtrap.analysis`, which
builds on it, ``image`` imports :mod:`ringtrap.imaging`, and ``potential``
none of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config, render_value
from .constants import MICROKELVIN
from .dressed import resonance_radius
from .errors import ConfigError, RingtrapError
from .grids import sample_grid
from .image_io import (
    export_grid_binary,
    export_grid_csv,
    export_image_binary,
    export_image_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_TWO_PI = 2.0 * np.pi


def _fmt(value) -> str:
    return "unavailable" if value is None else render_value(value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_potential(rc: RunConfig, outdir: Path) -> int:
    grid = sample_grid(rc.trap, rc.grid_region, rc.grid_dims)
    if "csv" in rc.formats:
        export_grid_csv(grid, outdir / "grid.csv")
    if "bin" in rc.formats:
        export_grid_binary(grid, outdir / "grid.f64", outdir / "grid.hdr")

    vmin = float(grid.values.min())
    vmax = float(grid.values.max())
    summary = {
        "dims": list(grid.dims),
        "origin_m": list(grid.origin),
        "spacing_m": list(grid.spacing),
        "min_J": vmin,
        "min_uK": vmin / MICROKELVIN,
        "min_position_m": [float(c) for c in grid.min_position()],
        "max_J": vmax,
        "max_uK": vmax / MICROKELVIN,
        "resonance_radius_m": resonance_radius(rc.trap),
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def run_analyze(rc: RunConfig, outdir: Path) -> int:
    from .analysis import analyze_trap

    analysis = analyze_trap(
        rc.trap,
        n_phi=rc.get("analysis", "n_phi"),
        rho_factors=rc.rho_factors,
        z_band_factor=rc.get("analysis", "z_band_factor"),
        tolerances=rc.tolerances,
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
        f"barrier_uK: {_fmt(analysis.barrier_height / MICROKELVIN)}",
        f"depth_uK: {_fmt(analysis.depth / MICROKELVIN)}",
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
            f"{v / MICROKELVIN!r}"
        )
    if analysis.refined_minimum is not None:
        x, y, z = (float(c) * um for c in analysis.refined_minimum)
        offset = float(np.linalg.norm(analysis.refined_minimum - analysis.minima[0][0]))
        lines.append(f"refined_minimum_um: {x!r},{y!r},{z!r}")
        lines.append(f"refined_offset_um: {offset * um!r}")
    for note in analysis.notes:
        lines.append(f"note: {note}")
    (outdir / "analysis.txt").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def run_sweep(rc: RunConfig, outdir: Path) -> int:
    from .valley import frequency_sweep

    rows = frequency_sweep(
        rc.trap,
        rc.sweep_omegas,
        amplitudes=rc.sweep_amplitudes,
        n_phi=rc.get("analysis", "n_phi"),
        rho_factors=rc.rho_factors,
        z_band_factor=rc.get("analysis", "z_band_factor"),
        tolerances=rc.tolerances,
    )
    # r_resonance_um, r_numeric_um, barrier_uK
    cols = np.array([(r.resonance_radius, r.numeric_radius, r.barrier_height) for r in rows])
    cols[:, :2] *= 1e6
    cols[:, 2] /= MICROKELVIN
    # the error column stays, always empty: readers of sweep.csv use it
    lines = ["freq_MHz,r_resonance_um,r_numeric_um,barrier_uK,geometry,error"]
    lines.extend(
        f"{f_mhz!r},{r0!r},{radius!r},{barrier!r},{row.geometry.value},"
        for f_mhz, (r0, radius, barrier), row in zip(rc.sweep_freqs_mhz, cols.tolist(), rows)
    )
    (outdir / "sweep.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def run_image(rc: RunConfig, outdir: Path) -> int:
    from .imaging import add_noise, column_density, measure_ring_radius

    image = column_density(
        rc.trap, rc.get("imaging", "temperature_uk") * 1e-6, rc.image_region, rc.image_dims,
        atom_number=rc.get("imaging", "atom_number"),
        od_scale=rc.get("imaging", "od_scale"),
    )
    noise = rc.get("imaging", "noise_frac")
    if noise > 0:
        image = add_noise(image, noise, seed=rc.get("imaging", "noise_seed"))

    if "csv" in rc.formats:
        export_image_csv(image, outdir / "image.csv")
    if "bin" in rc.formats:
        export_image_binary(image, outdir / "image.u16", outdir / "image.hdr")

    # image coordinates are trap coordinates: the ring is centred on (0, 0)
    measurement = measure_ring_radius(
        image, (0.0, 0.0), n_diameters=rc.get("imaging", "n_diameters")
    )
    um = 1e6
    lines = [
        f"radius_um: {measurement.radius * um!r}",
        f"uncertainty_um: {measurement.uncertainty * um!r}",
        f"resonance_radius_um: {resonance_radius(rc.trap) * um!r}",
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
    (outdir / "radius.txt").write_text("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the process:
    parsing leaves it unchanged, and building it costs more than a small
    run's computation. Not built at import, which stays cheap."""
    parser = argparse.ArgumentParser(
        prog="ringtrap",
        description="rf-dressed quadrupole trap potentials and ring analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("potential", "sample the dressed potential on a grid and export it"),
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
        (outdir / "resolved.ini").write_text(rc.resolved_ini())
        if args.command == "potential":
            return run_potential(rc, outdir)
        if args.command == "analyze":
            return run_analyze(rc, outdir)
        if args.command == "sweep":
            return run_sweep(rc, outdir)
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
