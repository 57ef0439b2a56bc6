"""Benchmark workloads: seeded INI configs and physics checks of CLI outputs.

A workload is a list of CLI invocations. One pass runs every invocation of
the list once, in order. The seed is the only input the benchmark takes; the
program only ever sees the INI files generated from it.

Every check reads only the small reports (``summary.json``, ``analysis.txt``,
``sweep.csv``, ``radius.txt``) and tests a physical property, so a change of
the bulk file formats does not register as a failure. The bulk files are
compared only with themselves, pass against pass, by the benchmark's
byte-identity check.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: README example: circular 0.7 G at 1.5 MHz in 100 G/cm, gravity off
BASE_FREQ_MHZ = 1.5
BASE_AMPLITUDE_G = 0.7
PIXEL_UM = 2.5

#: both jitters are uniform within +-5% of the base value
JITTER = 0.05

#: relative tolerance of the numeric ring radius against the resonance radius
RADIUS_RTOL = 0.02

#: the image radius must lie within this many pixels of the resonance radius
IMAGE_RADIUS_PIXELS = 2.0

SWEEP_START_MHZ = 0.5
SWEEP_STOP_MHZ = 3.0
SWEEP_COUNT = 41
SWEEP_N_PHI = 256

#: jitter draws per ``analyze`` pass: the pattern-search work of one draw
#: moves by up to 7% with the jitter, and a pass over three draws averages it
ANALYZE_DRAWS = 3

WORKLOADS = ("map", "image", "analyze", "sweep")

#: calibration task of each workload (see calibration.py for the evidence)
CALIBRATION = {
    "map": "interpreted",
    "image": "streaming",
    "analyze": "interpreted",
    "sweep": "streaming",
}


@dataclass(frozen=True)
class Jitter:
    """What the seed varies: dressing frequency, one common amplitude factor
    (which keeps the polarization and so the geometry) and the noise seed."""

    freq_mhz: float
    amplitude: float
    noise_seed: int

    @classmethod
    def draw(cls, rng: random.Random) -> "Jitter":
        return cls(
            freq_mhz=BASE_FREQ_MHZ * (1.0 + rng.uniform(-JITTER, JITTER)),
            amplitude=1.0 + rng.uniform(-JITTER, JITTER),
            noise_seed=rng.randrange(2**31),
        )


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``ringtrap <command> --config <config> --out <dir>``."""

    label: str  # unique within the workload; names the output directory
    command: str
    config: Path
    check: object  # check(outdir) -> list of problems, empty when correct

    def argv(self, outdir: Path) -> list:
        return [self.command, "--config", str(self.config), "--out", str(outdir)]


def _ini(jit: Jitter, *, bx=1.0, by=1.0, bz=0.0, gravity=False, extra=None) -> str:
    """README example config; rf amplitudes are multiples of 0.7 G."""
    amp = BASE_AMPLITUDE_G * jit.amplitude
    sections = {
        "atom": {"species": "Rb87"},
        "quadrupole": {"gradient_g_per_cm": 100},
        "rf": {
            "bx_g": repr(bx * amp),
            "by_g": repr(by * amp),
            "bz_g": repr(bz * amp),
            "alpha_deg": -90,
            "beta_deg": 0,
            "freq_mhz": repr(jit.freq_mhz),
        },
        "gravity": {"enabled": "true" if gravity else "false"},
        "analysis": {
            "n_phi": 64,
            "z_band_factor": 0.0,
            "grid_x_min_mm": -0.5,
            "grid_x_max_mm": 0.5,
            "grid_y_min_mm": -0.5,
            "grid_y_max_mm": 0.5,
            "grid_z_min_mm": 0.0,
            "grid_z_max_mm": 0.0,
            "grid_nx": 401,
            "grid_ny": 401,
            "grid_nz": 1,
        },
        "imaging": {
            "temperature_uk": 20,
            "atom_number": 1e5,
            "pixel_um": PIXEL_UM,
            "n_diameters": 8,
            "noise_frac": 0.0,
        },
    }
    for section, values in (extra or {}).items():
        sections.setdefault(section, {}).update(values)
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def _report(path: Path) -> dict:
    """``key: value`` lines of a text report; indented table rows are skipped."""
    out = {}
    for line in path.read_text().splitlines():
        if ":" in line and not line.startswith(" "):
            key, _, value = line.partition(":")
            out[key.strip()] = value.strip()
    return out


def _close(value: float, target: float, rtol: float) -> bool:
    return abs(value - target) <= rtol * abs(target)


def _check_map(outdir: Path) -> list:
    summary = json.loads((outdir / "summary.json").read_text())
    x, y, _ = summary["min_position_m"]
    r0 = summary["resonance_radius_m"]
    spacing = max(summary["spacing_m"][:2])
    off = abs(math.hypot(x, y) - r0)
    if off > spacing:
        return [f"grid minimum {off:.3e} m off the resonance circle (spacing {spacing:.3e} m)"]
    return []


def _check_analyze(expected: str, want_frequencies: bool):
    def check(outdir: Path) -> list:
        rep = _report(outdir / "analysis.txt")
        problems = []
        if rep["geometry"] != expected:
            problems.append(f"geometry {rep['geometry']}, expected {expected}")
        ring = float(rep["ring_radius_um"])
        r0 = float(rep["resonance_radius_um"])
        if not _close(ring, r0, RADIUS_RTOL):
            problems.append(f"ring radius {ring} um vs resonance radius {r0} um")
        if want_frequencies:
            ratio = rep["omega_z_over_omega_rho"]
            if ratio == "unavailable" or not float(ratio) > 1.0:
                problems.append(f"omega_z_over_omega_rho = {ratio}, expected > 1")
        return problems

    return check


def _check_sweep(outdir: Path) -> list:
    with open(outdir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != SWEEP_COUNT:
        problems.append(f"{len(rows)} sweep rows, expected {SWEEP_COUNT}")
    for row in rows:
        f = row["freq_MHz"]
        if row["error"]:
            problems.append(f"{f} MHz: error {row['error']}")
            continue
        if row["geometry"] != "symmetric-ring":
            problems.append(f"{f} MHz: geometry {row['geometry']}")
        r_num, r_res = float(row["r_numeric_um"]), float(row["r_resonance_um"])
        if not _close(r_num, r_res, RADIUS_RTOL):
            problems.append(f"{f} MHz: r_numeric {r_num} um vs r_resonance {r_res} um")
    return problems


def _check_image(outdir: Path) -> list:
    rep = _report(outdir / "radius.txt")
    radius = float(rep["radius_um"])
    r0 = float(rep["resonance_radius_um"])
    if abs(radius - r0) > IMAGE_RADIUS_PIXELS * PIXEL_UM:
        return [f"image radius {radius} um vs resonance radius {r0} um"]
    return []


def build(name: str, seed: int, config_dir: Path) -> list:
    """Write the workload's INI files into ``config_dir``; return its calls."""
    rng = random.Random(seed)
    jit = Jitter.draw(rng)
    config_dir.mkdir(parents=True, exist_ok=True)

    def call(label, command, check, jit=jit, **ini_args):
        path = config_dir / f"{label}.ini"
        path.write_text(_ini(jit, **ini_args))
        return Invocation(label=label, command=command, config=path, check=check)

    if name == "map":
        return [call("map", "potential", _check_map)]
    if name == "image":
        # The imaged box scales with the resonance radius; rescaling its
        # factors by the jitter keeps the 311 x 311 x 33 grid, and so the
        # work of a pass, the same on every seed.
        scale = BASE_FREQ_MHZ / jit.freq_mhz
        imaging = {
            "noise_frac": 0.02,
            "noise_seed": jit.noise_seed,
            "xy_halfwidth_factor": repr(1.8 * scale),
            "z_halfwidth_factor": repr(0.1 * scale),
        }
        return [call("image", "image", _check_image, extra={"imaging": imaging})]
    if name == "analyze":
        calls = []
        for k in range(ANALYZE_DRAWS):
            draw = jit if k == 0 else Jitter.draw(rng)
            calls += [
                call(f"double_well_{k}", "analyze",
                     _check_analyze("double-well", False), draw, by=0.0),
                call(f"symmetric_ring_{k}", "analyze",
                     _check_analyze("symmetric-ring", False), draw),
                call(f"asymmetric_ring_{k}", "analyze",
                     _check_analyze("asymmetric-ring", False), draw, by=0.0, bz=1.0),
                # gravity tilts the valley: an asymmetric ring with a
                # stationary minimum, the only config that reaches the Newton
                # polish and the trap frequencies
                call(f"gravity_{k}", "analyze",
                     _check_analyze("asymmetric-ring", True), draw, gravity=True),
            ]
        return calls
    if name == "sweep":
        sweep = {
            "freq_mhz_start": SWEEP_START_MHZ,
            "freq_mhz_stop": SWEEP_STOP_MHZ,
            "freq_mhz_count": SWEEP_COUNT,
        }
        return [call("sweep", "sweep", _check_sweep,
                     extra={"analysis": {"n_phi": SWEEP_N_PHI}, "sweep": sweep})]
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
