"""Run configuration: strict INI parsing with unit-suffixed keys.

The config vocabulary follows the lab conventions (gauss, G/cm, MHz,
degrees, micrometers, microkelvin); values become SI when the config loads.
:func:`load_config` builds every object a run needs in one pass: the trap,
the classifier tolerances, the rho window, the analysis grid, the image box,
the sweep inputs and the output formats. Building is validating: unknown
sections or keys, malformed values, cross-field conflicts and any input a
builder rejects all raise :class:`ConfigError` before any computation starts.
Every run writes back a resolved echo of the full configuration with defaults
materialised.

The INI reader is a strict line reader. Leading whitespace is ignored; a
blank line is skipped, and so is a line whose first non-blank character is
``#`` or ``;``; a ``#`` or ``;`` after whitespace starts a comment to the end
of the line. A header line is exactly ``[name]``; any other line is
``key = value`` or ``key: value``, split at the first delimiter. A line with
no delimiter, a key before the first header, and a section or key repeated
in any case are syntax errors that name the line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .constants import GAUSS, GAUSS_PER_CM, MHZ, SPECIES_PRESETS, AtomSpecies
from .dressed import resonance_radius
from .errors import ConfigError
from .fields import QuadrupoleConfig, RfConfig, TrapConfig
from .grids import MAX_GRID_NODES, check_node_limit
from .limits import (
    MAX_PROFILE_AZIMUTHS,
    MIN_CLASSIFY_AZIMUTHS,
    ClassifierTolerances,
    check_frequencies,
    check_rho_factors,
)


def _positive(v):
    return v > 0


def _non_negative(v):
    return v >= 0


#: most frequencies a range sweep may have: the list is built when the config
#: loads, for every subcommand
MAX_SWEEP_FREQUENCIES = 10_000


class _Key(NamedTuple):
    type: type
    default: object
    check: object = None


_SCHEMA = {
    "atom": {
        "species": _Key(str, "Rb87"),
        "mass_kg": _Key(float, None, _positive),
        "g_f": _Key(float, None),
        "m_f": _Key(int, None),
    },
    "quadrupole": {
        "gradient_g_per_cm": _Key(float, 100.0, _positive),
    },
    "rf": {
        "bx_g": _Key(float, 0.7, _non_negative),
        "by_g": _Key(float, 0.0, _non_negative),
        "bz_g": _Key(float, 0.0, _non_negative),
        "alpha_deg": _Key(float, 0.0),
        "beta_deg": _Key(float, 0.0),
        "freq_mhz": _Key(float, 1.5, _positive),
    },
    "gravity": {
        "enabled": _Key(bool, True),
    },
    "analysis": {
        "n_phi": _Key(int, 64, lambda v: MIN_CLASSIFY_AZIMUTHS <= v <= MAX_PROFILE_AZIMUTHS),
        "rho_min_factor": _Key(float, 0.2, _positive),
        "rho_max_factor": _Key(float, 3.0, _positive),
        "z_band_factor": _Key(float, 0.0, _non_negative),
        "flat_tol": _Key(float, 1e-3, _positive),
        "depth_match_tol": _Key(float, 1e-2, _positive),
        "closure_tol": _Key(float, 0.05, _positive),
        "grid_x_min_mm": _Key(float, -0.5),
        "grid_x_max_mm": _Key(float, 0.5),
        "grid_y_min_mm": _Key(float, -0.5),
        "grid_y_max_mm": _Key(float, 0.5),
        "grid_z_min_mm": _Key(float, 0.0),
        "grid_z_max_mm": _Key(float, 0.0),
        "grid_nx": _Key(int, 201, _positive),
        "grid_ny": _Key(int, 201, _positive),
        "grid_nz": _Key(int, 1, _positive),
    },
    "imaging": {
        "temperature_uk": _Key(float, 20.0, _positive),
        "atom_number": _Key(float, 1e5, _non_negative),
        "pixel_um": _Key(float, 2.5, _positive),
        "n_diameters": _Key(int, 8, lambda v: v >= 2),
        "xy_halfwidth_factor": _Key(float, 1.8, _positive),
        "z_halfwidth_factor": _Key(float, 0.1, _positive),
        "nz": _Key(int, 33, lambda v: v >= 2),
        "od_scale": _Key(float, 1.0, _positive),
        "noise_frac": _Key(float, 0.0, _non_negative),
        "noise_seed": _Key(int, 0, lambda v: 0 <= v < 2**64),  # the noise stream's key
    },
    "sweep": {
        "freq_mhz_start": _Key(float, 0.5, _positive),
        "freq_mhz_stop": _Key(float, 3.0, _positive),
        "freq_mhz_count": _Key(int, 11, lambda v: 1 <= v <= MAX_SWEEP_FREQUENCIES),
        "freq_mhz_list": _Key(str, ""),
        "amplitude_table": _Key(str, ""),
    },
    "output": {
        "directory": _Key(str, "out"),
        "formats": _Key(str, "bin"),
    },
}

_RANGE_KEYS = ("freq_mhz_start", "freq_mhz_stop", "freq_mhz_count")

#: the boolean words, read in any case
_BOOLEANS = {
    "1": True, "yes": True, "true": True, "on": True,
    "0": False, "no": False, "false": False, "off": False,
}


def _check_in(section: str, check, value) -> None:
    """Run a library input check; its ValueError is a ConfigError of ``section``."""
    try:
        check(value)
    except ValueError as err:
        raise ConfigError(f"[{section}] {err}") from None


def _parse_value(section: str, key: str, raw: str, spec: _Key):
    raw = raw.strip()
    where = f"[{section}] {key}"
    if not raw and spec.default is None:
        return None  # unset: the echo writes an unset key as an empty value
    if spec.type is bool:
        try:
            return _BOOLEANS[raw.lower()]
        except KeyError:
            raise ConfigError(f"{where}: expected a boolean, got {raw!r}") from None
    if spec.type is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None
    if spec.type is float:
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
        if not math.isfinite(val):
            raise ConfigError(f"{where}: value must be finite")
        return val
    # the echo must read back as written: no line breaks or other control
    # characters, and no comment markers
    if not raw.isprintable() or "#" in raw or ";" in raw:
        raise ConfigError(
            f"{where}: text may not hold '#', ';' or control characters, got {raw!r}"
        )
    return raw


def _assign(values: dict, provided: set, section: str, key: str, raw: str) -> None:
    val = _parse_value(section, key, raw, _SCHEMA[section][key])
    values[section][key] = val
    if val is None:
        provided.discard((section, key))
    else:
        provided.add((section, key))


def _atom(values: dict, provided: set) -> AtomSpecies:
    atom = values["atom"]
    name = atom["species"]
    keys = ("mass_kg", "g_f", "m_f")
    if name.lower() == "custom":
        missing = [k for k in keys if atom[k] is None]
        if missing:
            raise ConfigError(f"[atom] species=custom requires keys: {', '.join(missing)}")
        try:
            return AtomSpecies(
                mass=atom["mass_kg"], g_F=atom["g_f"], m_F=atom["m_f"], label="custom"
            )
        except ValueError as err:
            raise ConfigError(f"[atom] {err}") from None
    explicit = [k for k in keys if ("atom", k) in provided]
    if explicit:
        raise ConfigError(
            f"[atom] keys {', '.join(explicit)} conflict with species="
            f"{name}; use species=custom for explicit atomic constants"
        )
    try:
        return SPECIES_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(set(SPECIES_PRESETS)))
        raise ConfigError(
            f"[atom] unknown species {name!r}; known presets: {known}, or custom"
        ) from None


def _trap(values: dict, provided: set) -> TrapConfig:
    rf = values["rf"]
    try:
        rf_config = RfConfig(
            b_x=rf["bx_g"] * GAUSS,
            b_y=rf["by_g"] * GAUSS,
            b_z=rf["bz_g"] * GAUSS,
            alpha=math.radians(rf["alpha_deg"]),
            beta=math.radians(rf["beta_deg"]),
            omega=rf["freq_mhz"] * MHZ,
        )
        gradient = values["quadrupole"]["gradient_g_per_cm"] * GAUSS_PER_CM
        return TrapConfig(
            atom=_atom(values, provided),
            quad=QuadrupoleConfig(gradient=gradient),
            rf=rf_config,
            gravity_on=values["gravity"]["enabled"],
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _analysis_grid(analysis: dict) -> tuple:
    """(region [m], dims) of the ``potential`` grid."""
    region = []
    for ax in "xyz":
        lo = analysis[f"grid_{ax}_min_mm"] * 1e-3
        hi = analysis[f"grid_{ax}_max_mm"] * 1e-3
        if hi < lo:
            raise ConfigError(f"[analysis] grid_{ax} range is inverted")
        region.append((lo, hi))
    dims = tuple(analysis[f"grid_n{ax}"] for ax in "xyz")
    for ax, (lo, hi), n in zip("xyz", region, dims):
        if n > 1 and not hi > lo:
            raise ConfigError(f"[analysis] grid_n{ax}={n} needs a non-empty grid_{ax} range")
    _check_in("analysis", check_node_limit, dims)
    return tuple(region), dims


def _image_grid(imaging: dict, r0: float) -> tuple:
    """(region [m], dims) of the imaged box around a ring of resonance radius
    ``r0``: square pixels, centred on the axis, with the in-plane half-width
    rounded up to whole pixels."""
    pixel = imaging["pixel_um"] * 1e-6
    half_z = imaging["z_halfwidth_factor"] * r0
    half = imaging["xy_halfwidth_factor"] * r0 / pixel
    # capped, so an infinite half-width still fails the node limit below
    n_half = math.ceil(min(half, MAX_GRID_NODES))
    extent = n_half * pixel
    dims = (2 * n_half + 1, 2 * n_half + 1, imaging["nz"])
    _check_in("imaging", check_node_limit, dims)
    return ((-extent, extent), (-extent, extent), (-half_z, half_z)), dims


def _sweep_freqs(sweep: dict, provided: set) -> tuple:
    """The sweep frequencies [MHz]: the list, or the range."""
    listed = sweep["freq_mhz_list"].strip()
    range_given = [k for k in _RANGE_KEYS if ("sweep", k) in provided]
    if listed and range_given:
        raise ConfigError("[sweep] freq_mhz_list conflicts with " + ", ".join(range_given))
    if listed:
        try:
            return tuple(float(tok) for tok in listed.split(",") if tok.strip())
        except ValueError:
            raise ConfigError("[sweep] freq_mhz_list must be comma-separated numbers") from None
    start, stop, count = (sweep[k] for k in _RANGE_KEYS)
    if count == 1:
        return (start,)
    step = (stop - start) / (count - 1)
    return tuple(start + k * step for k in range(count))


def _amplitude_table(sweep: dict, config_path: Path, freqs_mhz: tuple, trap: TrapConfig):
    """Per-frequency (bx, by, bz) rf amplitudes [T] from the optional
    ``amplitude_table`` (rows ``freq_MHz,bx_G,by_G,bz_G``, one per sweep
    frequency, in order; a relative path is taken from the config file's
    directory), or None when no table is configured. Each row must make a
    trap that ``TrapConfig`` accepts with the amplitudes of ``trap``
    replaced."""
    path_str = sweep["amplitude_table"].strip()
    if not path_str:
        return None
    # an absolute path_str replaces the directory
    path = config_path.resolve().parent / path_str
    if not path.exists():
        raise ConfigError(f"[sweep] amplitude_table not found: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as err:
        raise ConfigError(f"[sweep] amplitude_table is not text: {err}") from None
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("freq"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ConfigError(
                f"[sweep] amplitude_table line {ln}: expected freq_MHz,bx_G,by_G,bz_G"
            )
        try:
            row = tuple(float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"[sweep] amplitude_table line {ln}: non-numeric value") from None
        # the same limits as the [rf] keys: finite, amplitudes >= 0
        if not all(math.isfinite(v) for v in row) or min(row[1:]) < 0:
            raise ConfigError(
                f"[sweep] amplitude_table line {ln}: values must be finite "
                "and rf amplitudes non-negative"
            )
        rows.append(row)
    if len(rows) != len(freqs_mhz):
        raise ConfigError(
            f"[sweep] amplitude_table has {len(rows)} rows for {len(freqs_mhz)} "
            "sweep frequencies"
        )
    for (f_mhz, *_), f_want in zip(rows, freqs_mhz):
        if abs(f_mhz - f_want) > 1e-9 * max(abs(f_want), 1.0):
            raise ConfigError(
                f"[sweep] amplitude_table frequency {f_mhz} MHz does not "
                f"match sweep frequency {f_want} MHz"
            )
    amplitudes = [tuple(b * GAUSS for b in row[1:]) for row in rows]
    for bx, by, bz in amplitudes:
        _check_in("sweep", lambda b: trap.with_rf(b_x=b[0], b_y=b[1], b_z=b[2]), (bx, by, bz))
    return amplitudes


def _check_resonance_radius(where: str, r0: float) -> None:
    """Raise ConfigError unless the resonance radius ``r0`` [m] that
    ``where`` gives is positive and finite: a dressing frequency whose
    radius rounds to 0 m, or overflows, makes no ring."""
    if not 0 < r0 < math.inf:
        raise ConfigError(
            f"{where} gives a resonance radius of {float(r0)!r} m at this "
            "gradient; it must be positive and finite"
        )


def _formats(output: dict) -> tuple:
    """The ``[output] formats`` tokens, ``csv`` and/or ``bin``."""
    toks = tuple(t.strip() for t in output["formats"].split(",") if t.strip())
    bad = [t for t in toks if t not in ("csv", "bin")]
    if bad:
        raise ConfigError(f"[output] unknown formats: {', '.join(bad)}")
    if not toks:
        raise ConfigError("[output] formats must include csv and/or bin")
    return toks


def render_value(value) -> str:
    """How a config or report value prints: booleans as ``true``/``false``,
    floats as their ``repr`` (which round-trips), anything else as ``str``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration: the values, with all defaults
    materialised, and every object a subcommand runs on, built from them
    once, in SI, by :func:`load_config`."""

    values: dict
    formats: tuple  # the bulk file formats, "csv" and/or "bin"
    grid_region: tuple  # (lo, hi) per axis [m] of the `potential` grid
    grid_dims: tuple
    rho_factors: tuple
    tolerances: ClassifierTolerances
    trap: TrapConfig
    image_region: tuple  # the imaged box [m]
    image_dims: tuple
    sweep_freqs_mhz: tuple
    sweep_omegas: np.ndarray  # the same frequencies [rad/s], read-only
    sweep_amplitudes: list | None  # per-frequency (bx, by, bz) [T], or None

    def get(self, section: str, key: str):
        return self.values[section][key]

    def resolved_ini(self) -> str:
        """Render the full configuration, defaults included, as INI text.

        A ``freq_mhz_list`` sweep leaves out the range keys it does not use,
        so the echo reloads as the same list sweep."""
        skipped = _RANGE_KEYS if self.get("sweep", "freq_mhz_list").strip() else ()
        lines = []
        for section in _SCHEMA:
            lines.append(f"[{section}]")
            for key in _SCHEMA[section]:
                if section == "sweep" and key in skipped:
                    continue
                val = self.values[section][key]
                lines.append(f"{key} = {'' if val is None else render_value(val)}")
            lines.append("")
        return "\n".join(lines)


def _build(values: dict, provided: set, path: Path) -> RunConfig:
    """Check each value's range, then build every run object: a config is
    valid for every subcommand or fails the load, before any output is
    written."""
    for section, keys in _SCHEMA.items():
        for key, spec in keys.items():
            val = values[section][key]
            if val is None:
                continue
            if spec.check is not None and not spec.check(val):
                raise ConfigError(f"[{section}] {key}={val!r} is out of range")
    analysis, sweep = values["analysis"], values["sweep"]
    formats = _formats(values["output"])
    grid_region, grid_dims = _analysis_grid(analysis)
    rho_factors = (analysis["rho_min_factor"], analysis["rho_max_factor"])
    _check_in("analysis", check_rho_factors, rho_factors)
    trap = _trap(values, provided)
    r0 = resonance_radius(trap)
    _check_resonance_radius(f"[rf] freq_mhz={values['rf']['freq_mhz']!r}", r0)
    image_region, image_dims = _image_grid(values["imaging"], r0)
    freqs = _sweep_freqs(sweep, provided)
    omegas = np.array(freqs) * MHZ
    _check_in("sweep", check_frequencies, omegas)  # the sweep's own rule
    # the radius grows with the frequency: the extremes bound every row's
    for f_mhz in (min(freqs), max(freqs)):
        _check_resonance_radius(
            f"[sweep] frequency {f_mhz!r} MHz", resonance_radius(trap, f_mhz * MHZ)
        )
    omegas.setflags(write=False)
    return RunConfig(
        values=values,
        formats=formats,
        grid_region=grid_region,
        grid_dims=grid_dims,
        rho_factors=rho_factors,
        tolerances=ClassifierTolerances(
            rel_flat=analysis["flat_tol"],
            match_depth=analysis["depth_match_tol"],
            closure=analysis["closure_tol"],
        ),
        trap=trap,
        image_region=image_region,
        image_dims=image_dims,
        sweep_freqs_mhz=freqs,
        sweep_omegas=omegas,
        sweep_amplitudes=_amplitude_table(sweep, path, freqs, trap),
    )


def _blank_values() -> dict:
    return {
        section: {key: spec.default for key, spec in keys.items()}
        for section, keys in _SCHEMA.items()
    }


def parse_overrides(pairs) -> list:
    """Parse --set section.key=value strings into (section, key, raw) triples."""
    out = []
    for pair in pairs or ():
        head, sep, raw = pair.partition("=")
        if not sep:
            raise ConfigError(f"--set needs section.key=value, got {pair!r}")
        section, dot, key = head.strip().partition(".")
        if not dot or not section or not key:
            raise ConfigError(f"--set needs section.key=value, got {pair!r}")
        out.append((section.strip().lower(), key.strip().lower(), raw.strip()))
    return out


#: a comment: '#' or ';' at the start of a line or after whitespace
_COMMENT = re.compile(r"(?:^|\s)[#;]")
#: the first '=' or ':' of a key line, with the whitespace around it
_DELIMITER = re.compile(r"\s*[=:]\s*")


def _syntax_error(line: int, message: str) -> ConfigError:
    return ConfigError(f"config syntax error: line {line}: {message}")


def _read_ini(path: Path):
    """Yield (section, key, raw value) for each key line of the INI file at
    ``path``, in file order, with the section and key lower-cased and checked
    against the schema. The syntax is the module docstring's."""
    try:
        text = path.read_text()
    except UnicodeDecodeError as err:
        raise _syntax_error(err.object.count(b"\n", 0, err.start) + 1, str(err)) from None
    first_seen = {}  # each lower-cased section and (section, key): its line
    section = None
    for ln, line in enumerate(text.split("\n"), start=1):
        if "#" in line or ";" in line:  # most lines hold neither
            line = _COMMENT.split(line, 1)[0]
        line = line.strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1]
            section = name.lower()
            if section in first_seen:
                raise _syntax_error(ln, f"[{name}] repeats the section of line "
                                        f"{first_seen[section]}")
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{name}]")
            first_seen[section] = ln
            continue
        parts = _DELIMITER.split(line, 1)
        if len(parts) == 1:
            raise _syntax_error(ln, f"expected [section] or key = value, got {line!r}")
        if section is None:
            raise _syntax_error(ln, "key before the first [section]")
        key = parts[0].lower()
        if (section, key) in first_seen:
            raise _syntax_error(ln, f"key {key!r} repeats line {first_seen[section, key]}")
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        first_seen[section, key] = ln
        yield section, key, parts[1]


def load_config(path, overrides=None) -> RunConfig:
    """Parse and validate a run configuration file.

    ``overrides`` are (section, key, raw-value) triples from ``--set``;
    they are applied on top of the file before validation.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = _blank_values()
    provided = set()
    for section, key, raw in _read_ini(path):
        _assign(values, provided, section, key, raw)
    for section, key, raw in parse_overrides(overrides) if overrides else []:
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"--set targets unknown key {section}.{key}")
        _assign(values, provided, section, key, raw)
    return _build(values, provided, path)
