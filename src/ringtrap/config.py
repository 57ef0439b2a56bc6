"""Run configuration: strict INI parsing with unit-suffixed keys.

The config vocabulary follows the lab conventions (gauss, G/cm, MHz,
degrees, micrometers, microkelvin); values are converted to SI exactly once,
when the trap/analysis objects are built. Parsing is strict: unknown
sections or keys, malformed values and cross-field conflicts all raise
:class:`ConfigError` before any computation starts. Every run writes back a
resolved echo of the full configuration with defaults materialised.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analysis import (
    MAX_PROFILE_AZIMUTHS,
    MIN_CLASSIFY_AZIMUTHS,
    ClassifierTolerances,
    check_frequencies,
    check_rho_factors,
    resonance_radius,
)
from .constants import SPECIES_PRESETS, AtomSpecies
from .errors import ConfigError
from .fields import QuadrupoleConfig, RfConfig, TrapConfig
from .grids import MAX_GRID_NODES, check_node_limit
from .units import convert_units


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
        "noise_seed": _Key(int, 0, _non_negative),
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
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{where}: expected a boolean, got {raw!r}")
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


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with all defaults materialised."""

    values: dict
    provided: frozenset  # (section, key) pairs the user set explicitly
    path: Path  # the config file; a relative amplitude_table is found beside it

    def get(self, section: str, key: str):
        return self.values[section][key]

    # -- builders -----------------------------------------------------------

    def atom(self) -> AtomSpecies:
        name = self.get("atom", "species")
        explicit = [
            k for k in ("mass_kg", "g_f", "m_f") if ("atom", k) in self.provided
        ]
        if name.lower() == "custom":
            missing = [k for k in ("mass_kg", "g_f", "m_f") if self.get("atom", k) is None]
            if missing:
                raise ConfigError(
                    f"[atom] species=custom requires keys: {', '.join(missing)}"
                )
            try:
                return AtomSpecies(
                    mass=self.get("atom", "mass_kg"),
                    g_F=self.get("atom", "g_f"),
                    m_F=self.get("atom", "m_f"),
                    label="custom",
                )
            except ValueError as err:
                raise ConfigError(f"[atom] {err}") from None
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

    def trap(self) -> TrapConfig:
        try:
            rf = RfConfig(
                b_x=convert_units(self.get("rf", "bx_g"), "G", "T"),
                b_y=convert_units(self.get("rf", "by_g"), "G", "T"),
                b_z=convert_units(self.get("rf", "bz_g"), "G", "T"),
                alpha=math.radians(self.get("rf", "alpha_deg")),
                beta=math.radians(self.get("rf", "beta_deg")),
                omega=convert_units(self.get("rf", "freq_mhz"), "MHz", "rad/s"),
            )
            quad = QuadrupoleConfig(
                gradient=convert_units(
                    self.get("quadrupole", "gradient_g_per_cm"), "G/cm", "T/m"
                )
            )
            return TrapConfig(
                atom=self.atom(),
                quad=quad,
                rf=rf,
                gravity_on=self.get("gravity", "enabled"),
            )
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def classifier_tolerances(self) -> ClassifierTolerances:
        return ClassifierTolerances(
            rel_flat=self.get("analysis", "flat_tol"),
            match_depth=self.get("analysis", "depth_match_tol"),
            closure=self.get("analysis", "closure_tol"),
        )

    def rho_factors(self) -> tuple:
        factors = (self.get("analysis", "rho_min_factor"),
                   self.get("analysis", "rho_max_factor"))
        _check_in("analysis", check_rho_factors, factors)
        return factors

    def grid_region(self):
        mm = 1e-3
        reg = []
        for ax in ("x", "y", "z"):
            lo = self.get("analysis", f"grid_{ax}_min_mm") * mm
            hi = self.get("analysis", f"grid_{ax}_max_mm") * mm
            if hi < lo:
                raise ConfigError(f"[analysis] grid_{ax} range is inverted")
            reg.append((lo, hi))
        return tuple(reg)

    def grid_dims(self):
        dims = tuple(self.get("analysis", f"grid_n{ax}") for ax in ("x", "y", "z"))
        for ax, (lo, hi), n in zip("xyz", self.grid_region(), dims):
            if n > 1 and not hi > lo:
                raise ConfigError(
                    f"[analysis] grid_n{ax}={n} needs a non-empty grid_{ax} range"
                )
        _check_in("analysis", check_node_limit, dims)
        return dims

    def image_grid(self, r0: float):
        """(region, dims) of the imaged box around a ring of resonance radius
        ``r0``: square pixels, centred on the axis, with the in-plane
        half-width rounded up to whole pixels.
        """
        pixel = self.get("imaging", "pixel_um") * 1e-6
        half_z = self.get("imaging", "z_halfwidth_factor") * r0
        half = self.get("imaging", "xy_halfwidth_factor") * r0 / pixel
        # capped, so an infinite half-width still fails the node limit below
        n_half = math.ceil(min(half, MAX_GRID_NODES))
        extent = n_half * pixel
        dims = (2 * n_half + 1, 2 * n_half + 1, self.get("imaging", "nz"))
        _check_in("imaging", check_node_limit, dims)
        return ((-extent, extent), (-extent, extent), (-half_z, half_z)), dims

    @functools.cached_property
    def sweep_inputs(self) -> tuple:
        """The sweep frequencies [MHz] (a tuple), the same as dressing
        frequencies [rad/s] (a read-only array) and the per-frequency
        (bx, by, bz) amplitudes [T] of ``sweep_amplitudes_t`` (a list, or
        None). Each is read, converted and checked once per config: by the
        load."""
        listed = self.get("sweep", "freq_mhz_list").strip()
        range_given = [k for k in _RANGE_KEYS if ("sweep", k) in self.provided]
        if listed and range_given:
            raise ConfigError(
                "[sweep] freq_mhz_list conflicts with "
                + ", ".join(range_given)
            )
        if listed:
            try:
                freqs = [float(tok) for tok in listed.split(",") if tok.strip()]
            except ValueError:
                raise ConfigError("[sweep] freq_mhz_list must be comma-separated numbers") from None
        else:
            start = self.get("sweep", "freq_mhz_start")
            stop = self.get("sweep", "freq_mhz_stop")
            count = self.get("sweep", "freq_mhz_count")
            if count == 1:
                freqs = [start]
            else:
                step = (stop - start) / (count - 1)
                freqs = [start + k * step for k in range(count)]
        # an array scales each value as convert_units scales one
        omegas = convert_units(np.array(freqs), "MHz", "rad/s")
        _check_in("sweep", check_frequencies, omegas)  # the sweep's own rule
        omegas.setflags(write=False)
        return tuple(freqs), omegas, self.sweep_amplitudes_t(freqs)

    def sweep_amplitudes_t(self, freqs_mhz):
        """Per-frequency (bx, by, bz) rf amplitudes in tesla from the optional
        ``amplitude_table`` (rows ``freq_MHz,bx_G,by_G,bz_G``, one per sweep
        frequency, in order; a relative path is taken from the config file's
        directory), or None when no table is configured."""
        path_str = self.get("sweep", "amplitude_table").strip()
        if not path_str:
            return None
        # an absolute path_str replaces the directory
        path = self.path.resolve().parent / path_str
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
                    f"[sweep] amplitude_table line {ln}: expected "
                    f"freq_MHz,bx_G,by_G,bz_G"
                )
            try:
                row = tuple(float(p) for p in parts)
            except ValueError:
                raise ConfigError(
                    f"[sweep] amplitude_table line {ln}: non-numeric value"
                ) from None
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
        return [tuple(convert_units(b, "G", "T") for b in row[1:]) for row in rows]

    def output_formats(self) -> list:
        """The ``[output] formats`` tokens, ``csv`` and/or ``bin``."""
        toks = [t.strip() for t in self.get("output", "formats").split(",") if t.strip()]
        bad = [t for t in toks if t not in ("csv", "bin")]
        if bad:
            raise ConfigError(f"[output] unknown formats: {', '.join(bad)}")
        if not toks:
            raise ConfigError("[output] formats must include csv and/or bin")
        return toks

    # -- echo ---------------------------------------------------------------

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
                if val is None:
                    rendered = ""
                elif isinstance(val, bool):
                    rendered = "true" if val else "false"
                elif isinstance(val, float):
                    rendered = repr(val)
                else:
                    rendered = str(val)
                lines.append(f"{key} = {rendered}")
            lines.append("")
        return "\n".join(lines)


def _validated(values: dict, provided: set, path: Path) -> RunConfig:
    for section, keys in _SCHEMA.items():
        for key, spec in keys.items():
            val = values[section][key]
            if val is None:
                continue
            if spec.check is not None and not spec.check(val):
                raise ConfigError(f"[{section}] {key}={val!r} is out of range")
    rc = RunConfig(values=values, provided=frozenset(provided), path=path)
    # every builder runs here, so a config is valid for every subcommand or
    # fails the load, before any output is written
    rc.output_formats()
    rc.grid_dims()
    rc.rho_factors()
    rc.image_grid(resonance_radius(rc.trap()))
    rc.sweep_inputs
    return rc


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


def load_config(path, overrides=None) -> RunConfig:
    """Parse and validate a run configuration file.

    ``overrides`` are (section, key, raw-value) triples from ``--set``;
    they are applied on top of the file before validation.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    # no header can name the empty section, so a [DEFAULT] section is read
    # as the unknown section it is, not merged into every other one
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section=""
    )
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"config syntax error: {err}") from None

    values = _blank_values()
    provided = set()
    for section in parser.sections():
        sec = section.lower()
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            k = key.lower()
            if k not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            _assign(values, provided, sec, k, raw)
    for section, key, raw in parse_overrides(overrides) if overrides else []:
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"--set targets unknown key {section}.{key}")
        _assign(values, provided, section, key, raw)
    return _validated(values, provided, path)
