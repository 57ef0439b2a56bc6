import math
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import ringtrap.config
from conftest import configparser_read_ini
from ringtrap.config import _SCHEMA, load_config
from ringtrap.errors import ConfigError

MINIMAL = """
[rf]
bx_g = 0.7
by_g = 0.7
alpha_deg = -90
freq_mhz = 1.5
"""


def write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_config_builds_trap(tmp_path):
    rc = load_config(write(tmp_path, MINIMAL))
    cfg = rc.trap
    assert cfg.rf.b_x == pytest.approx(0.7e-4, rel=1e-14)
    assert cfg.rf.alpha == pytest.approx(-math.pi / 2, rel=1e-14)
    assert cfg.rf.omega == pytest.approx(2 * math.pi * 1.5e6, rel=1e-14)
    assert cfg.quad.gradient == pytest.approx(1.0, rel=1e-14)  # default 100 G/cm
    assert cfg.gravity_on is True  # physical default
    assert cfg.atom.label.startswith("87Rb")


def test_defaults_materialised_in_echo(tmp_path):
    rc = load_config(write(tmp_path, MINIMAL))
    echo = rc.resolved_ini()
    assert "[imaging]" in echo
    assert "temperature_uk = 20.0" in echo
    assert "n_phi = 64" in echo
    assert "gradient_g_per_cm = 100.0" in echo


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(write(tmp_path, MINIMAL + "\n[antenna]\nturns = 10\n"))


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nn_phi = 128\n",  # loaded silently, with n_phi = 64
    "[DEFAULT]\nfoo = 1\n[gravity]\nenabled = false\n",  # blamed on [gravity]
    "[DEFAULT]\n" + MINIMAL,
])
def test_default_section_rejected(tmp_path, text):
    # [DEFAULT] is no section of the schema: INI readers such as
    # configparser merge it into every other section, this one does not
    with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
        load_config(write(tmp_path, text))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, MINIMAL + "\n[gravity]\nstrength = 2\n"))


def test_unit_suffix_mismatch_is_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, "[rf]\nbx_mT = 0.07\n"))


def test_bad_number_diagnostic_names_field(tmp_path):
    with pytest.raises(ConfigError, match=r"\[rf\] freq_mhz"):
        load_config(write(tmp_path, "[rf]\nfreq_mhz = fast\n"))


def test_out_of_range_rejected(tmp_path):
    with pytest.raises(ConfigError, match="out of range"):
        load_config(write(tmp_path, "[rf]\nfreq_mhz = -2\n"))
    with pytest.raises(ConfigError, match="out of range"):
        load_config(write(tmp_path, "[imaging]\npixel_um = 0\n"))


def test_noise_seed_is_a_uint64(tmp_path):
    # the seed keys the image noise's uint64 stream: 2**64 - 1 loads, and
    # 2**64 is rejected at load with the key named
    top = load_config(write(tmp_path, MINIMAL), overrides=[f"imaging.noise_seed={2**64 - 1}"])
    assert top.get("imaging", "noise_seed") == 2**64 - 1
    for seed in (2**64, -1):
        with pytest.raises(ConfigError, match=rf"\[imaging\] noise_seed={seed} is out of range"):
            load_config(write(tmp_path, MINIMAL), overrides=[f"imaging.noise_seed={seed}"])


def test_syntax_error_reports_line(tmp_path):
    with pytest.raises(ConfigError, match=r"^config syntax error: line 1: [^\n]*$"):
        load_config(write(tmp_path, "[rf\nbx_g = 0.7\n"))


@pytest.mark.parametrize("text, message", [
    # configparser merged a section repeated in another case: bx_g = 0.9
    ("[RF]\nbx_g = 0.3\n[rf]\nbx_g = 0.9\n", r"line 3: \[rf\] repeats the section of line 1"),
    ("[rf]\nbx_g = 0.3\n[gravity]\n[rf]\n", r"line 4: \[rf\] repeats the section of line 1"),
    ("[rf]\nbx_g = 0.3\n\n  BX_G: 0.9\n", r"line 4: key 'bx_g' repeats line 2"),
    ("# comment\nbx_g = 0.7\n[rf]\n", r"line 2: key before the first \[section\]"),
    ("[rf] x\nbx_g = 0.7\n", r"line 1: expected \[section\] or key = value, got '\[rf\] x'"),
    ("[rf]\nbx_g 0.7 # no delimiter\n", r"line 2: expected \[section\] or key = value"),
    (b"[rf]\nbx_g = 0.7\n\n\xff = 1\n", "line 4: 'utf-8' codec can't decode byte 0xff"),
], ids=["section-in-another-case", "section", "key-in-another-case", "key-before-section",
        "header-with-trailing-text", "no-delimiter", "not-utf8"])
def test_syntax_errors_name_their_line(tmp_path, text, message):
    path = tmp_path / "run.ini"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ConfigError, match=r"^config syntax error: " + message):
        load_config(path)


def test_the_syntax_the_reader_accepts(tmp_path):
    text = (
        "  ; a comment\n"
        "\t# an indented comment\n"
        "  [RF]  # a header's comment\n"
        "\tBx_G: 0.5 ; a key's comment\r\n"
        "    by_g=0.6\n"
        "\n"
        "[gravity]\n"
        "enabled = off\n"
    )
    rc = load_config(write(tmp_path, text))
    assert (rc.get("rf", "bx_g"), rc.get("rf", "by_g"), rc.trap.gravity_on) == (0.5, 0.6, False)
    # a '#' or ';' that follows no whitespace is part of the value
    with pytest.raises(ConfigError, match=r"\[rf\] freq_mhz: expected a number, got '1.5#2'"):
        load_config(write(tmp_path, "[rf]\nfreq_mhz = 1.5#2\n"))


def test_overrides_applied_and_typed(tmp_path):
    rc = load_config(write(tmp_path, MINIMAL), overrides=["rf.freq_mhz=2.5", "gravity.enabled=false"])
    assert rc.trap.rf.omega == pytest.approx(2 * math.pi * 2.5e6, rel=1e-14)
    assert rc.trap.gravity_on is False


@pytest.mark.parametrize("word, value", [
    ("1", True), ("yes", True), ("true", True), ("on", True),
    ("0", False), ("no", False), ("false", False), ("off", False),
])
@pytest.mark.parametrize("case", [str.upper, str.title])
def test_boolean_words_in_any_case(tmp_path, word, value, case):
    text = MINIMAL + f"[gravity]\nenabled = {case(word)}\n"
    assert load_config(write(tmp_path, text)).trap.gravity_on is value


@pytest.mark.parametrize("raw", ["maybe", "2", ""])
def test_non_boolean_rejected(tmp_path, raw):
    with pytest.raises(ConfigError, match=r"\[gravity\] enabled: expected a boolean"):
        load_config(write(tmp_path, MINIMAL + f"[gravity]\nenabled = {raw}\n"))
    with pytest.raises(ConfigError, match=r"\[gravity\] enabled: expected a boolean"):
        load_config(write(tmp_path, MINIMAL), overrides=[f"gravity.enabled={raw}"])


def test_override_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path, MINIMAL), overrides=["rf.power_w=3"])
    with pytest.raises(ConfigError, match="--set"):
        load_config(write(tmp_path, MINIMAL), overrides=["rf.freq_mhz"])


def test_species_custom_requires_constants(tmp_path):
    with pytest.raises(ConfigError, match="species=custom requires"):
        load_config(write(tmp_path, "[atom]\nspecies = custom\n"))
    rc = load_config(
        write(tmp_path, "[atom]\nspecies = custom\nmass_kg = 1.44316e-25\ng_f = 0.5\nm_f = 1\n")
    )
    assert rc.trap.atom.m_F == 1


def test_species_preset_conflicts_with_explicit(tmp_path):
    with pytest.raises(ConfigError, match="conflict"):
        load_config(write(tmp_path, "[atom]\nspecies = Rb87\nm_f = 1\n"))


def test_unknown_species_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown species"):
        load_config(write(tmp_path, "[atom]\nspecies = unobtainium\n"))


def test_unit_round_trip_fidelity(tmp_path):
    # config gauss -> tesla -> gauss identity to 1e-12 (criterion: unit fidelity)
    rc = load_config(write(tmp_path, "[rf]\nbx_g = 0.6283185307179586\n"))
    b_t = rc.trap.rf.b_x
    assert b_t * 1e4 == pytest.approx(0.6283185307179586, rel=1e-12)


def test_sweep_frequency_list_and_range(tmp_path):
    rc = load_config(write(tmp_path, MINIMAL))
    freqs = rc.sweep_freqs_mhz
    assert freqs[0] == 0.5 and freqs[-1] == 3.0 and len(freqs) == 11
    rc2 = load_config(write(tmp_path, MINIMAL + "\n[sweep]\nfreq_mhz_list = 1.0, 2.0\n"))
    assert rc2.sweep_freqs_mhz == (1.0, 2.0)
    with pytest.raises(ConfigError, match="conflict"):
        load_config(
            write(tmp_path, MINIMAL + "\n[sweep]\nfreq_mhz_list = 1.0\nfreq_mhz_start = 0.5\n")
        )


def test_amplitude_table_loaded_and_validated(tmp_path):
    table = tmp_path / "amps.csv"
    table.write_text("freq_MHz,bx_G,by_G,bz_G\n1.0,0.7,0.7,0\n2.0,0,0,0\n")

    def sweep(freqs):
        text = f"\n[sweep]\nfreq_mhz_list = {freqs}\namplitude_table = amps.csv\n"
        return load_config(write(tmp_path, MINIMAL + text))

    assert sweep("1.0, 2.0").sweep_amplitudes == [(0.7e-4, 0.7e-4, 0.0), (0.0, 0.0, 0.0)]
    with pytest.raises(ConfigError, match="2 rows for 3 sweep frequencies"):
        sweep("1.0, 2.0, 3.0")
    with pytest.raises(ConfigError, match="2.0 MHz does not match sweep frequency 2.5 MHz"):
        sweep("1.0, 2.5")
    assert load_config(write(tmp_path, MINIMAL)).sweep_amplitudes is None


def test_resonance_radius_that_rounds_to_zero_fails_the_load(tmp_path):
    # hbar omega of 1e-320 MHz underflows: the trap's resonance radius is
    # 0 m, which makes no ring; the sweep's frequencies obey the same rule
    with pytest.raises(ConfigError, match=r"\[rf\] freq_mhz=1e-320 gives a resonance radius of 0.0 m"):
        load_config(write(tmp_path, MINIMAL), overrides=["rf.freq_mhz=1e-320"])
    with pytest.raises(ConfigError, match=r"\[sweep\] frequency 1e-320 MHz"):
        load_config(write(tmp_path, MINIMAL), overrides=["sweep.freq_mhz_list=1e-320, 1.0"])


def test_rf_amplitudes_whose_coupling_overflows_fail_the_load(tmp_path):
    # C B of 1e308 G is 4.4e314 rad/s: the coupling overflows to inf; the
    # largest amplitudes that pass keep 16 times the sum of the squares finite
    with pytest.raises(ConfigError, match="too large"):
        load_config(write(tmp_path, MINIMAL), overrides=["rf.bx_g=1e308", "rf.by_g=1e308"])
    with pytest.raises(ConfigError, match="too large"):
        load_config(write(tmp_path, MINIMAL), overrides=["rf.bz_g=1e150"])
    trap = load_config(write(tmp_path, MINIMAL), overrides=["rf.bz_g=1e140"]).trap
    assert all(math.isfinite(p) for p in trap.coupling_parts)
    table = tmp_path / "amps.csv"
    table.write_text("freq_MHz,bx_G,by_G,bz_G\n1.0,0.7,0.7,0\n2.0,1e308,0,0\n")
    text = "\n[sweep]\nfreq_mhz_list = 1.0, 2.0\namplitude_table = amps.csv\n"
    with pytest.raises(ConfigError, match=r"\[sweep\] rf amplitudes .* too large"):
        load_config(write(tmp_path, MINIMAL + text))


def test_echo_deterministic(tmp_path):
    p = write(tmp_path, MINIMAL)
    assert load_config(p).resolved_ini() == load_config(p).resolved_ini()


def test_empty_atom_constant_reads_as_unset(tmp_path):
    rc = load_config(write(tmp_path, MINIMAL + "\n[atom]\nmass_kg =\ng_f =\n"),
                     overrides=["atom.m_f="])
    assert rc.get("atom", "mass_kg") is None
    assert rc.trap.atom.label.startswith("87Rb")  # no conflict with the preset
    with pytest.raises(ConfigError, match="expected a number"):
        load_config(write(tmp_path, MINIMAL + "\n[quadrupole]\ngradient_g_per_cm =\n"))


@pytest.mark.parametrize("value", ["out #1", "a;b", "tab\there"])
def test_text_the_echo_cannot_write_back_is_rejected(tmp_path, value):
    with pytest.raises(ConfigError, match=r"\[output\] directory"):
        load_config(write(tmp_path, MINIMAL), overrides=[f"output.directory={value}"])


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")


_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]
_TEXT = ["Rb87", "custom", "csv", "csv,bin", "1.0, 2.0", "out", ""]
# values every key accepts, and values of the right type in or out of range
_CLEAN = {
    bool: st.sampled_from(["true", "false", "yes", "off", "1", "0"]),
    int: st.integers(16, 10**6).map(str),
    float: st.floats(1e-3, 1e3).map(repr),
    str: st.sampled_from(_TEXT),
}
_TYPED = {
    bool: _CLEAN[bool],
    int: st.integers().map(str),
    float: st.floats().map(repr),  # nan and inf included
    str: _CLEAN[str],
}
# any text a file can hold: line breaks, comment markers, brackets, unicode
_GARBAGE = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


def _entries(clean):
    def entry(section_key):
        section, key = section_key
        kind = _SCHEMA[section][key].type
        value = _CLEAN[kind] if clean else st.one_of(_TYPED[kind], _GARBAGE)
        return st.tuples(st.just(section), st.just(key), value)

    return st.sampled_from(_KEYS).flatmap(entry)


def _ini_text(entries):
    sections = {}
    for section, key, value in entries:
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


def _run(clean):
    """(INI entries, --set pairs); garbage pairs only when not ``clean``."""
    pair = _entries(clean).map(lambda e: f"{e[0]}.{e[1]}={e[2]}")
    return st.tuples(
        st.lists(_entries(clean), max_size=8, unique_by=lambda e: e[:2]),
        st.lists(pair if clean else st.one_of(pair, _GARBAGE), max_size=4),
    )


@given(st.booleans().flatmap(_run))
def test_load_raises_only_config_error_and_echo_round_trips(tmp_path_factory, run):
    file_entries, overrides = run
    path = tmp_path_factory.getbasetemp() / "property.ini"
    path.write_text(_ini_text(file_entries), encoding="utf-8")
    try:
        rc = load_config(path, overrides=overrides)
    except ConfigError:
        return
    echo = rc.resolved_ini()
    path.write_text(echo)
    assert load_config(path).resolved_ini() == echo


_CASE = st.sampled_from([str.lower, str.upper, str.title])
_INDENT = st.sampled_from(["", " ", "    ", "\t"])
# a comment's text: anything a line can hold
_NOTE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                max_size=8)
# nothing, or an inline comment: '#' or ';' after whitespace
_INLINE = st.one_of(st.just(""), st.tuples(
    st.sampled_from([" ", "\t", "  "]), st.sampled_from("#;"), _NOTE).map("".join))
# a blank line, or a full-line comment at any indent
_FILLER = st.one_of(st.sampled_from(["", "  ", "\t"]), st.tuples(
    _INDENT, st.sampled_from("#;"), _NOTE).map("".join))


def _loading_value(spec):
    """Values of a key that load with every other key at its default."""
    if spec.default is None:
        return st.just("")
    if spec.type is float:
        return st.floats(0.9, 1.1).map(lambda f: repr(spec.default * f))
    if spec.type is bool:
        return _CLEAN[bool]
    return st.just(str(spec.default))


@st.composite
def _ini_forms(draw):
    """INI text of drawn schema entries in the forms both readers read
    alike: comments of every kind, '=' or ':' with or without spaces, keys
    and sections in any case, blank lines, any line ending and a block of
    keys indented alike. Either every value loads, or values may be of any
    type and a key may repeat, which both readers reject; no section
    repeats, in any case."""
    loads = draw(st.booleans())

    def entry(section_key):
        section, key = section_key
        spec = _SCHEMA[section][key]
        value = _loading_value(spec)
        if not loads:
            value = st.one_of(value, _TYPED[spec.type], _GARBAGE)
        return st.tuples(st.just(section), st.just(key), value)

    entries = draw(st.lists(st.sampled_from(_KEYS).flatmap(entry), max_size=8,
                            unique_by=lambda e: e[:2]))
    if entries and not loads and draw(st.booleans()):
        entries.append(entries[0])
    sections = {section: [] for section in draw(st.sets(st.sampled_from(list(_SCHEMA))))}
    for section, key, value in entries:
        # the whole value stays on its line
        sections.setdefault(section, []).append((key, value.translate({10: None, 13: None})))
    lines = []
    for section, keys in sections.items():
        lines += draw(st.lists(_FILLER, max_size=2))
        lines.append(f"[{draw(_CASE)(section)}]{draw(_INLINE)}")
        indent = draw(_INDENT)
        for key, value in keys:
            lines += draw(st.lists(_FILLER, max_size=1))
            space = draw(st.sampled_from(["", " ", "\t"]))
            delimiter = draw(st.sampled_from(["=", ":", " = ", ": "]))
            lines.append(f"{indent}{draw(_CASE)(key)}{space}{delimiter}{value}{draw(_INLINE)}")
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def _loaded(path, reader):
    """(values, echo) of ``load_config`` on ``path`` read by ``reader``, or
    None when it raises ConfigError."""
    with mock.patch.object(ringtrap.config, "_read_ini", reader):
        try:
            rc = load_config(path)
        except ConfigError:
            return None
    return rc.values, rc.resolved_ini()


@given(_ini_forms())
def test_reader_agrees_with_configparser(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "forms.ini"
    path.write_bytes(text.encode("utf-8"))
    assert _loaded(path, ringtrap.config._read_ini) == _loaded(path, configparser_read_ini)


def test_analysis_grid_budget_fails_the_load(tmp_path):
    # 10^8 nodes fit the node limit, one more node does not; the check
    # runs when the config loads, for every subcommand
    grid = "\n[analysis]\ngrid_z_max_mm = 1.0\ngrid_nx = 10000\ngrid_ny = 10000\n"
    rc = load_config(write(tmp_path, MINIMAL + grid + "grid_nz = 1\n"))
    assert math.prod(rc.grid_dims) == 10**8
    with pytest.raises(ConfigError, match=r"\[analysis\] grid of 200000000 nodes"):
        load_config(write(tmp_path, MINIMAL + grid + "grid_nz = 2\n"))


def test_infinite_number_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"\[rf\] freq_mhz: value must be finite"):
        load_config(write(tmp_path, MINIMAL), overrides=["rf.freq_mhz=inf"])


def test_custom_species_constants_are_checked(tmp_path):
    text = "[atom]\nspecies = custom\nmass_kg = 1.44316e-25\ng_f = 0.5\nm_f = 0\n"
    with pytest.raises(ConfigError, match=r"\[atom\] trappable .* requires m_F >= 1"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("table, message", [
    (b"freq_MHz,bx_G,by_G,bz_G\n1.0,0.7,0.7,0\n\xff\xfe\n", "amplitude_table is not text"),
    (b"freq_MHz,bx_G,by_G,bz_G\n1.0,0.7,0.7\n", "amplitude_table line 2: expected freq_MHz,"),
    (b"freq_MHz,bx_G,by_G,bz_G\n1.0,0.7,0.7,abc\n", "amplitude_table line 2: non-numeric value"),
], ids=["not-utf8", "three-columns", "non-numeric"])
def test_malformed_amplitude_table_is_rejected(tmp_path, table, message):
    (tmp_path / "amps.csv").write_bytes(table)
    text = "\n[sweep]\nfreq_mhz_list = 1.0\namplitude_table = amps.csv\n"
    with pytest.raises(ConfigError, match=r"\[sweep\] " + message):
        load_config(write(tmp_path, MINIMAL + text))


def test_override_with_an_empty_key_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"--set needs section.key=value, got 'rf.=1'"):
        load_config(write(tmp_path, MINIMAL), overrides=["rf.=1"])
