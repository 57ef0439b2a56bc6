"""The README's example configuration and library snippet work as shown."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from ringtrap.config import load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading, lang):
    """The first ``lang`` code block under ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_example_configuration_loads_and_its_echo_reloads(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(fenced_block("### Example configuration", "ini"))
    echo = load_config(ini).resolved_ini()
    ini.write_text(echo)
    assert load_config(ini).resolved_ini() == echo


def test_library_snippet_prints_its_commented_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced_block("## Library", "python"), {})
    radius, _, geometry = out.getvalue().splitlines()
    assert float(radius) == pytest.approx(2.1434e-4, rel=1e-4)
    assert geometry == "symmetric-ring"
