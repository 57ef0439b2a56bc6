"""The benchmark's traced call sites still exist in the package.

``perfbench/tracing.py`` wraps each site in ``SITES`` by name and skips a
name that is gone, or whose module no longer imports, so a rename in the
package would silently zero a per-layer metric. This test lists the sites
that no longer resolve, counting them the way the tracer does.
"""

import importlib
import sys
from pathlib import Path

#: sites known to be stale, all retargeted with the benchmark's next
#: revision: ``cli`` no longer imports ``criteria_report``; ``analysis``
#: refines its minimum with ``shell_minimum``, not ``find_minimum``; and the
#: image is made in one pass by ``column_density``, so ``cli`` no longer
#: imports ``thermal_density`` and ``imaging`` no longer imports
#: ``sample_grid``; and the ``minimize`` module, the 3-D box search and its
#: finite-difference polish, is gone. ``cli`` imports the functions of
#: ``analysis`` and ``imaging`` inside the subcommand that calls them, from
#: their home module at each call, so their sites are the home module's
#: names (``ringtrap.analysis.analyze_trap`` and so on), not ``cli``'s
KNOWN_STALE = {
    "ringtrap.cli.criteria_report",
    "ringtrap.analysis.find_minimum",
    "ringtrap.cli.thermal_density",
    "ringtrap.imaging.sample_grid",
    "ringtrap.minimize.dressed_potential",
    "ringtrap.minimize.potential_gradient",
    "ringtrap.minimize.potential_hessian",
    "ringtrap.cli.analyze_trap",
    "ringtrap.cli.frequency_sweep",
    "ringtrap.cli.column_density",
    "ringtrap.cli.add_noise",
    "ringtrap.cli.measure_ring_radius",
}


def resolves(module_name, attr):
    """Whether the tracer can wrap ``attr`` of ``module_name``: the module
    imports and has the name."""
    try:
        module = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return False
    return hasattr(module, attr)


def test_every_traced_site_resolves():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.pop(0)
    missing = {
        f"{module}.{attr}" for module, attr, _, _ in tracing.SITES if not resolves(module, attr)
    }
    assert missing == KNOWN_STALE
