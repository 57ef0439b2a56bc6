"""rf-dressed quadrupole trap potentials and ring-trap analysis.

Each public name loads its module on first use (PEP 562), so that
``import ringtrap`` stays cheap and a caller pays only for the modules it
runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: the public names of each module
_EXPORTS = {
    "analysis": (
        "CriteriaReport", "MinimizationResult", "RingAnalysis", "TrapFrequencies",
        "analyze_trap", "criteria_report", "trap_frequencies",
    ),
    "constants": ("GAUSS", "GAUSS_PER_CM", "MHZ", "MICROKELVIN", "RB87", "AtomSpecies"),
    "dressed": (
        "dressed_potential", "potential_hessian", "rabi_frequency", "rabi_squared",
        "resonance_radius",
    ),
    "fields": ("RfConfig", "TrapConfig"),
    "gaussfit": ("TwoGaussianFit", "fit_two_gaussians", "two_gaussian"),
    "grids": ("ScalarGrid", "sample_grid"),
    "image_io": (
        "export_grid_binary", "export_grid_csv", "export_image_binary", "export_image_csv",
        "import_grid_binary", "import_image_binary", "import_image_csv",
    ),
    "imaging": (
        "DiameterFit", "RadiusMeasurement", "SyntheticImage", "add_noise", "column_density",
        "extract_diameter_profile", "measure_ring_radius",
    ),
    "limits": ("ClassifierTolerances",),
    "valley": (
        "AzimuthalProfile", "Classification", "Geometry", "SweepPoint", "azimuthal_profile",
        "classify_geometry", "frequency_sweep",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
