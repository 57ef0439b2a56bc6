"""rf-dressed quadrupole trap potentials and ring-trap analysis."""

from .analysis import (
    AzimuthalProfile,
    Classification,
    ClassifierTolerances,
    CriteriaReport,
    Geometry,
    RingAnalysis,
    SweepPoint,
    TrapFrequencies,
    analyze_trap,
    azimuthal_profile,
    classify_geometry,
    criteria_report,
    frequency_sweep,
    trap_frequencies,
)
from .constants import RB87, AtomSpecies
from .dressed import (
    PotentialSample,
    detuning,
    dressed_potential,
    larmor_frequency,
    potential_gradient,
    potential_hessian,
    rabi_frequency,
    rabi_squared,
    resonance_radius,
    sample_point,
)
from .fields import QuadrupoleConfig, RfConfig, TrapConfig, field_magnitude, quadrupole_field
from .gaussfit import TwoGaussianFit, fit_two_gaussians, two_gaussian
from .grids import ScalarGrid, sample_grid
from .image_io import (
    export_image_binary,
    export_image_csv,
    import_image_binary,
    import_image_csv,
)
from .imaging import (
    DiameterFit,
    RadiusMeasurement,
    SyntheticImage,
    add_noise,
    column_density,
    extract_diameter_profile,
    measure_ring_radius,
    thermal_density,
)
from .minimize import MinimizationResult, find_minimum, pattern_search
from .units import convert_units

__version__ = "0.1.0"
