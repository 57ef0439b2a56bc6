"""rf-dressed quadrupole trap potentials and ring-trap analysis."""

from .analysis import (
    AzimuthalProfile,
    Classification,
    ClassifierTolerances,
    CriteriaReport,
    Geometry,
    MinimizationResult,
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
from .constants import GAUSS, GAUSS_PER_CM, MHZ, MICROKELVIN, RB87, AtomSpecies
from .dressed import (
    detuning,
    dressed_potential,
    larmor_frequency,
    potential_gradient,
    potential_hessian,
    rabi_frequency,
    rabi_squared,
    resonance_radius,
)
from .fields import QuadrupoleConfig, RfConfig, TrapConfig, field_magnitude, quadrupole_field
from .gaussfit import TwoGaussianFit, fit_two_gaussians, two_gaussian
from .grids import ScalarGrid, sample_grid
from .image_io import (
    export_grid_binary,
    export_grid_csv,
    export_image_binary,
    export_image_csv,
    import_grid_binary,
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
)

__version__ = "0.1.0"
