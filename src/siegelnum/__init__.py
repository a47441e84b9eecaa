"""Numerics for Siegel discs: linearizations, conformal-radius estimators,
quasi-analytic norms, and a finite-depth boundary construction."""

from .construction import (
    BoundaryReport,
    ConstructionConfig,
    ConstructionReport,
    StepReport,
    boundary_report,
    find_alpha_with_rho,
    run_construction,
)
from .errors import (
    BracketFailureError,
    CoefficientOverflowError,
    ConstructionStallError,
    DivisorBreakdownError,
    EntryRadiusError,
    EstimateUnavailableError,
    NoConvergenceError,
    NumericalError,
    PoleError,
    PreconditionError,
    SiegelnumError,
    UnreliableRadiusError,
)
from .families import (
    FamilySpec,
    base_series,
    family_catalog,
    family_eval,
    family_series,
    get_family,
    symmetry_reduce,
)
from .linearize import (
    KoenigsSeries,
    SiegelSeries,
    YoccozValue,
    conjugacy_residual,
    entry_radius,
    koenigs_eval,
    koenigs_series,
    siegel_series,
    siegel_series_many,
    u_values,
    yoccoz_w,
)
from .qanorm import NormResult, qa_norm
from .radius import (
    HarmonicCheckReport,
    PoissonBoundReport,
    RadiusEstimate,
    RotationNumber,
    cf_convergents,
    cf_expand,
    golden_rotation,
    harmonic_check,
    harmonic_measure,
    parse_rotation,
    poisson_bound_check,
    poisson_step_value,
    rational_rotation,
    rho_coefficient,
    rho_coefficients,
    rho_radial,
    rotation_from_cf,
    rotation_from_float,
    silver_rotation,
)
from .series import TruncatedSeries, compose, evaluate

__version__ = "0.1.0"
