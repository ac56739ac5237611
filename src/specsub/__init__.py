"""Spectral subspace perturbation for finite Hermitian matrices.

Measures how the spectral subspace attached to an isolated part of the
spectrum moves under an additive Hermitian perturbation, evaluates the
matching trigonometric bounds (driven by the positive/negative split of
the perturbation), and verifies every bound on concrete instances.
"""

__version__ = "0.1.0"

from .bounds import (
    critical_strength,
    favourable_angle_bound,
    first_branch_point,
    gap_lower_bound,
    generic_angle_bound,
    half_arcsin_angle_bound,
    integral_angle_bound,
    integral_threshold,
    kappa,
    kappa_bracket,
    partition_infimum_bound,
    path_step_bound,
    piecewise_angle_bound,
    piecewise_angle_bound_with_branch,
    second_branch_point,
    sin2theta_bound,
)
from .errors import (
    AmbiguousMembership,
    BracketFailure,
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    EmptyComponent,
    EnclosureViolation,
    GapConditionViolated,
    InfeasibleConstraint,
    InvalidInterval,
    InvalidSpec,
    NonHermitianInput,
    ParseError,
    SpecsubError,
)
from .harness import (
    AngleMeasurement,
    Analysis,
    BoundReport,
    GeometryKind,
    Instance,
    PathPoint,
    analyze_instance,
    geometry_kind,
    measure_angles,
    path_scan,
    random_instance,
    sharp_example_2x2,
    verify_instance,
)
from .linalg import (
    PerturbationSplit,
    SpectralDecomposition,
    eigh,
    require_hermitian,
    sign_split,
)
from .spectral import (
    PerturbedSpectrum,
    SpectralPartition,
    partition_spectrum,
    perturbed_component_at_t,
    resolvent_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
