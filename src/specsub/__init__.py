"""Spectral subspace perturbation for finite Hermitian matrices.

Measures how the spectral subspace attached to an isolated part of the
spectrum moves under an additive Hermitian perturbation, evaluates the
matching trigonometric bounds (driven by the positive/negative split of
the perturbation), and verifies every bound on concrete instances.

Submodules load on first use (PEP 562): `import specsub` loads none of
them, and the first read of `specsub.kappa` imports `specsub.bounds`.  A
public name is looked up in its submodule on every read, so `specsub.kappa`
sees a patch of `specsub.bounds.kappa`.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bounds": (
        "critical_strength", "favourable_angle_bound", "first_branch_point",
        "gap_lower_bound", "generic_angle_bound", "half_arcsin_angle_bound",
        "integral_angle_bound", "integral_threshold", "kappa", "kappa_bracket",
        "partition_infimum_bound", "path_step_bound", "piecewise_angle_bound",
        "piecewise_angle_bound_with_branch", "second_branch_point", "sin2theta_bound",
    ),
    "errors": (
        "AmbiguousMembership", "BracketFailure", "ConvergenceFailure", "DimensionMismatch",
        "DomainError", "EmptyComponent", "EnclosureViolation", "GapConditionViolated",
        "InfeasibleConstraint", "InvalidInterval", "InvalidSpec", "NonHermitianInput",
        "ParseError", "SpecsubError",
    ),
    "harness": (
        "AngleMeasurement", "Analysis", "BoundReport", "GeometryKind", "Instance",
        "PathPoint", "analyze_instance", "geometry_kind", "measure_angles", "path_scan",
        "random_instance", "sharp_example_2x2", "verify_instance",
    ),
    "linalg": (
        "PerturbationSplit", "SpectralDecomposition", "eigh", "require_hermitian",
        "sign_split",
    ),
    "spectral": (
        "PerturbedSpectrum", "SpectralPartition", "partition_spectrum",
        "perturbed_component_at_t", "resolvent_interval",
    ),
}
_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_DEFINED_IN]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _DEFINED_IN:
        return getattr(importlib.import_module(f"{__name__}.{_DEFINED_IN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
