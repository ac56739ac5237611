"""The package's public names, listed so that adding or removing one is a deliberate edit."""

import importlib
import sys
import types

import pytest

import specsub


def test_public_names_are_the_published_api():
    assert sorted(specsub.__all__) == [
        "AmbiguousMembership",
        "Analysis",
        "AngleMeasurement",
        "BoundReport",
        "BracketFailure",
        "ConvergenceFailure",
        "DimensionMismatch",
        "DomainError",
        "EmptyComponent",
        "EnclosureViolation",
        "GapConditionViolated",
        "GeometryKind",
        "InfeasibleConstraint",
        "Instance",
        "InvalidInterval",
        "InvalidSpec",
        "NonHermitianInput",
        "ParseError",
        "PathPoint",
        "PerturbationSplit",
        "PerturbedSpectrum",
        "SpecsubError",
        "SpectralDecomposition",
        "SpectralPartition",
        "analyze_instance",
        "bounds",
        "critical_strength",
        "eigh",
        "errors",
        "favourable_angle_bound",
        "first_branch_point",
        "gap_lower_bound",
        "generic_angle_bound",
        "geometry_kind",
        "half_arcsin_angle_bound",
        "harness",
        "integral_angle_bound",
        "integral_threshold",
        "kappa",
        "kappa_bracket",
        "linalg",
        "measure_angles",
        "partition_infimum_bound",
        "partition_spectrum",
        "path_scan",
        "path_step_bound",
        "perturbed_component_at_t",
        "piecewise_angle_bound",
        "piecewise_angle_bound_with_branch",
        "random_instance",
        "require_hermitian",
        "resolvent_interval",
        "second_branch_point",
        "sharp_example_2x2",
        "sign_split",
        "sin2theta_bound",
        "spectral",
        "verify_instance",
    ]


def test_names_resolve_through_the_export_table(monkeypatch):
    for name in specsub.__all__:
        value = getattr(specsub, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"specsub.{name}")
        else:
            # the very object of the submodule that defines it, itself a public name
            assert value is getattr(sys.modules[value.__module__], name)
            assert value.__module__.removeprefix("specsub.") in specsub.__all__
    assert set(specsub.__all__) <= set(dir(specsub))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        specsub.no_such_name
    namespace = {}
    exec("from specsub import *", namespace)
    assert all(namespace[name] is getattr(specsub, name) for name in specsub.__all__)
    # looked up in the submodule on every read, so a patch there shows through
    def patched():
        return 0.5

    monkeypatch.setattr(specsub.bounds, "kappa", patched)
    assert specsub.kappa is patched
