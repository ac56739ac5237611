"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
with the criterion number so the whole gate can be read off the run log.
"""

import contextlib
import math
import time

import numpy as np
import pytest

import specsub.harness
from specsub import (
    analyze_instance,
    critical_strength,
    eigh,
    first_branch_point,
    geometry_kind,
    kappa,
    kappa_bracket,
    partition_infimum_bound,
    partition_spectrum,
    path_scan,
    perturbed_component_at_t,
    piecewise_angle_bound,
    random_instance,
    resolvent_interval,
    second_branch_point,
    sharp_example_2x2,
    sign_split,
    verify_instance,
)
from specsub.bounds import branch_formula
from specsub.errors import (
    DimensionMismatch,
    DomainError,
    GapConditionViolated,
    NonHermitianInput,
)
from specsub.harness import ANGLE_SLACK, BOUND_CHECKS, GAP_SLACK
from specsub.linalg import decompose, require_hermitian
from specsub.spectral import _class_gap


@contextlib.contextmanager
def criterion(capsys, cid, description):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"ACCEPTANCE {cid}: FAIL - {description}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {cid}: PASS - {description}")


def _favourable_stream(count):
    rng = np.random.default_rng(2026_08_08)
    for _ in range(count):
        n = int(rng.integers(2, 13))
        yield random_instance(
            n=n,
            d_target=float(rng.uniform(0.5, 2.0)),
            component_split=int(rng.integers(1, n)),
            scale=float(rng.uniform(0.0, 0.99)),
            seed=int(rng.integers(0, 2**63)),
            interlaced=False,
        )


def _generic_stream(count):
    rng = np.random.default_rng(2026_08_09)
    cap = 2.0 * critical_strength()
    for _ in range(count):
        n = int(rng.integers(4, 13))
        yield random_instance(
            n=n,
            d_target=float(rng.uniform(0.5, 2.0)),
            component_split=int(rng.integers(2, n - 1)),
            scale=float(rng.uniform(0.0, cap)),
            seed=int(rng.integers(0, 2**63)),
            interlaced=True,
        )


def _path_stream(count):
    rng = np.random.default_rng(2026_08_10)
    for index in range(count):
        interlaced = index % 2 == 1
        n = int(rng.integers(4, 11)) if interlaced else int(rng.integers(2, 11))
        split = int(rng.integers(2, n - 1)) if interlaced else int(rng.integers(1, n))
        yield split, random_instance(
            n=n,
            d_target=float(rng.uniform(0.5, 2.0)),
            component_split=split,
            scale=float(rng.uniform(0.0, 0.9)),
            seed=int(rng.integers(0, 2**63)),
            interlaced=interlaced,
        )


@pytest.fixture(scope="module")
def favourable_suite():
    start = time.perf_counter()
    analyses = [analyze_instance(inst) for inst in _favourable_stream(1000)]
    return analyses, time.perf_counter() - start


@pytest.fixture(scope="module")
def generic_suite():
    start = time.perf_counter()
    analyses = [analyze_instance(inst) for inst in _generic_stream(1000)]
    return analyses, time.perf_counter() - start


@pytest.fixture(scope="module")
def path_suite():
    start = time.perf_counter()
    scans = [(split, path_scan(inst, steps=100)) for split, inst in _path_stream(50)]
    return scans, time.perf_counter() - start


def _dense_sines(p_basis, q_basis):
    """Singular values of P - Q from the dense n x n projectors: the reference."""
    p = p_basis @ p_basis.conj().T
    q = q_basis @ q_basis.conj().T
    diff = 0.5 * (p + p.conj().T) - 0.5 * (q + q.conj().T)
    return np.linalg.svd(diff, compute_uv=False).clip(0.0, 1.0)


def test_criterion_1_critical_constant(capsys):
    with criterion(capsys, 1, "critical constant reproduces 0.4548399... in under 1 ms"):
        value = critical_strength()
        assert math.floor(value * 1e7) == 4548399
        best = min(
            _timed(critical_strength) for _ in range(5)
        )
        assert best < 1e-3, f"single evaluation took {best:.2e} s"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_kappa_certification(capsys):
    with criterion(capsys, 2, "kappa certified inside its bracket with residual <= 1e-13"):
        lo, hi = kappa_bracket()
        k = kappa()
        assert lo < k < hi
        assert abs(branch_formula(3, k) - branch_formula(4, k)) <= 1e-13
        assert abs(branch_formula(3, k) - branch_formula(4, k)) <= 1e-10


def test_criterion_3_piecewise_bound_well_formed(capsys):
    with criterion(
        capsys, 3, "piecewise bound continuous, monotone, pinned at both endpoints"
    ):
        start = time.perf_counter()
        for x, low, high in (
            (first_branch_point(), 1, 2),
            (second_branch_point(), 2, 3),
            (kappa(), 3, 4),
        ):
            assert abs(branch_formula(low, x) - branch_formula(high, x)) <= 1e-9
        grid = np.linspace(0.0, critical_strength(), 10_000)
        values = [piecewise_angle_bound(float(x)) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert piecewise_angle_bound(0.0) == 0.0
        assert abs(piecewise_angle_bound(critical_strength()) - math.pi / 2.0) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_4_partition_infimum_matches_closed_form(capsys):
    with criterion(
        capsys, 4, "partition-infimum search matches the closed form to 1e-3 on 50 points"
    ):
        start = time.perf_counter()
        grid = np.linspace(0.0, 2.0 * critical_strength(), 50)
        worst = 0.0
        for x in grid:
            searched = partition_infimum_bound(float(x), n_max=64)
            closed = piecewise_angle_bound(float(x) / 2.0)
            worst = max(worst, abs(searched - closed))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-3, f"worst deviation {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


@pytest.mark.parametrize("n_max", [3, 5, 64])
def test_partition_infimum_meets_the_closed_form_to_rounding(n_max):
    # criterion 4 at rounding level: the zoom stops at brackets of 1e-10,
    # which the flat optimum turns into a cost error far below an ulp
    for x in map(float, np.linspace(0.0, 2.0 * critical_strength(), 4001)):
        searched = partition_infimum_bound(x, n_max=n_max)
        assert abs(searched - piecewise_angle_bound(x / 2.0)) <= 2e-15, (x, n_max)


def test_criterion_5_sharpness_reproduction(capsys):
    with criterion(
        capsys, 5, "2x2 family attains the favourable bound to 1e-11 over the grid"
    ):
        start = time.perf_counter()
        grid = np.arange(0.0, 0.9501, 0.05)
        worst = 0.0
        checked = 0
        for v_plus in grid:
            for v_minus in grid:
                if v_plus + v_minus > 0.95 + 1e-12:
                    continue
                inst, expected = sharp_example_2x2(float(v_plus), float(v_minus))
                rep = verify_instance(inst)
                worst = max(worst, abs(rep.measured_angle - expected))
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 200
        assert worst <= 1e-11, f"worst deviation {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_6_favourable_fuzz(capsys, favourable_suite):
    with criterion(
        capsys, 6, "1000 separated-cluster instances satisfy the favourable bound"
    ):
        analyses, elapsed = favourable_suite
        start = time.perf_counter()
        violations = 0
        for analysis in analyses:
            rep = analysis.report
            assert rep.favourable_bound is not None
            violations += len(rep.violations)
            assert rep.measured_angle <= rep.favourable_bound + 1e-9
            assert rep.measured_gap >= rep.gap_lower_bound - 1e-10
        assert violations == 0
        total = elapsed + time.perf_counter() - start
        assert total < 120.0, f"took {total:.1f} s"


def test_criterion_7_generic_fuzz(capsys, generic_suite):
    with criterion(
        capsys, 7, "1000 interlaced instances satisfy the generic and half-arcsin bounds"
    ):
        analyses, elapsed = generic_suite
        start = time.perf_counter()
        violations = 0
        for analysis in analyses:
            rep = analysis.report
            assert rep.geometry == "generic"
            assert rep.generic_bound is not None
            violations += len(rep.violations)
            assert rep.measured_angle <= rep.generic_bound + 1e-9
            if rep.half_arcsin_bound is not None:
                assert rep.measured_angle <= rep.half_arcsin_bound + 1e-9
        assert violations == 0
        total = elapsed + time.perf_counter() - start
        assert total < 180.0, f"took {total:.1f} s"


def test_criterion_8_sin2theta_suite(capsys, favourable_suite, generic_suite):
    with criterion(
        capsys, 8, "sin-2-Theta bound holds with the geometry-dependent constant"
    ):
        for analyses, constant in (
            (favourable_suite[0], 1.0),
            (generic_suite[0], 0.5 * math.pi),
        ):
            for analysis in analyses:
                rep = analysis.report
                ratio = (rep.norm_plus + rep.norm_minus) / rep.gap
                assert rep.sin2theta_measured <= constant * ratio + 1e-9
                assert (
                    math.sin(2.0 * rep.measured_angle)
                    <= rep.sin2theta_measured + 1e-10
                )


def test_criterion_9_enclosure_suite(capsys, favourable_suite, generic_suite):
    with criterion(
        capsys, 9, "perturbed spectra stay enclosed and avoid resolvent intervals"
    ):
        for analyses in (favourable_suite[0], generic_suite[0]):
            for analysis in analyses:
                rep = analysis.report
                assert rep.enclosure_ok, f"excess {rep.enclosure_excess:.3e}"
                w = analysis.decomp_a.eigenvalues
                mu = analysis.decomp_perturbed.eigenvalues
                split = analysis.split
                tol = 1e-9 * (1.0 + float(np.abs(w).max()) + split.norm_v)
                for a, b in zip(w[:-1], w[1:]):
                    if b <= a:
                        continue
                    interval = resolvent_interval(float(a), float(b), split)
                    if interval is None:
                        continue
                    lo, hi = interval
                    assert not np.any((mu > lo + tol) & (mu < hi - tol))


def test_criterion_10_path_suite(capsys, path_suite):
    with criterion(
        capsys, 10, "100-step path scans stay enclosed and obey the step and gap lower bounds"
    ):
        scans, elapsed = path_suite
        start = time.perf_counter()
        # a point's separation carries the report fields these two rows read
        rows = [check for check in BOUND_CHECKS if check.name in ("gap_lower_bound", "enclosure")]
        assert len(rows) == 2
        for _, points in scans:
            for p in points:
                for check in rows:
                    measured, bound = check.measured(p.separation), check.bound(p.separation)
                    # the path's gap condition makes both rows apply at every point
                    assert measured is not None and bound is not None, f"{check.name}, t = {p.t}"
                    assert measured <= bound + check.slack, f"{check.name}, t = {p.t}"
                assert p.step_delta <= p.step_bound + 1e-9
        total = elapsed + time.perf_counter() - start
        assert total < 120.0, f"took {total:.1f} s"


def test_angles_agree_with_dense_projectors(favourable_suite, generic_suite):
    checked = 0
    for analyses in (favourable_suite[0], generic_suite[0]):
        for analysis in analyses:
            if analysis.angles is None:
                continue
            s = _dense_sines(
                analysis.decomp_a.eigenvectors[:, analysis.partition.component_indices],
                analysis.decomp_perturbed.eigenvectors[:, analysis.partition.component_indices],
            )
            assert abs(analysis.angles.max_angle - math.asin(s[0])) <= 1e-12
            s2t = float((2.0 * s * np.sqrt(1.0 - s * s)).max())
            assert abs(analysis.angles.sin2theta_norm - s2t) <= 1e-12
            checked += 1
    assert checked == 2000


def _value_scan_geometry(partition):
    """The value scans geometry_kind replaced: whether either side's hull misses the other."""
    w = partition.eigenvalues.tolist()
    comp = [w[k] for k in partition.component_indices]
    rest = [w[k] for k in partition.rest_indices]
    rest_in_comp_hull = any(min(comp) <= x <= max(comp) for x in rest)
    comp_in_rest_hull = any(min(rest) <= x <= max(rest) for x in comp)
    return "generic" if rest_in_comp_hull and comp_in_rest_hull else "favourable"


def test_geometry_index_rule_matches_value_scans(favourable_suite, generic_suite):
    kinds = [
        (analysis.report.geometry, _value_scan_geometry(analysis.partition))
        for suite in (favourable_suite, generic_suite)
        for analysis in suite[0]
    ]
    assert all(kind == reference for kind, reference in kinds)
    assert sorted(set(kinds)) == [("favourable",) * 2, ("generic",) * 2]


def test_geometry_index_rule_matches_value_scans_with_ties():
    # repeated eigenvalues, selected by value, so equal ones share a side
    rng = np.random.default_rng(2026_08_12)
    kinds = set()
    for _ in range(2000):
        values = rng.integers(0, 5, size=int(rng.integers(2, 10))).astype(float)
        distinct = np.unique(values)
        chosen = distinct[rng.random(distinct.size) < 0.5]
        if chosen.size in (0, distinct.size):
            continue
        dec = eigh(np.diag(values))
        part = partition_spectrum(dec, [(x - 0.25, x + 0.25) for x in chosen])
        kind = geometry_kind(part).value
        assert kind == _value_scan_geometry(part)
        kinds.add(kind)
    assert kinds == {"favourable", "generic"}


def _reference_checks(analysis, angle_slack):
    """(name, measured, bound, violated) per applicable check, hypotheses read off the problem.

    The favourable bound needs the gap condition and favourable geometry, the
    generic bound ||V+|| + ||V-|| < 2 c_crit d, the half-arcsin bound
    ||V+|| + ||V-|| <= 2d/pi; every other check but the enclosure needs the
    gap condition, and the enclosure is always checked.
    """
    rep, split = analysis.report, analysis.split
    gap, s = rep.gap, split.norm_sum
    gap_ok = s < gap
    angle = rep.measured_angle
    favourable = rep.geometry == "favourable"
    rows = (
        ("favourable_bound", gap_ok and favourable, angle, rep.favourable_bound, angle_slack),
        ("generic_bound", s < 2 * critical_strength() * gap, angle, rep.generic_bound, angle_slack),
        ("half_arcsin_bound", s <= 2.0 * gap / math.pi, angle, rep.half_arcsin_bound, angle_slack),
        ("sin2theta_bound", gap_ok, rep.sin2theta_measured, rep.sin2theta_bound, angle_slack),
        ("integral_bound", gap_ok, angle, rep.integral_bound, angle_slack),
        ("gap_lower_bound", gap_ok, rep.gap_lower_bound, rep.measured_gap, GAP_SLACK),
    )
    records = [
        (name, left, right, left > right + slack)
        for name, applies, left, right, slack in rows
        if applies
    ]
    excess = 0.0 if rep.enclosure_ok else rep.enclosure_excess
    records.append(("enclosure", excess, 0.0, not rep.enclosure_ok))
    return tuple(records)


def _beyond_gap_stream(count):
    """Both layouts at strengths up to 2.5 d, mostly past the gap condition."""
    rng = np.random.default_rng(2026_08_11)
    for index in range(count):
        interlaced = index % 2 == 1
        n = int(rng.integers(4, 11))
        yield random_instance(
            n=n,
            d_target=float(rng.uniform(0.5, 2.0)),
            component_split=int(rng.integers(2, n - 1)) if interlaced else int(rng.integers(1, n)),
            scale=float(rng.uniform(0.3, 2.5)),
            seed=int(rng.integers(0, 2**63)),
            interlaced=interlaced,
        )


@pytest.mark.parametrize("angle_slack", [1e-9, -1e-3, -10.0])
def test_checks_apply_exactly_under_their_hypotheses(
    monkeypatch, favourable_suite, generic_suite, angle_slack
):
    # the angle rows' slack set in the table, which a report reads for its checks
    assert ANGLE_SLACK == 1e-9
    monkeypatch.setattr(specsub.harness, "BOUND_CHECKS", tuple(
        check._replace(slack=angle_slack) if check.slack == ANGLE_SLACK else check
        for check in BOUND_CHECKS
    ))
    instances = [a.instance for suite in (favourable_suite, generic_suite) for a in suite[0]]
    instances += list(_beyond_gap_stream(200))
    outside = 0
    for inst in instances:
        analysis = analyze_instance(inst)
        rep = analysis.report
        reference = _reference_checks(analysis, angle_slack)
        assert rep.checks == reference
        assert rep.violations == tuple((n, m - b) for n, m, b, failed in reference if failed)
        gap_ok = analysis.split.norm_sum < rep.gap
        assert gap_ok == (rep.measured_angle is not None)
        outside += not gap_ok
    assert outside >= 50


def _reference_enclosure_check(decomp_a, decomp_perturbed, split, t=1.0):
    """The enclosure check as a function of its own, before it joined the gaps' call."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must be in [0, 1], got {t!r}")
    w, mus = decomp_a.eigenvalues, decomp_perturbed.eigenvalues
    if w.shape != mus.shape:
        raise DimensionMismatch(f"{mus.size} perturbed eigenvalues for {w.size} unperturbed")
    lo, hi = w - t * split.norm_minus, w + t * split.norm_plus
    excess = float(np.maximum(lo - mus, mus - hi).max())
    tol = 1e-9 * (1.0 + float(np.abs(w).max()) + split.norm_v)
    return excess <= tol, max(0.0, excess)


def _reference_component_at_t(decomp_perturbed, partition, split, t):
    """(gap_lower_bound, measured_gap) as computed before they joined the enclosure's call."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must be in [0, 1], got {t!r}")
    if t * split.norm_sum >= partition.gap:
        raise GapConditionViolated("gap condition fails")
    mus = decomp_perturbed.eigenvalues
    if mus.shape != partition.eigenvalues.shape:
        raise DimensionMismatch("spectra of different lengths")
    gap = partition.gap
    if not 0.0 < gap < math.inf:
        raise DomainError(f"gap must be finite and positive, got {gap!r}")
    return gap - t * split.norm_sum, _class_gap(mus.tolist(), partition.component_indices)


def _reference_perturbed_spectrum(decomp_a, decomp_perturbed, partition, split, t):
    ok, excess = _reference_enclosure_check(decomp_a, decomp_perturbed, split, t)
    try:
        lower, measured = _reference_component_at_t(decomp_perturbed, partition, split, t)
    except GapConditionViolated:
        lower = measured = None
    return ok, excess, measured, lower


def test_perturbed_spectrum_matches_the_separate_calls(favourable_suite, generic_suite, path_suite):
    # every field bit for bit, at three points of each analysis's path (the
    # beyond-gap stream mostly outside the gap condition) and at every point
    # of the criterion-10 scans
    beyond = [analyze_instance(inst) for inst in _beyond_gap_stream(200)]
    for analysis in favourable_suite[0] + generic_suite[0] + beyond:
        a, split = require_hermitian(analysis.instance.a), analysis.split
        part = analysis.partition
        for t in (0.0, 0.5, 1.0):
            dec_t = analysis.decomp_perturbed if t == 1.0 else decompose(a + t * split.v)
            expected = _reference_perturbed_spectrum(analysis.decomp_a, dec_t, part, split, t)
            assert tuple(perturbed_component_at_t(dec_t, part, split, t)) == expected
        rep = analysis.report
        assert expected == (
            rep.enclosure_ok, rep.enclosure_excess, rep.measured_gap, rep.gap_lower_bound
        )
    scans = path_suite[0]
    for (_, inst), (_, points) in zip(_path_stream(len(scans)), scans):
        a, split = require_hermitian(inst.a), sign_split(inst.v)
        dec_a = decompose(a)
        part = partition_spectrum(dec_a, inst.component_intervals)
        for p in points:
            dec_t = decompose(a + p.t * split.v)
            expected = _reference_perturbed_spectrum(dec_a, dec_t, part, split, p.t)
            assert tuple(p.separation) == expected


def test_path_steps_agree_with_dense_projectors(path_suite):
    # a scan keeps no bases, so each point's is rebuilt from its own decomposition
    scans = path_suite[0]
    for (_, inst), (_, points) in zip(_path_stream(len(scans)), scans):
        a, split = require_hermitian(inst.a), sign_split(inst.v)
        dec_a = decompose(a)
        part = partition_spectrum(dec_a, inst.component_intervals)
        bases = [
            (decompose(a + p.t * split.v) if p.t else dec_a).eigenvectors[:, part.component_indices]
            for p in points
        ]
        for prev, basis, point in zip(bases, bases[1:], points[1:]):
            s = _dense_sines(prev, basis)
            assert abs(point.step_delta - s[0]) <= 1e-12


def test_criterion_11_finite_scope_note(capsys):
    with criterion(
        capsys,
        11,
        "infinite-dimensional statements are out of scope; criteria 3-10 are the "
        "finite-instance substitute",
    ):
        # the library's whole surface is finite Hermitian matrices; anything
        # else is rejected at the door
        with pytest.raises(NonHermitianInput):
            require_hermitian(np.zeros((3, 2)))
        require_hermitian(np.zeros((3, 3)))
