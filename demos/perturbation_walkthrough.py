# One instance end to end: partition, sign split, enclosure, angles, bounds.

import numpy as np

from specsub import (
    analyze_instance,
    eigh,
    gap_lower_bound,
    partition_spectrum,
    path_scan,
    random_instance,
    sign_split,
)

# An 8x8 Hermitian matrix whose selected component (3 eigenvalues) sits at
# distance exactly 1 from the rest, perturbed at 80% of the gap.
inst = random_instance(n=8, d_target=1.0, component_split=3, scale=0.8, seed=20260808)

decomp = eigh(inst.a)
print("spectrum of A:")
print(np.array2string(decomp.eigenvalues, precision=4))

partition = partition_spectrum(decomp, inst.component_intervals)
print(f"\nselected component indices: {partition.component_indices}")
print(f"gap d = {partition.gap:.12f}")

split = sign_split(inst.v)
print(f"\n||V+|| = {split.norm_plus:.6f}  ||V-|| = {split.norm_minus:.6f}  "
      f"||V|| = {split.norm_v:.6f}")
print(f"gap condition ||V+|| + ||V-|| < d: {split.norm_sum:.6f} < {partition.gap:.6f}")
# the one statement of the gap condition; outside it this raises GapConditionViolated
guaranteed = gap_lower_bound(split.norm_plus, split.norm_minus, partition.gap)

# Where the perturbed component is allowed to live: by Weyl, the eigenvalue
# of A + V with the same index as a component eigenvalue lam lies in
# [lam - ||V-||, lam + ||V+||].
print("\nenlarged component intervals:")
for lam in partition.component_values:
    print(f"  [{lam - split.norm_minus:.4f}, {lam + split.norm_plus:.4f}]")

analysis = analyze_instance(inst)
report = analysis.report
# paired by index, the perturbed component holds the partition's indices
print(f"\nperturbed component indices: {analysis.partition.component_indices}")
print(f"measured separation {report.measured_gap:.6f} "
      f">= guaranteed {report.gap_lower_bound:.6f} "
      f"(gap_lower_bound(||V+||, ||V-||, d) = {guaranteed:.6f})")

print(f"\ngeometry: {report.geometry}")
# one record per applicable check, in table order: the measured side must not
# exceed the bound side by more than the check's slack
print(f"  {'check':<18}  {'measured':<11}  {'bound':<11}  violated")
for check in report.checks:
    print(f"  {check.name:<18}  {check.measured:.9f}  {check.bound:.9f}  {check.violated}")
print(f"violations: {list(report.violations)}")

# Walk the homotopy t -> A + tV and watch the subspace drift step by step.
points = path_scan(inst, steps=20)
worst = max(p.step_delta - p.step_bound for p in points[1:])
print(f"\npath scan (20 steps): rank stays {len(partition.component_indices)}, "
      f"max (delta - bound) = {worst:.3e}")
