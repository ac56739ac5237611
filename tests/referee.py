"""An extended-precision referee for the float checks (tests only).

`referee(inst)` takes an instance's float entries as exact and recomputes,
at DIGITS significant digits, what a report measures and what its
favourable bound reads, so a test can tell which side of a check carries
the float error.  One mpmath operation on its results, such as a
difference with a float, is correctly rounded at any working precision.
"""

from types import SimpleNamespace

from mpmath import mp

DIGITS = 40


def referee(inst) -> SimpleNamespace:
    """Exact norm_plus, norm_minus, gap, angle and favourable_bound of `inst`, as mpf."""
    with mp.workdps(DIGITS):
        a, v = mp.matrix(inst.a.tolist()), mp.matrix(inst.v.tolist())
        w_a, q_a = mp.eighe(a)
        w_v = mp.eighe(v, eigvals_only=True)
        _, q_av = mp.eighe(a + v)
        n = a.rows
        comp = [
            k for k in range(n)
            if any(lo <= w_a[k] <= hi for lo, hi in inst.component_intervals)
        ]
        rest = [k for k in range(n) if k not in comp]
        gap = min(abs(w_a[i] - w_a[j]) for i in comp for j in rest)
        norm_plus, norm_minus = max(max(w_v), 0), max(-min(w_v), 0)
        # the cross block rest(A)* comp(A + V), as measure_angles forms it
        full = q_a.H * q_av
        cross = mp.matrix([[full[i, j] for j in comp] for i in rest])
        sine = min(max(mp.svd_c(cross, compute_uv=False)), 1)
        return SimpleNamespace(
            norm_plus=norm_plus,
            norm_minus=norm_minus,
            gap=gap,
            angle=mp.asin(sine),
            favourable_bound=mp.asin((norm_plus + norm_minus) / gap) / 2,
        )
