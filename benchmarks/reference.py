"""Frozen references the correctness gates compare the program against.

`closed_form_row` is the closed-form arithmetic of `pacsqc` as it stood when
the benchmark was defined, written out operation by operation in the same
order, so at that commit it reproduces every CSV value bit for bit.  Later
changes to the package are judged against it at <= 2 ulp (`same_value`).
`FIELD_BOUNDS` is the verification tolerance per field at that commit; the
verify gate applies this copy, so loosening the package's bounds cannot make
a request pass.  The root-scan references live in `references/root_scan.json`
(see `capture_references.py`).
"""

import math

DEGENERATE_ALPHA2 = 1e-8
ENTROPY_GUARD = 1e-12

QUANTITIES = (
    "S1", "S2", "S12", "S23",
    "C12_conc", "C23_conc", "C13_conc", "C1_23_conc",
    "E12", "E23", "E13", "E1_23",
    "D12", "D23", "D1_23", "Delta123",
)

FIELD_BOUNDS = {
    "S1": 1e-8, "S2": 1e-8, "S12": 1e-8, "S23": 1e-8,
    "C12_conc": 1e-8, "C23_conc": 1e-8, "C13_conc": 1e-8, "C1_23_conc": 1e-8,
    "E12": 1e-8, "E23": 1e-8, "E13": 1e-8, "E1_23": 1e-8, "D1_23": 1e-8,
    "D12": 1e-3, "D23": 1e-3, "Delta123": 2e-3,
}

# Figure id -> (quantity, parity); m = 0..3, 400 points on [0.01, 4].
FIGURE_PRESETS = {
    "fig1": ("E12", 0), "fig2": ("E12", 1),
    "fig3": ("D12", 0), "fig4": ("D23", 0),
    "fig5": ("D12", 1), "fig6": ("D23", 1),
    "fig7": ("Delta123", 0), "fig8": ("Delta123", 1),
}
FIGURE_GRID = ("alpha2", 0.01, 4.0, 400, (0, 1, 2, 3))

ULP_TOLERANCE = 2


def same_value(got, want):
    """True when two floats agree to ULP_TOLERANCE units in the last place;
    -0 equals 0 and nan equals nan."""
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    if got == want:
        return True
    return abs(got - want) <= ULP_TOLERANCE * math.ulp(max(abs(got), abs(want)))


def _laguerre(m, x):
    if m == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 - x
    for n in range(1, m):
        prev, cur = cur, ((2.0 * n + 1.0 - x) * cur - n * prev) / (n + 1.0)
    return cur


def _entropy(x):
    if not -ENTROPY_GUARD <= x <= 1.0 + ENTROPY_GUARD:
        raise ValueError(f"binary entropy argument outside the guard band: {x!r}")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _eof(c):
    c = min(max(c, 0.0), 1.0)
    return _entropy(0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - c * c)))


def _w_limit(m):
    n = float(m) + 3.0
    h = _entropy
    d12 = h(2.0 / n) - h((n - 1.0) / n) + h(0.5 + 0.5 * math.sqrt((n - 2.0) * (n + 2.0)) / n)
    d23 = h((n - 1.0) / n) - h(2.0 / n) + h(0.5 + 0.5 * math.sqrt(n * n - 4.0 * (n - 2.0)) / n)
    d1_23 = h(2.0 / n)
    row = dict.fromkeys(QUANTITIES)
    row.update(
        C12_conc=2.0 * math.sqrt(m + 1.0) / (m + 2.0),
        E12=h((float(m) + 1.0) / (float(m) + 2.0)),
        D12=d12,
        D23=d23,
        D1_23=d1_23,
        E1_23=d1_23,
        Delta123=d1_23 - 2.0 * d12,
    )
    return row


def closed_form_row(alpha2, m, k):
    """Every report quantity at (|alpha|^2, m, k); None where the W-type
    limit has no value."""
    a = float(alpha2)
    if k == 1 and a < DEGENERATE_ALPHA2:
        return _w_limit(m)
    km = _laguerre(m, a) / _laguerre(m, -a)
    s = 1 if k == 0 else -1
    e2 = math.exp(-2.0 * a)
    e4 = math.exp(-4.0 * a)
    denom = 1.0 + km * math.exp(-6.0 * a) * s
    s1 = _entropy(0.5 * (1.0 + km * e2) * (1.0 + e4 * s) / denom)
    s2 = _entropy(0.5 * (1.0 + e2) * (1.0 + km * e4 * s) / denom)
    s12 = _entropy(0.5 * (1.0 + km * e4 * s) * (1.0 + e2) / denom)
    s23 = _entropy(0.5 * (1.0 + e4 * s) * (1.0 + km * e2) / denom)
    one_m_e4 = -math.expm1(-4.0 * a)
    radial = max(0.0, 1.0 - km**2 * e4)
    c23 = abs(km) * e2 * one_m_e4 / denom
    c13 = e2 * math.sqrt(radial * one_m_e4) / denom
    c1_23 = math.sqrt(radial * -math.expm1(-8.0 * a)) / denom
    e23 = _eof(c23)
    e13 = _eof(c13)
    d12 = s1 - s12 + e23
    d1_23 = _entropy(0.5 + 0.5 * (km * e2 + e4 * s) / denom)
    bell = math.sqrt(-math.expm1(-4.0 * a)) * math.sqrt(max(0.0, 1.0 - km**2 * e4))
    return {
        "S1": s1,
        "S2": s2,
        "S12": s12,
        "S23": s23,
        "C12_conc": bell / (1.0 + km * e4 * s),
        "C23_conc": c23,
        "C13_conc": c13,
        "C1_23_conc": c1_23,
        "E12": _entropy(0.5 + e2 * (1.0 + km * s) / (2.0 + 2.0 * km * e4 * s)),
        "E23": e23,
        "E13": e13,
        "E1_23": d1_23,
        "D12": d12,
        "D23": s2 - s23 + e13,
        "D1_23": d1_23,
        "Delta123": d1_23 - 2.0 * d12,
    }


def axis_points(axis, start, stop, steps):
    """(alpha2, p) pairs of a sweep axis, in the program's own arithmetic."""
    span = stop - start
    points = []
    for i in range(steps):
        value = start + i * span / (steps - 1)
        if axis == "alpha2":
            points.append((value, math.exp(-2.0 * value)))
        else:
            points.append((-0.5 * math.log(value), value))
    return points


def verify_points(start, stop, steps, m_values, k_values):
    """(alpha2, m, k) triples of a verify grid, in the program's order."""
    if steps == 1:
        strengths = [start]
    else:
        strengths = [start + i * (stop - start) / (steps - 1) for i in range(steps)]
    return [(a, m, k) for k in sorted(k_values) for m in sorted(m_values) for a in strengths]
