"""Closed-form correlation measures for the encoded coherent-state family.

`report` is the one closed-form computation: every field at a parameter
point (|alpha|^2, m, k) follows from kappa_m, e^{-2|alpha|^2} and the GHZ
norm 1 + kappa_m e^{-6|alpha|^2} cos k pi, evaluated once per point.
`discord_12`, `discord_23`, `discord_1_23` and `deficit` are views of its
fields for the threshold and peak finders.

All entropic quantities are in bits.  Pairwise discord is evaluated through
the Koashi-Winter relation, which replaces the measurement optimization by
the entanglement of formation of the complementary pair inside the pure
three-mode state: D_12 = S_1 - S_12 + E_23 (measurement on mode 1) and
D_23 = S_2 - S_23 + E_13 (measurement on mode 2).  Across the pure 1|(23)
cut discord and entanglement of formation coincide.

The odd-parity family degenerates as |alpha|^2 -> 0; below
DEGENERATE_ALPHA2 `report` and its views return the analytic small-amplitude
limits (W-type states), see `w_limit_report`.
"""

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

from .special import binary_entropy
from .states import ModelParams

__all__ = [
    "CorrelationReport",
    "QUANTITIES",
    "eof_from_concurrence",
    "w_bell_concurrence_limit",
    "discord_12",
    "discord_23",
    "discord_1_23",
    "deficit",
    "w_limit_report",
    "report",
    "violation_threshold",
    "discord_12_peak",
]


def eof_from_concurrence(concurrence):
    """Entanglement of formation H(1/2 + sqrt(1 - C^2)/2) of a two-qubit
    state with concurrence C; monotone from E(0) = 0 to E(1) = 1."""
    c = float(concurrence)
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError(f"concurrence must lie in [0, 1], got {c!r}")
    c = min(max(c, 0.0), 1.0)
    return binary_entropy(0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - c * c)))


def w_bell_concurrence_limit(m):
    """Small-amplitude limit 2 sqrt(m+1)/(m+2) of the odd quasi-Bell
    concurrence (W-type pair with m extra photons)."""
    return 2.0 * math.sqrt(m + 1.0) / (m + 2.0)


def discord_12(params):
    """Quantum discord of modes (1,2), measurement on mode 1 (`report` D12)."""
    return report(params).D12


def discord_23(params):
    """Quantum discord of modes (2,3), measurement on mode 2 (`report` D23)."""
    return report(params).D23


def discord_1_23(params):
    """Discord across the pure 1|(23) cut (`report` D1_23)."""
    return report(params).D1_23


def deficit(params):
    """Monogamy deficit Delta_123 = D_{1|23} - D_12 - D_13 (`report` Delta123)."""
    return report(params).Delta123


@dataclass(frozen=True)
class CorrelationReport:
    """Every correlation quantity at one parameter point (entropies and
    discords in bits, concurrences dimensionless).

    In the degenerate small-amplitude regime only the fields with analytic
    limits are populated; the rest stay None.
    """

    params: ModelParams
    S1: Optional[float] = None
    S2: Optional[float] = None
    S12: Optional[float] = None
    S23: Optional[float] = None
    C12_conc: Optional[float] = None
    C23_conc: Optional[float] = None
    C13_conc: Optional[float] = None
    C1_23_conc: Optional[float] = None
    E12: Optional[float] = None
    E23: Optional[float] = None
    E13: Optional[float] = None
    E1_23: Optional[float] = None
    D12: Optional[float] = None
    D23: Optional[float] = None
    D1_23: Optional[float] = None
    Delta123: Optional[float] = None

    def as_dict(self):
        """Quantity name -> value mapping (parameters excluded)."""
        return {name: getattr(self, name) for name in QUANTITIES}


QUANTITIES = tuple(f.name for f in fields(CorrelationReport) if f.name != "params")


def w_limit_report(m, k=1):
    """Analytic |alpha|^2 -> 0 limits of the odd-parity (W-type) family.

    Populates exactly the quantities with a closed small-amplitude limit:
    E12 -> H((m+1)/(m+2)), C12 -> 2 sqrt(m+1)/(m+2),
    D12 -> H(2/(m+3)) - H((m+2)/(m+3)) + H(1/2 + sqrt((m+1)(m+5))/(2(m+3))),
    D23 with the mirrored entropy terms and sqrt(m^2+2m+5),
    D1|23 = E1|23 -> H(2/(m+3)), and Delta123 = D1|23 - 2 D12.
    """
    if k % 2 != 1:
        raise ValueError("analytic small-amplitude limits exist only for odd parity (k = 1)")
    n = float(m) + 3.0
    h = binary_entropy
    d12 = h(2.0 / n) - h((n - 1.0) / n) + h(0.5 + 0.5 * math.sqrt((n - 2.0) * (n + 2.0)) / n)
    d23 = h((n - 1.0) / n) - h(2.0 / n) + h(0.5 + 0.5 * math.sqrt(n * n - 4.0 * (n - 2.0)) / n)
    d1_23 = h(2.0 / n)
    return CorrelationReport(
        params=ModelParams(0.0, int(m), 1),
        C12_conc=w_bell_concurrence_limit(m),
        E12=h((float(m) + 1.0) / (float(m) + 2.0)),
        D12=d12,
        D23=d23,
        D1_23=d1_23,
        E1_23=d1_23,
        Delta123=d1_23 - 2.0 * d12,
    )


def report(params):
    """Fully populated correlation report, computed in one pass from a single
    kappa_m evaluation; degenerate odd-parity points fall back to the
    analytic limits with the missing fields left as None."""
    if params.is_degenerate:
        return replace(w_limit_report(params.m, params.k), params=params)
    a = params.alpha2
    km = params.kappa_m
    s = params.sign
    e2 = math.exp(-2.0 * a)
    e4 = math.exp(-4.0 * a)
    # GHZ norm 1 + kappa_m e^{-6a} cos k pi, with a = |alpha|^2
    denom = 1.0 + km * math.exp(-6.0 * a) * s
    # Each reduced density has rank two, so every entropy is the binary entropy
    # of its larger eigenvalue; purity of the three-mode state forces S1 = S23
    # and S2 = S12, but each formula keeps its own line.
    s1 = binary_entropy(0.5 * (1.0 + km * e2) * (1.0 + e4 * s) / denom)
    s2 = binary_entropy(0.5 * (1.0 + e2) * (1.0 + km * e4 * s) / denom)
    s12 = binary_entropy(0.5 * (1.0 + km * e4 * s) * (1.0 + e2) / denom)
    s23 = binary_entropy(0.5 * (1.0 + e4 * s) * (1.0 + km * e2) / denom)
    one_m_e4 = -math.expm1(-4.0 * a)
    radial = max(0.0, 1.0 - km**2 * e4)
    # C23 = |kappa_m| e^{-2a} (1 - e^{-4a}) / denom: kappa_m changes sign past
    # the first Laguerre zero once m >= 1; C13 and C1|23 carry kappa_m^2 only
    c23 = abs(km) * e2 * one_m_e4 / denom
    c13 = e2 * math.sqrt(radial * one_m_e4) / denom
    c1_23 = math.sqrt(radial * -math.expm1(-8.0 * a)) / denom
    e23 = eof_from_concurrence(c23)
    e13 = eof_from_concurrence(c13)
    d12 = s1 - s12 + e23  # Koashi-Winter, measurement on mode 1
    # pure 1|(23) cut, D = E = H(1/2 + (kappa_m e^{-2a} + e^{-4a} cos k pi) / (2 denom))
    d1_23 = binary_entropy(0.5 + 0.5 * (km * e2 + e4 * s) / denom)
    # quasi-Bell pair: C = sqrt(1 - e^{-4a}) sqrt(1 - kappa_m^2 e^{-4a}) / (1 + kappa_m e^{-4a} cos k pi)
    bell = math.sqrt(-math.expm1(-4.0 * a)) * math.sqrt(max(0.0, 1.0 - km**2 * e4))
    return CorrelationReport(
        params=params,
        S1=s1,
        S2=s2,
        S12=s12,
        S23=s23,
        C12_conc=bell / (1.0 + km * e4 * s),
        C23_conc=c23,
        C13_conc=c13,
        C1_23_conc=c1_23,
        # quasi-Bell pair: E = H(1/2 + e^{-2a}(1 + kappa_m cos k pi) / (2 + 2 kappa_m e^{-4a} cos k pi))
        E12=binary_entropy(0.5 + e2 * (1.0 + km * s) / (2.0 + 2.0 * km * e4 * s)),
        E23=e23,
        E13=e13,
        E1_23=d1_23,
        D12=d12,
        D23=s2 - s23 + e13,  # Koashi-Winter, measurement on mode 2
        D1_23=d1_23,
        Delta123=d1_23 - 2.0 * d12,  # D_{1|23} - D_12 - D_13, and D_13 = D_12
    )


_SCAN_LO = 1e-6
_SCAN_HI = 2.0
_SCAN_POINTS = 200
# Deficit magnitudes below this count as zero when looking for a sign change,
# so float noise at a monogamous boundary cannot fake a crossing.
_SIGN_BAND = 1e-9


def violation_threshold(m, k=1):
    """Strength |alpha|^2 at which the monogamy deficit changes sign.

    Scans the deficit on a 200-point log grid over (1e-6, 2] to bracket a
    crossing, then bisects the bracket down to |d alpha2| <= 1e-6.  Returns
    None when the deficit never changes sign (discord monogamous on the
    whole window).
    """

    def f(alpha2):
        return deficit(ModelParams(alpha2, m, k))

    lo_exp = math.log10(_SCAN_LO)
    hi_exp = math.log10(_SCAN_HI)
    grid = [10.0 ** (lo_exp + i * (hi_exp - lo_exp) / (_SCAN_POINTS - 1)) for i in range(_SCAN_POINTS)]
    values = [f(a) for a in grid]
    for i in range(_SCAN_POINTS - 1):
        v0, v1 = values[i], values[i + 1]
        if (v0 < -_SIGN_BAND and v1 > _SIGN_BAND) or (v0 > _SIGN_BAND and v1 < -_SIGN_BAND):
            break
    else:
        return None
    lo, hi, f_lo = grid[i], grid[i + 1], v0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def discord_12_peak(m, k=0, lo=0.01, hi=4.0):
    """(argmax, max) of D_12 over |alpha|^2 in [lo, hi].

    A 400-point coarse scan brackets the peak; golden-section search then
    narrows the bracket to 1e-10.
    """

    def f(alpha2):
        return discord_12(ModelParams(alpha2, m, k))

    n = 400
    grid = [lo + i * (hi - lo) / (n - 1) for i in range(n)]
    best = max(range(n), key=lambda i: f(grid[i]))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, n - 1)]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > 1e-10:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    peak = 0.5 * (a + b)
    return peak, f(peak)
