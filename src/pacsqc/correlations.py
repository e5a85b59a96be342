"""Closed-form correlation measures for the encoded coherent-state family.

`closed_forms` is the one closed-form computation: every field at a
parameter point (|alpha|^2, m, k) follows from kappa_m, e^{-2|alpha|^2} and
the GHZ norm 1 + kappa_m e^{-6|alpha|^2} cos k pi, evaluated once per point.
|alpha|^2 is a float or a 1-D float64 array; one body serves both, with
the non-arithmetic primitives picked once per call, so an array gives the
float values bit for bit.  `report` wraps the float call in a
`CorrelationReport`; `discord_12`, `discord_23`, `discord_1_23` and
`deficit` are views of its fields.  The threshold and peak finders scan
their grids in one array call and refine with float calls.

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

import functools
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .special import (
    _binary_entropy_array, _check_alpha2_or_array, _check_order, _elementwise, _first_failure, binary_entropy, kappa,
)
from .states import ModelParams, _check_parity, _degenerate, _require_regular

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
    "closed_forms",
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


def _eof_array(c):
    # eof_from_concurrence of every element of a float64 array, rounded as
    # the float function rounds
    _first_failure(eof_from_concurrence, c, (c >= -1e-12) & (c <= 1.0 + 1e-12))
    c = np.minimum(np.maximum(c, 0.0), 1.0)
    return _binary_entropy_array(0.5 + 0.5 * np.sqrt(np.maximum(0.0, 1.0 - c * c)))


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
    if _check_parity(k) != 1:
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
    return CorrelationReport(params, *_closed_forms(params.alpha2, params.m, params.k))


def closed_forms(alpha2, m=0, k=0):
    """Every `report` field at the strength alpha2, as a quantity -> value
    dict, where alpha2 is a float or a 1-D float64 array (one value per
    element, equal to the float call's bit for bit).

    Raises LimitRegimeError where an odd-parity strength lies below
    DEGENERATE_ALPHA2 (`report` returns the analytic limits there).
    """
    a, m, k = _check_alpha2_or_array(alpha2), _check_order(m), _check_parity(k)
    _require_regular(a, k)
    return dict(zip(QUANTITIES, _closed_forms(a, m, k)))


def _square(v):
    return v**2  # libm pow, which rounds differently from v * v


def _nonneg(v):
    return max(0.0, v)


# The closed forms' primitives beyond + - * / on float64 arrays: numpy where
# it rounds exactly (sqrt, maximum), else the C-library function per element
# (exp, expm1, pow, log2), so every element rounds as the float call does.
_ARRAY_PRIMITIVES = (
    functools.partial(_elementwise, math.exp),
    functools.partial(_elementwise, math.expm1),
    np.sqrt,
    functools.partial(_elementwise, _square),
    functools.partial(np.maximum, 0.0),
    _binary_entropy_array,
    _eof_array,
)


def _closed_forms(a, m, k):
    # a = |alpha|^2 (float or checked 1-D array), checked m and k
    if isinstance(a, np.ndarray):
        exp, expm1, sqrt, square, nonneg, entropy, eof = _ARRAY_PRIMITIVES
    else:
        exp, expm1, sqrt, square, nonneg = math.exp, math.expm1, math.sqrt, _square, _nonneg
        entropy, eof = binary_entropy, eof_from_concurrence
    s = 1 - 2 * k  # cos k pi
    km = kappa(m, a)
    e2 = exp(-2.0 * a)
    e4 = exp(-4.0 * a)
    # GHZ norm 1 + kappa_m e^{-6a} cos k pi
    denom = 1.0 + km * exp(-6.0 * a) * s
    # Each reduced density has rank two, so every entropy is the binary entropy
    # of its larger eigenvalue; purity of the three-mode state forces S1 = S23
    # and S2 = S12, but each formula keeps its own line.
    s1 = entropy(0.5 * (1.0 + km * e2) * (1.0 + e4 * s) / denom)
    s2 = entropy(0.5 * (1.0 + e2) * (1.0 + km * e4 * s) / denom)
    s12 = entropy(0.5 * (1.0 + km * e4 * s) * (1.0 + e2) / denom)
    s23 = entropy(0.5 * (1.0 + e4 * s) * (1.0 + km * e2) / denom)
    one_m_e4 = -expm1(-4.0 * a)
    radial = nonneg(1.0 - square(km) * e4)
    # C23 = |kappa_m| e^{-2a} (1 - e^{-4a}) / denom: kappa_m changes sign past
    # the first Laguerre zero once m >= 1; C13 and C1|23 carry kappa_m^2 only
    c23 = abs(km) * e2 * one_m_e4 / denom
    c13 = e2 * sqrt(radial * one_m_e4) / denom
    c1_23 = sqrt(radial * -expm1(-8.0 * a)) / denom
    e23 = eof(c23)
    e13 = eof(c13)
    d12 = s1 - s12 + e23  # Koashi-Winter, measurement on mode 1
    # pure 1|(23) cut, D = E = H(1/2 + (kappa_m e^{-2a} + e^{-4a} cos k pi) / (2 denom))
    d1_23 = entropy(0.5 + 0.5 * (km * e2 + e4 * s) / denom)
    # quasi-Bell pair: C = sqrt(1 - e^{-4a}) sqrt(1 - kappa_m^2 e^{-4a}) / (1 + kappa_m e^{-4a} cos k pi)
    c12 = sqrt(one_m_e4) * sqrt(radial) / (1.0 + km * e4 * s)
    # quasi-Bell pair: E = H(1/2 + e^{-2a}(1 + kappa_m cos k pi) / (2 + 2 kappa_m e^{-4a} cos k pi))
    e12 = entropy(0.5 + e2 * (1.0 + km * s) / (2.0 + 2.0 * km * e4 * s))
    d23 = s2 - s23 + e13  # Koashi-Winter, measurement on mode 2
    delta = d1_23 - 2.0 * d12  # D_{1|23} - D_12 - D_13, and D_13 = D_12
    # in QUANTITIES order; E1_23 = D1_23 on the pure 1|(23) cut
    return s1, s2, s12, s23, c12, c23, c13, c1_23, e12, e23, e13, d1_23, d12, d23, d1_23, delta


def _field(m, k, index, alpha2):
    # the finders' field: `report` field QUANTITIES[index] at a float or at
    # each element of a checked array; degenerate strengths take the W-type
    # limit, which an array takes from its value at alpha2 = 0
    if not isinstance(alpha2, np.ndarray):
        if _degenerate(alpha2, k):
            return getattr(w_limit_report(m), QUANTITIES[index])
        return _closed_forms(alpha2, m, k)[index]
    limit = _degenerate(alpha2, k)
    value = np.full(alpha2.shape, _field(m, k, index, 0.0) if limit.any() else math.nan)
    value[~limit] = _closed_forms(alpha2[~limit], m, k)[index]
    return value


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
    f = functools.partial(_field, _check_order(m), _check_parity(k), QUANTITIES.index("Delta123"))
    lo_exp = math.log10(_SCAN_LO)
    hi_exp = math.log10(_SCAN_HI)
    grid = [10.0 ** (lo_exp + i * (hi_exp - lo_exp) / (_SCAN_POINTS - 1)) for i in range(_SCAN_POINTS)]
    values = f(np.array(grid)).tolist()
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
    narrows the bracket to 1e-10.  Raises ValueError unless lo < hi.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo!r}, hi={hi!r}")
    f = functools.partial(_field, _check_order(m), _check_parity(k), QUANTITIES.index("D12"))
    n = 400
    grid = [lo + i * (hi - lo) / (n - 1) for i in range(n)]
    best = max(range(n), key=f(_check_alpha2_or_array(np.array(grid))).tolist().__getitem__)
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
