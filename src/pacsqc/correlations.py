"""Closed-form correlation measures for the encoded coherent-state family.

`closed_forms` is the one closed-form computation: every field at a
parameter point (|alpha|^2, m, k) follows from kappa_m, e^{-2|alpha|^2} and
the GHZ norm 1 + kappa_m e^{-6|alpha|^2} cos k pi, evaluated once per point.
|alpha|^2 is a float or a 1-D float64 array; one body serves both, with
the non-arithmetic primitives passed in as a set.  Two contracts hold:

- a public array (`closed_forms`) gives the float calls' values bit for
  bit: its set takes the C library per element wherever numpy rounds
  differently;
- a finder scan only steers: its set is numpy's own ufuncs, its values lie
  within ~1e-15 of the float calls', and it only picks the bracket that
  float calls refine, so every finder answer is a float call's value.

`report` wraps the float call in a `CorrelationReport`; `discord_12`,
`discord_23`, `discord_1_23` and `deficit` are views of its fields.  The
exponentials e^{-2a}, e^{-4a}, e^{-6a} and 1 - e^{-4a} depend on the
strength alone and enter the body as an argument.  The body runs in nested
stages: the D12 stage computes kappa_m, the GHZ norm and D12 (from S1, S12,
C23 and E23), the first stage extends it with D1_23 and the deficit
Delta123, and the last stage gives the other fields.  The threshold and
peak finders evaluate the smallest stage that holds their field: they scan
their grids in one array call, with the exponentials built once per scan
grid, and refine with float calls.

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
    _binary_entropy_array, _check_alpha2, _check_alpha2_or_array, _check_order, _elementwise, _first_failure,
    binary_entropy, kappa,
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
    # clamped by comparisons, cheaper per call than min and max; c <= 1
    # keeps 1 - c^2 >= 0
    c = 0.0 if c < 0.0 else 1.0 if c > 1.0 else c
    return binary_entropy(0.5 + 0.5 * math.sqrt(1.0 - c * c))


def _eof_array(c, entropy):
    # eof_from_concurrence of every element of a float64 array, with its
    # check, through the array entropy `entropy` of a primitive set
    _first_failure(eof_from_concurrence, c, (c >= -1e-12) & (c <= 1.0 + 1e-12))
    c = np.minimum(np.maximum(c, 0.0), 1.0)
    return entropy(0.5 + 0.5 * np.sqrt(np.maximum(0.0, 1.0 - c * c)))


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
    a = params.alpha2
    return CorrelationReport(params, *_closed_forms(a, params.m, params.k, _strength_terms(a), _primitives(a)))


def closed_forms(alpha2, m=0, k=0):
    """Every `report` field at the strength alpha2, as a quantity -> value
    dict, where alpha2 is a float or a 1-D float64 array (one value per
    element, equal to the float call's bit for bit).

    Raises LimitRegimeError where an odd-parity strength lies below
    DEGENERATE_ALPHA2 (`report` returns the analytic limits there).
    """
    a, m, k = _check_alpha2_or_array(alpha2), _check_order(m), _check_parity(k)
    _require_regular(a, k)
    return dict(zip(QUANTITIES, _closed_forms(a, m, k, _strength_terms(a), _primitives(a))))


def _square(v):
    return v**2  # libm pow, which rounds differently from v * v


def _nonneg(v):
    return max(0.0, v)


def _primitives(a):
    # The closed forms' primitives beyond + - * /, picked per call from the
    # module's names: (exp, expm1, sqrt, square, nonneg, entropy, eof).  On
    # float64 arrays numpy where it rounds exactly (sqrt, maximum), else the
    # C-library function per element (exp, expm1, pow, log2), so every
    # element rounds as the float call does.
    if not isinstance(a, np.ndarray):
        return math.exp, math.expm1, math.sqrt, _square, _nonneg, binary_entropy, eof_from_concurrence
    each = functools.partial(functools.partial, _elementwise)
    return (
        each(math.exp), each(math.expm1), np.sqrt, each(_square), functools.partial(np.maximum, 0.0),
        _binary_entropy_array, functools.partial(_eof_array, entropy=_binary_entropy_array),
    )


# The finder scans' primitives, in `_primitives` order: numpy's own ufuncs,
# with the float functions' checks on the entropy and EoF arguments.  A scan
# value is never printed; it only picks the bracket that the float calls
# refine, so it need not round as the float call does.  numpy's log2 takes
# ~1 ns per element where the C library, called per element, takes ~60 ns.
_scan_entropy = functools.partial(_binary_entropy_array, log2=np.log2)
_SCAN_PRIMITIVES = (
    np.exp, np.expm1, np.sqrt, np.square, functools.partial(np.maximum, 0.0),
    _scan_entropy, functools.partial(_eof_array, entropy=_scan_entropy),
)


def _strength_terms(a):
    # The closed forms' exponentials of a = |alpha|^2 (float or checked 1-D
    # array): e^{-2a}, e^{-4a}, e^{-6a} and 1 - e^{-4a}.  They depend on the
    # strength alone, so a finder builds them once per scan grid.  A float
    # takes math's functions without building the other primitives.
    exp, expm1 = _primitives(a)[:2] if isinstance(a, np.ndarray) else (math.exp, math.expm1)
    return exp(-2.0 * a), exp(-4.0 * a), exp(-6.0 * a), -expm1(-4.0 * a)


# The fields of the nested stages, in the order each returns them: the D12
# stage holds the peak finder's field, the first stage extends it with the
# threshold finder's field Delta123, and `_closed_forms` gives the rest.
_D12_STAGE = ("S1", "S12", "C23_conc", "E23", "D12")
_FIRST_STAGE = _D12_STAGE + ("D1_23", "Delta123")


def _d12_stage(a, m, k, terms, primitives):
    # a = |alpha|^2 (float or checked 1-D array), checked m and k, a's
    # `_strength_terms` and a primitive set (`_primitives(a)` or, for an
    # array scan, `_SCAN_PRIMITIVES`).  The _D12_STAGE fields, then what the
    # later stages share: the primitives, s = cos k pi, kappa_m and the GHZ
    # norm.
    entropy, eof = primitives[5:]
    e2, e4, e6, one_m_e4 = terms
    s = 1 - 2 * k  # cos k pi
    km = kappa(m, a)
    # GHZ norm 1 + kappa_m e^{-6a} cos k pi
    denom = 1.0 + km * e6 * s
    # Each reduced density has rank two, so every entropy is the binary entropy
    # of its larger eigenvalue; purity of the three-mode state forces S1 = S23
    # and S2 = S12, but each formula keeps its own line.
    s1 = entropy(0.5 * (1.0 + km * e2) * (1.0 + e4 * s) / denom)
    s12 = entropy(0.5 * (1.0 + km * e4 * s) * (1.0 + e2) / denom)
    # C23 = |kappa_m| e^{-2a} (1 - e^{-4a}) / denom: kappa_m changes sign past
    # the first Laguerre zero once m >= 1
    c23 = abs(km) * e2 * one_m_e4 / denom
    e23 = eof(c23)
    d12 = s1 - s12 + e23  # Koashi-Winter, measurement on mode 1
    return s1, s12, c23, e23, d12, primitives, s, km, denom


def _first_stage(a, m, k, terms, primitives):
    # the _FIRST_STAGE fields (the D12 stage's, then D1_23 and Delta123),
    # then what the D12 stage shares
    s1, s12, c23, e23, d12, primitives, s, km, denom = _d12_stage(a, m, k, terms, primitives)
    entropy = primitives[5]
    e2, e4 = terms[:2]
    # pure 1|(23) cut, D = E = H(1/2 + (kappa_m e^{-2a} + e^{-4a} cos k pi) / (2 denom))
    d1_23 = entropy(0.5 + 0.5 * (km * e2 + e4 * s) / denom)
    delta = d1_23 - 2.0 * d12  # D_{1|23} - D_12 - D_13, and D_13 = D_12
    return s1, s12, c23, e23, d12, d1_23, delta, primitives, s, km, denom


def _closed_forms(a, m, k, terms, primitives):
    # every field, in QUANTITIES order: the first stage, then the others
    s1, s12, c23, e23, d12, d1_23, delta, primitives, s, km, denom = _first_stage(a, m, k, terms, primitives)
    _, expm1, sqrt, square, nonneg, entropy, eof = primitives
    e2, e4, _, one_m_e4 = terms
    s2 = entropy(0.5 * (1.0 + e2) * (1.0 + km * e4 * s) / denom)
    s23 = entropy(0.5 * (1.0 + e4 * s) * (1.0 + km * e2) / denom)
    radial = nonneg(1.0 - square(km) * e4)
    # C13 and C1|23 carry kappa_m^2 only
    c13 = e2 * sqrt(radial * one_m_e4) / denom
    c1_23 = sqrt(radial * -expm1(-8.0 * a)) / denom
    e13 = eof(c13)
    # quasi-Bell pair: C = sqrt(1 - e^{-4a}) sqrt(1 - kappa_m^2 e^{-4a}) / (1 + kappa_m e^{-4a} cos k pi)
    c12 = sqrt(one_m_e4) * sqrt(radial) / (1.0 + km * e4 * s)
    # quasi-Bell pair: E = H(1/2 + e^{-2a}(1 + kappa_m cos k pi) / (2 + 2 kappa_m e^{-4a} cos k pi))
    e12 = entropy(0.5 + e2 * (1.0 + km * s) / (2.0 + 2.0 * km * e4 * s))
    d23 = s2 - s23 + e13  # Koashi-Winter, measurement on mode 2
    # E1_23 = D1_23 on the pure 1|(23) cut
    return s1, s2, s12, s23, c12, c23, c13, c1_23, e12, e23, e13, d1_23, d12, d23, d1_23, delta


def _evaluate(name, a, m, k, terms, primitives):
    # `report` field `name` at a checked float or array strength with its
    # strength terms and a primitive set, from the smallest stage that holds
    # the field
    if name in _D12_STAGE:
        return _d12_stage(a, m, k, terms, primitives)[_D12_STAGE.index(name)]
    if name in _FIRST_STAGE:
        return _first_stage(a, m, k, terms, primitives)[_FIRST_STAGE.index(name)]
    return _closed_forms(a, m, k, terms, primitives)[QUANTITIES.index(name)]


def _field(m, k, name, alpha2, terms=None):
    # the finders' field: `report` field `name` at a float, or a scan of it
    # over a checked array, whose strength terms a scan passes in (built
    # here when it does not).  A float rounds as `report` does; a scan takes
    # `_SCAN_PRIMITIVES` and lies within ~1e-15 of the float calls.
    # Degenerate strengths take the W-type limit, which an array takes from
    # its value at alpha2 = 0.
    if not isinstance(alpha2, np.ndarray):
        if _degenerate(alpha2, k):
            return getattr(w_limit_report(m), name)
        return _evaluate(name, alpha2, m, k, _strength_terms(alpha2), _primitives(alpha2))
    if terms is None:
        terms = _strength_terms(alpha2)
    limit = _degenerate(alpha2, k)
    if not limit.any():
        return _evaluate(name, alpha2, m, k, terms, _SCAN_PRIMITIVES)
    regular = ~limit
    value = np.full(alpha2.shape, _field(m, k, name, 0.0))
    value[regular] = _evaluate(name, alpha2[regular], m, k, tuple(t[regular] for t in terms), _SCAN_PRIMITIVES)
    return value


def _read_only(x):
    # x, frozen: a finder's cached scan grid and terms are shared by every call
    x.flags.writeable = False
    return x


_SCAN_LO = 1e-6
_SCAN_HI = 2.0
_SCAN_POINTS = 200
# Deficit magnitudes below this count as zero when looking for a sign change,
# so float noise at a monogamous boundary cannot fake a crossing.
_SIGN_BAND = 1e-9
# The log grid `violation_threshold` scans and its strength terms, built once.
_SCAN_EXP_LO, _SCAN_EXP_HI = math.log10(_SCAN_LO), math.log10(_SCAN_HI)
_THRESHOLD_GRID = _read_only(np.array([
    10.0 ** (_SCAN_EXP_LO + i * (_SCAN_EXP_HI - _SCAN_EXP_LO) / (_SCAN_POINTS - 1)) for i in range(_SCAN_POINTS)
]))
_THRESHOLD_TERMS = tuple(map(_read_only, _strength_terms(_THRESHOLD_GRID)))


def violation_threshold(m, k=1):
    """Strength |alpha|^2 at which the monogamy deficit changes sign.

    Scans the deficit on a 200-point log grid over (1e-6, 2] to bracket a
    crossing, then bisects the bracket down to |d alpha2| <= 1e-6.  Returns
    None when the deficit never changes sign (discord monogamous on the
    whole window).
    """
    f = functools.partial(_field, _check_order(m), _check_parity(k), "Delta123")
    values = f(_THRESHOLD_GRID, _THRESHOLD_TERMS).tolist()
    for i in range(_SCAN_POINTS - 1):
        v0, v1 = values[i], values[i + 1]
        if (v0 < -_SIGN_BAND and v1 > _SIGN_BAND) or (v0 > _SIGN_BAND and v1 < -_SIGN_BAND):
            break
    else:
        return None
    lo, hi, f_lo = float(_THRESHOLD_GRID[i]), float(_THRESHOLD_GRID[i + 1]), v0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_PEAK_POINTS = 400


@functools.lru_cache(maxsize=8)
def _peak_grid(lo, hi):
    # the coarse grid `discord_12_peak` scans over checked [lo, hi], and its
    # strength terms, read-only; each step rounds as
    # lo + i * (hi - lo) / (n - 1) does in floats.  lo = -0.0 shares the
    # entry of 0.0: both give the same grid bit for bit.
    grid = lo + np.arange(_PEAK_POINTS) * (hi - lo) / (_PEAK_POINTS - 1)
    return _read_only(grid), tuple(map(_read_only, _strength_terms(grid)))


def discord_12_peak(m, k=0, lo=0.01, hi=4.0):
    """(argmax, max) of D_12 over |alpha|^2 in [lo, hi].

    A 400-point coarse scan brackets the peak; golden-section search then
    narrows the bracket to 1e-10.  Raises ValueError unless lo and hi are
    finite and non-negative with lo < hi.
    """
    n = _PEAK_POINTS
    lo, hi = _check_alpha2(lo), _check_alpha2(hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo!r}, hi={hi!r}")
    if not math.isfinite((n - 1) * (hi - lo)):
        raise ValueError(f"need a finite {n}-point grid over [lo, hi], got lo={lo!r}, hi={hi!r}")
    f = functools.partial(_field, _check_order(m), _check_parity(k), "D12")
    grid, terms = _peak_grid(lo, hi)
    best = max(range(n), key=f(grid, terms).tolist().__getitem__)
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, n - 1)])
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
