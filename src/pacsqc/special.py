"""Special functions and entropy primitives.

Everything downstream (state constructors, closed-form correlation measures,
oracle comparisons) reduces to three ingredients: Laguerre polynomials
L_m(x), the overlap ratio kappa_m = L_m(x)/L_m(-x) of opposite-phase
photon-added coherent states, and the base-2 binary entropy.  `laguerre` and
`kappa` take their argument as a float or as a 1-D float64 array; an array
is evaluated elementwise with the same roundings as the float.  All
functions here are pure and safe for concurrent use.
"""

import functools
import math

import numpy as np

__all__ = [
    "MAX_PHOTON_ORDER",
    "laguerre",
    "kappa",
    "kappa_small_alpha",
    "pacs_overlap",
    "binary_entropy",
]

MAX_PHOTON_ORDER = 64

_ENTROPY_GUARD = 1e-12
_SMALL_ALPHA_WINDOW = 0.05


def _check_order(m):
    if m != int(m):
        raise ValueError(f"photon order must be an integer, got {m!r}")
    m = int(m)
    if not 0 <= m <= MAX_PHOTON_ORDER:
        raise ValueError(f"photon order must lie in [0, {MAX_PHOTON_ORDER}], got {m}")
    return m


def _check_alpha2(alpha2):
    alpha2 = float(alpha2)
    if not math.isfinite(alpha2) or alpha2 < 0.0:
        raise ValueError(f"|alpha|^2 must be finite and non-negative, got {alpha2!r}")
    return alpha2


def _check_alpha2_or_array(alpha2):
    """`_check_alpha2`, or a float64 copy of a 1-D array checked element by element."""
    if not isinstance(alpha2, np.ndarray):
        return _check_alpha2(alpha2)
    alpha2 = _float_array(alpha2)
    _first_failure(_check_alpha2, alpha2, np.isfinite(alpha2) & (alpha2 >= 0.0))
    return alpha2


def _float_array(x):
    x = x.astype(float)
    if x.ndim != 1:
        raise ValueError(f"array arguments must be one-dimensional, got shape {x.shape}")
    return x


def _first_failure(check, values, ok):
    # An array fails as its first failing element fails as a float: the
    # scalar check raises the error, so both raise the same one.
    if not ok.all():
        check(float(values[~ok][0]))


def _elementwise(fn, x):
    """The float function fn applied to every element of a float64 array.

    One call of fn per element, so each element rounds exactly as the float
    call does; numpy's own exp and log2, for instance, round differently
    from the C library in a few per cent of inputs.
    """
    return np.fromiter(map(fn, x.tolist()), float, count=x.size)


def laguerre(m, x):
    """Laguerre polynomial L_m(x) via the three-term recurrence.

    Parameters
    ----------
    m : int
        Polynomial order, 0 <= m <= MAX_PHOTON_ORDER.
    x : float or 1-D ndarray
        Evaluation point(s), any finite real.

    Returns
    -------
    float, or a float64 array shaped like x

    Raises
    ------
    OverflowError
        Where the recurrence leaves the finite float range (m = 64 from
        |x| ~ 1.5e6), at any element of an array.

    Notes
    -----
    Uses (n+1) L_{n+1} = (2n+1-x) L_n - n L_{n-1}, which keeps full accuracy
    at orders where the alternating power-series form already loses digits
    to cancellation.  The recurrence is plain arithmetic, which numpy rounds
    as Python does, so an array gives the float values bit for bit.
    """
    m = _check_order(m)
    if isinstance(x, np.ndarray):
        x = _float_array(x)
        check = functools.partial(laguerre, m)
        _first_failure(check, x, np.isfinite(x))
        with np.errstate(over="ignore", invalid="ignore"):
            cur = _recurrence(m, x)
        _first_failure(check, x, np.isfinite(cur))
        return cur
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"laguerre argument must be finite, got {x!r}")
    cur = _recurrence(m, x)
    if not math.isfinite(cur):
        raise OverflowError(f"L_{m}({x!r}) leaves the float range in the Laguerre recurrence")
    return cur


# The recurrence's coefficients (2n + 1, n, n + 1) as floats, and for each
# order m the steps n = 1 .. m - 1 it takes, built once; each equals the
# value the recurrence would build from n, so reading them changes no rounding.
_COEFFICIENTS = tuple((2.0 * n + 1.0, float(n), n + 1.0) for n in range(1, MAX_PHOTON_ORDER))
_STEPS = tuple(_COEFFICIENTS[:max(m - 1, 0)] for m in range(MAX_PHOTON_ORDER + 1))


def _recurrence(m, x):
    if m == 0:
        return 1.0 + 0.0 * x  # 1.0, shaped like x
    prev = 1.0
    cur = 1.0 - x
    for c, n, d in _STEPS[m]:
        prev, cur = cur, ((c - x) * cur - n * prev) / d
    return cur


def _scaled_laguerre(m, x, scale):
    # L_m(x) / scale^m (m >= 1) through the same recurrence, so orders whose
    # L_m(x) overflows stay in range when scale ~ |x|
    prev = 1.0
    cur = (1.0 - x) / scale
    for c, n, d in _STEPS[m]:
        prev, cur = cur, ((c - x) / scale * cur - n * prev / (scale * scale)) / d
    return cur


def kappa(m, alpha2):
    """Overlap ratio kappa_m(|alpha|^2) = L_m(|alpha|^2) / L_m(-|alpha|^2).

    The denominator is a sum of positive terms and therefore strictly
    positive for alpha2 >= 0; the triangle inequality gives |kappa| <= 1.
    Where L_m(-|alpha|^2) overflows (m = 64 from |alpha|^2 ~ 1.5e6) both
    polynomials are taken in units of |alpha|^(2m) instead.  A float alpha2
    runs both polynomials in one loop over precomputed coefficients, each
    with the operations and roundings of `laguerre`; a 1-D float64 array
    takes both from one `laguerre` recurrence over its negated and plain
    strengths.
    """
    if isinstance(alpha2, np.ndarray):
        alpha2 = _check_alpha2_or_array(alpha2)
        try:
            both = laguerre(m, np.concatenate([-alpha2, alpha2]))
        except OverflowError:
            # the elements whose denominator overflows take the scaled branch
            return _elementwise(functools.partial(kappa, m), alpha2)
        return both[alpha2.size:] / both[:alpha2.size]
    m, a = _check_order(m), _check_alpha2(alpha2)
    if m == 0:
        return 1.0
    # numerator L_m(a) and denominator L_m(-a), where c - (-a) is c + a and
    # 1.0 - (-a) is 1.0 + a, bit for bit
    num_prev = den_prev = 1.0
    num, den = 1.0 - a, 1.0 + a
    for c, n, d in _STEPS[m]:
        num_prev, num = num, ((c - a) * num - n * num_prev) / d
        den_prev, den = den, ((c + a) * den - n * den_prev) / d
    if not math.isfinite(den):
        return _scaled_laguerre(m, a, a) / _scaled_laguerre(m, -a, a)
    if not math.isfinite(num):
        raise OverflowError(f"L_{m}({a!r}) leaves the float range in the Laguerre recurrence")
    return num / den


def kappa_small_alpha(m, alpha2):
    """First-order expansion kappa_m ~ 1 - 2 m |alpha|^2 of the overlap ratio.

    Valid only on the small-amplitude window alpha2 < 0.05; outside it the
    truncated series is misleading and a ValueError is raised.
    """
    m = _check_order(m)
    alpha2 = _check_alpha2(alpha2)
    if alpha2 >= _SMALL_ALPHA_WINDOW:
        raise ValueError(
            f"small-amplitude expansion requires |alpha|^2 < {_SMALL_ALPHA_WINDOW}, got {alpha2}"
        )
    return 1.0 - 2.0 * m * alpha2


def pacs_overlap(m, alpha2):
    """Overlap <-alpha,m | alpha,m> = exp(-2 |alpha|^2) kappa_m of the
    opposite-phase m-photon-added coherent-state pair.  Magnitude <= 1."""
    alpha2 = _check_alpha2(alpha2)
    return math.exp(-2.0 * alpha2) * kappa(m, alpha2)


def binary_entropy(x):
    """Binary entropy H(x) = -x log2 x - (1-x) log2 (1-x) with H(0) = H(1) = 0.

    The argument may stray outside [0, 1] by at most 1e-12 (floating-point
    guard) and is clamped back; larger excursions indicate an upstream bug
    and raise instead of being silently absorbed.
    """
    x = float(x)
    if not -_ENTROPY_GUARD <= x <= 1.0 + _ENTROPY_GUARD:
        raise ValueError(f"binary entropy argument outside the [0, 1] guard band: {x!r}")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _c_log2(y):
    # the C library's log2 of every element, as math.log2 rounds it
    return _elementwise(math.log2, y)


def _binary_entropy_array(x, log2=_c_log2):
    # binary_entropy of every element of a checked float64 array, with the
    # float function's check and zeros; the default log2 also keeps its
    # roundings, where numpy's np.log2 is ~50x faster and rounds
    # differently in ~0.2% of inputs.  An array inside (0, 1) passes the
    # check and needs no gather or scatter.
    inside = (x > 0.0) & (x < 1.0)
    if inside.all():
        return _entropy_inside(x, log2)
    _first_failure(binary_entropy, x, (x >= -_ENTROPY_GUARD) & (x <= 1.0 + _ENTROPY_GUARD))
    h = np.zeros(x.shape)
    h[inside] = _entropy_inside(x[inside], log2)
    return h


def _entropy_inside(y, log2):
    return -(y * log2(y) + (1.0 - y) * log2(1.0 - y))
