import math

import numpy as np
import pytest

from pacsqc.correlations import report
from pacsqc.states import ModelParams
from pacsqc.special import (
    MAX_PHOTON_ORDER,
    _binary_entropy_array,
    _scaled_laguerre,
    binary_entropy,
    kappa,
    kappa_small_alpha,
    laguerre,
    pacs_overlap,
)


def laguerre_direct(m, x):
    """Alternating factorial sum, kept only as a cross-check oracle."""
    return sum(
        (-1) ** n * math.factorial(m) * x**n / (math.factorial(n) ** 2 * math.factorial(m - n))
        for n in range(m + 1)
    )


class TestLaguerre:
    @pytest.mark.parametrize(
        "m, x, expected",
        [
            (0, 7.3, 1.0),
            (1, 2.0, -1.0),
            (2, -1.0, 3.5),
        ],
    )
    def test_values(self, m, x, expected):
        assert laguerre(m, x) == pytest.approx(expected, abs=1e-14)

    def test_matches_direct_sum(self):
        for m in range(11):
            for x in [-10.0, -5.5, -1.0, -0.1, 0.0, 0.3, 2.0, 7.7, 10.0]:
                ref = laguerre_direct(m, x)
                assert laguerre(m, x) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_invalid_order(self):
        for bad in (-1, MAX_PHOTON_ORDER + 1, 1.5):
            with pytest.raises(ValueError):
                laguerre(bad, 1.0)

    def test_nonfinite_argument(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                laguerre(2, bad)

    def test_overflow_raises(self):
        # the recurrence leaves the float range for m = 64 from |x| ~ 1.5e6
        for x in (1e7, -1e7):
            with pytest.raises(OverflowError, match=r"L_64\("):
                laguerre(64, x)
        assert math.isfinite(laguerre(64, 1.4e6)) and math.isfinite(laguerre(64, -1.4e6))
        assert kappa(64, 1e7) == pytest.approx(0.99918, abs=1e-5)


class TestKappa:
    def test_order_zero_is_one(self):
        assert kappa(0, 1.7) == 1.0

    def test_known_values(self):
        assert kappa(1, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert kappa(1, 2.0) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_unit_at_zero_strength(self):
        for m in range(MAX_PHOTON_ORDER + 1):
            assert kappa(m, 0.0) == 1.0

    def test_bounded_by_one(self):
        for m in (0, 1, 2, 5, 17, 40, 64):
            for alpha2 in (0.0, 0.05, 0.5, 1.0, 3.3, 10.0, 25.0):
                assert abs(kappa(m, alpha2)) <= 1.0 + 1e-12

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            kappa(1, -0.5)

    def test_overflowing_denominator(self):
        # L_64(-1e7) overflows; kappa_64 still rises monotonically towards 1
        value = kappa(64, 1e7)
        assert math.isfinite(value) and abs(value) <= 1.0
        assert kappa(64, 1e6) <= value <= 1.0
        rep = report(ModelParams(1e7, 64, 0))
        assert abs(rep.E12 - 1.0) <= 1e-6
        assert abs(rep.D12) <= 1e-6
        assert abs(rep.D1_23 - 1.0) <= 1e-6
        assert abs(rep.Delta123 - 1.0) <= 1e-5

    def test_float_call_is_the_laguerre_ratio(self):
        # the one-loop float path gives L_m(a) / L_m(-a) of two `laguerre`
        # calls bit for bit
        rng = np.random.default_rng(20)
        strengths = [0.0] + (10.0 ** rng.uniform(-8.0, math.log10(20.0), 60)).tolist()
        for m in range(MAX_PHOTON_ORDER + 1):
            for alpha2 in strengths:
                assert kappa(m, alpha2) == laguerre(m, alpha2) / laguerre(m, -alpha2), (m, alpha2)

    def test_scaled_branch_where_the_denominator_overflows(self):
        # L_64(-a) leaves the float range from a ~ 1.5152e6: below it the
        # float call is the plain ratio, above it the scaled one, exactly
        for alpha2 in (1.4e6, 1.5e6):
            assert math.isfinite(laguerre(64, -alpha2)) and math.isfinite(laguerre(64, alpha2))
            assert kappa(64, alpha2) == laguerre(64, alpha2) / laguerre(64, -alpha2)
        for alpha2 in (1.6e6, 1e10, 1e300):
            with pytest.raises(OverflowError):
                laguerre(64, -alpha2)
            assert kappa(64, alpha2) == _scaled_laguerre(64, alpha2, alpha2) / _scaled_laguerre(64, -alpha2, alpha2)

    def test_scaled_recurrence_matches_direct_ratio(self):
        for m, alpha2 in ((64, 1e6), (63, 1e6), (5, 30.0), (1, 2.0)):
            scaled = _scaled_laguerre(m, alpha2, alpha2) / _scaled_laguerre(m, -alpha2, alpha2)
            assert scaled == pytest.approx(kappa(m, alpha2), rel=1e-13)


class TestKappaSmallAlpha:
    def test_values(self):
        assert kappa_small_alpha(3, 0.0) == 1.0
        assert kappa_small_alpha(1, 0.01) == pytest.approx(0.98, abs=1e-15)
        assert kappa_small_alpha(2, 0.01) == pytest.approx(0.96, abs=1e-15)

    def test_close_to_exact(self):
        assert abs(kappa(2, 0.01) - kappa_small_alpha(2, 0.01)) < 1e-3

    def test_window_enforced(self):
        with pytest.raises(ValueError):
            kappa_small_alpha(1, 0.05)

    def test_first_order_agreement(self):
        # residual |kappa - (1 - 2 m a)| scales quadratically: fit the
        # coefficient at the largest strength, check it bounds the smaller ones
        for m in range(1, 7):
            coeff = abs(kappa(m, 1e-2) - kappa_small_alpha(m, 1e-2)) / 1e-4
            for alpha2 in (1e-4, 1e-3):
                residual = abs(kappa(m, alpha2) - kappa_small_alpha(m, alpha2))
                assert residual <= 1.05 * coeff * alpha2**2 + 1e-14


class TestPacsOverlap:
    def test_values(self):
        assert pacs_overlap(0, 1.0) == pytest.approx(math.exp(-2.0), abs=1e-15)
        assert pacs_overlap(1, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert pacs_overlap(2, 0.0) == 1.0

    def test_cauchy_schwarz_bound(self):
        for m in (0, 1, 2, 3, 8, 33, 64):
            for alpha2 in (0.0, 1e-3, 0.1, 0.7, 2.0, 9.0, 30.0):
                assert abs(pacs_overlap(m, alpha2)) <= 1.0 + 1e-12


class TestBinaryEntropy:
    def test_boundaries(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_two_thirds(self):
        assert binary_entropy(2.0 / 3.0) == pytest.approx(math.log2(3.0) - 2.0 / 3.0, abs=1e-12)

    def test_symmetry(self):
        for i in range(101):
            x = i / 100.0
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-15)

    def test_guard_band(self):
        assert binary_entropy(-5e-13) == 0.0
        assert binary_entropy(1.0 + 5e-13) == 0.0
        for bad in (-1e-11, 1.0 + 1e-11, 2.0, math.nan):
            with pytest.raises(ValueError):
                binary_entropy(bad)


def scalar_error(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.type, str(info.value)


class TestArrays:
    """`laguerre`, `kappa` and the array entropy take a 1-D float64 array
    and give, bit for bit, what the float call gives at each element."""

    STRENGTHS = np.concatenate([[0.0, 1e-300, 1e-12], np.geomspace(1e-9, 1e7, 300), np.linspace(0.0, 20.0, 201)])

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 16, 33, 63, 64])
    def test_laguerre_matches_float_calls(self, m):
        x = np.concatenate([self.STRENGTHS[self.STRENGTHS < 1e6], -self.STRENGTHS[self.STRENGTHS < 1e6]])
        assert laguerre(m, x).tolist() == [laguerre(m, v) for v in x.tolist()]

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 16, 33, 63, 64])
    def test_kappa_matches_float_calls(self, m):
        # up to 1e7, so m = 64 takes the scaled branch at its largest strengths
        values = kappa(m, self.STRENGTHS)
        assert values.dtype == np.float64 and values.shape == self.STRENGTHS.shape
        assert values.tolist() == [kappa(m, a) for a in self.STRENGTHS.tolist()]

    def test_laguerre_overflow_names_first_element(self):
        with pytest.raises(OverflowError) as info:
            laguerre(64, np.array([1.0, -1e7, 1e7]))
        assert str(info.value) == scalar_error(laguerre, 64, -1e7)[1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, -1e-300])
    def test_kappa_rejects_as_float_call(self, bad):
        with pytest.raises(ValueError) as info:
            kappa(2, np.array([0.5, bad, 1.0]))
        assert (info.type, str(info.value)) == scalar_error(kappa, 2, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_laguerre_rejects_as_float_call(self, bad):
        with pytest.raises(ValueError) as info:
            laguerre(3, np.array([bad, 0.5]))
        assert (info.type, str(info.value)) == scalar_error(laguerre, 3, bad)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            kappa(1, np.ones((2, 2)))

    def test_binary_entropy_matches_float_calls(self):
        x = np.concatenate([[-5e-13, 0.0, 5e-324, 0.5, 1.0 - 1e-16, 1.0, 1.0 + 5e-13], np.linspace(0.0, 1.0, 1001)])
        assert _binary_entropy_array(x).tolist() == [binary_entropy(v) for v in x.tolist()]

    def test_binary_entropy_inside_matches_float_calls(self):
        # every element inside (0, 1): the path without gather and scatter
        x = np.concatenate([[5e-324, 1e-300, 1e-13, 0.5, 1.0 - 1e-13, 1.0 - 1e-16], np.linspace(0.0, 1.0, 1001)[1:-1]])
        assert _binary_entropy_array(x).tolist() == [binary_entropy(v) for v in x.tolist()]
        # the same arrays with exact ends and guard-band values added
        for edge in (0.0, 1.0, -1e-13, 1.0 + 1e-13):
            y = np.append(x, edge)
            assert _binary_entropy_array(y).tolist() == [binary_entropy(v) for v in y.tolist()], edge

    @pytest.mark.parametrize("bad", [math.nan, -1e-11, 1.0 + 1e-11])
    def test_binary_entropy_rejects_as_float_call(self, bad):
        with pytest.raises(ValueError) as info:
            _binary_entropy_array(np.array([0.5, bad]))
        assert (info.type, str(info.value)) == scalar_error(binary_entropy, bad)
        # wherever it sits among elements inside (0, 1)
        for at in (0, 1, 2):
            with pytest.raises(ValueError) as info:
                _binary_entropy_array(np.insert(np.array([0.25, 0.5]), at, bad))
            assert (info.type, str(info.value)) == scalar_error(binary_entropy, bad)

