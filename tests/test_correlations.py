import math

import numpy as np
import pytest

from pacsqc import special
from pacsqc.fock_oracle import build_tripartite
from pacsqc.special import binary_entropy
from pacsqc.states import LimitRegimeError, ModelParams, ghz_rho12, ghz_rho23
from pacsqc import correlations
from pacsqc.states import DEGENERATE_ALPHA2
from pacsqc.correlations import (
    QUANTITIES,
    closed_forms,
    deficit,
    discord_12,
    discord_12_peak,
    discord_1_23,
    discord_23,
    eof_from_concurrence,
    report,
    violation_threshold,
    w_bell_concurrence_limit,
    w_limit_report,
)

GRID = [
    ModelParams(0.05 * i, m, k)
    for i in range(1, 81)
    for m in range(5)
    for k in (0, 1)
]

W_LIMIT_FIELDS = ("E12", "C12_conc", "D12", "D23", "D1_23", "E1_23", "Delta123")


def eigen_entropy(x_state):
    return -sum(lam * math.log2(lam) for lam in x_state.eigenvalues() if lam > 1e-300)


class TestEofFromConcurrence:
    def test_endpoints(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert eof_from_concurrence(1.0) == 1.0

    def test_known_value(self):
        assert eof_from_concurrence(2.0 * math.sqrt(2.0) / 3.0) == pytest.approx(
            binary_entropy(2.0 / 3.0), abs=1e-12
        )

    def test_monotone(self):
        values = [eof_from_concurrence(i / 200.0) for i in range(201)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            eof_from_concurrence(1.1)
        with pytest.raises(ValueError):
            eof_from_concurrence(-0.1)


class TestBellPair:
    def test_odd_unexcited_is_maximally_entangled(self):
        for alpha2 in (0.01, 0.5, 3.0):
            assert report(ModelParams(alpha2, 0, 1)).C12_conc == pytest.approx(1.0, abs=1e-12)

    def test_even_limits(self):
        assert report(ModelParams(20.0, 0, 0)).C12_conc == pytest.approx(1.0, abs=1e-8)
        rep = report(ModelParams(0.0, 2, 0))
        assert rep.C12_conc == 0.0
        assert rep.E12 == 0.0

    def test_eof_equals_concurrence_route(self):
        for params in GRID[::7]:
            rep = report(params)
            assert rep.E12 == pytest.approx(eof_from_concurrence(rep.C12_conc), abs=1e-12)

    def test_strong_field_unit_eof(self):
        for m in range(5):
            assert report(ModelParams(6.0, m, 0)).E12 == pytest.approx(1.0, abs=1e-3)

    def test_odd_small_amplitude_limit(self):
        for m in range(5):
            limit = binary_entropy((m + 1.0) / (m + 2.0))
            assert report(ModelParams(1e-6, m, 1)).E12 == pytest.approx(limit, abs=1e-4)

    def test_w_concurrence_limit_values(self):
        assert w_bell_concurrence_limit(0) == 1.0
        assert w_bell_concurrence_limit(1) == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)
        assert w_bell_concurrence_limit(8) == pytest.approx(0.6, abs=1e-15)


def report_entropies(params):
    rep = report(params)
    return rep.S1, rep.S2, rep.S12, rep.S23


def report_concurrences(params):
    rep = report(params)
    return rep.C23_conc, rep.C13_conc, rep.C1_23_conc


class TestEntropies:
    def test_strong_field(self):
        s1, _, s12, _ = report_entropies(ModelParams(20.0, 2, 0))
        assert s1 == pytest.approx(1.0, abs=1e-6)
        assert s12 == pytest.approx(1.0, abs=1e-6)

    def test_even_zero_strength(self):
        s1, s2, s12, s23 = report_entropies(ModelParams(0.0, 3, 0))
        assert s1 == s12 == 0.0
        assert s2 == s23 == 0.0

    def test_m0_symmetry(self):
        for alpha2 in (0.1, 0.7, 2.0):
            for k in (0, 1):
                s1, s2, s12, s23 = report_entropies(ModelParams(alpha2, 0, k))
                assert s1 == s2
                assert s12 == s23

    def test_match_density_spectra(self):
        for params in GRID[::5]:
            s1, s2, s12, s23 = report_entropies(params)
            rho12 = ghz_rho12(params)
            rho23 = ghz_rho23(params)
            assert s12 == pytest.approx(eigen_entropy(rho12), abs=1e-10)
            assert s23 == pytest.approx(eigen_entropy(rho23), abs=1e-10)
            # X-state marginals are diagonal in the encoded basis
            d = rho12.diag
            assert s1 == pytest.approx(binary_entropy(d[0] + d[1]), abs=1e-10)
            assert s2 == pytest.approx(binary_entropy(d[0] + d[2]), abs=1e-10)


class TestGhzConcurrences:
    def test_strong_field(self):
        c23, c13, c1_23 = report_concurrences(ModelParams(20.0, 1, 0))
        assert c23 == pytest.approx(0.0, abs=1e-6)
        assert c13 == pytest.approx(0.0, abs=1e-6)
        assert c1_23 == pytest.approx(1.0, abs=1e-6)

    def test_kappa_zero_point(self):
        # kappa_1(1) = 0 kills C23 but not C13
        c23, c13, _ = report_concurrences(ModelParams(1.0, 1, 0))
        assert c23 == 0.0
        assert c13 > 0.05

    def test_even_zero_strength(self):
        assert report_concurrences(ModelParams(0.0, 2, 0)) == (0.0, 0.0, 0.0)

    def test_ranges(self):
        for params in GRID[::3]:
            for c in report_concurrences(params):
                assert -1e-12 <= c <= 1.0 + 1e-12


class TestDiscords:
    def test_strong_field(self):
        for m in range(5):
            params = ModelParams(20.0, m, 0)
            assert abs(discord_12(params)) <= 1e-6
            assert discord_1_23(params) == pytest.approx(1.0, abs=1e-6)

    def test_even_zero_strength(self):
        assert discord_12(ModelParams(0.0, 1, 0)) == 0.0

    def test_m0_collapse(self):
        for alpha2 in (0.1, 0.5, 2.0):
            for k in (0, 1):
                params = ModelParams(alpha2, 0, k)
                assert abs(discord_12(params) - discord_23(params)) <= 1e-12

    def test_koashi_winter_assembly(self):
        for params in GRID[::7]:
            s1, s2, s12, s23 = report_entropies(params)
            c23, c13, _ = report_concurrences(params)
            assert abs(discord_12(params) - (s1 - s12 + eof_from_concurrence(c23))) <= 1e-12
            assert abs(discord_23(params) - (s2 - s23 + eof_from_concurrence(c13))) <= 1e-12

    def test_nonnegative(self):
        for params in GRID[::3]:
            assert discord_12(params) >= -1e-10
            assert discord_23(params) >= -1e-10
            assert discord_1_23(params) >= -1e-10

    def test_pure_cut_identity(self):
        for params in GRID[::9]:
            c1_23 = report_concurrences(params)[2]
            assert discord_1_23(params) == pytest.approx(eof_from_concurrence(c1_23), abs=1e-10)

    def test_odd_small_amplitude_limits(self):
        for m in range(5):
            limits = w_limit_report(m)
            params = ModelParams(1e-6, m, 1)
            assert discord_12(params) == pytest.approx(limits.D12, abs=1e-4)
            assert discord_23(params) == pytest.approx(limits.D23, abs=1e-4)
            assert discord_1_23(params) == pytest.approx(limits.D1_23, abs=1e-4)

    def test_d23_peak_is_at_m0(self):
        def peak(m):
            return max(discord_23(ModelParams(0.01 * i, m, 0)) for i in range(1, 401))

        base = peak(0)
        for m in range(1, 4):
            assert base > peak(m)


class TestDeficit:
    def test_even_small_amplitude_vanishes(self):
        for m in range(5):
            assert abs(deficit(ModelParams(1e-6, m, 0))) < 1e-8

    def test_odd_m0_violates(self):
        assert deficit(ModelParams(0.05, 0, 1)) < 0.0

    def test_even_monogamous_on_grid(self):
        # the even-parity deficit turns negative only below the grid, see
        # test_even_small_strength_violation
        for params in GRID:
            if params.k == 0 and params.alpha2 >= 0.1:
                assert deficit(params) >= -1e-9

    def test_even_small_strength_violation(self):
        # weak even-parity superpositions do violate monogamy: the deficit
        # behaves like -2 alpha2^2 near zero for m = 0 and crosses back to
        # positive near 0.0592 (oracle-confirmed); the window closes by m = 3
        assert deficit(ModelParams(0.03, 0, 0)) < -1e-4
        assert deficit(ModelParams(0.008, 1, 0)) < -1e-5
        for m in (3, 4):
            for alpha2 in (1e-4, 1e-3, 1e-2):
                assert deficit(ModelParams(alpha2, m, 0)) >= -1e-9

    def test_odd_small_amplitude_limit(self):
        for m in range(5):
            assert deficit(ModelParams(1e-6, m, 1)) == pytest.approx(
                w_limit_report(m).Delta123, abs=1e-4
            )


class TestWLimitReport:
    def test_values(self):
        rep = w_limit_report(0)
        assert rep.D1_23 == pytest.approx(binary_entropy(2.0 / 3.0), abs=1e-15)
        assert rep.C12_conc == 1.0
        assert rep.E1_23 == rep.D1_23

    def test_absent_fields(self):
        rep = w_limit_report(2)
        for name in QUANTITIES:
            if name in W_LIMIT_FIELDS:
                assert getattr(rep, name) is not None
            else:
                assert getattr(rep, name) is None

    def test_even_parity_rejected(self):
        with pytest.raises(ValueError, match="only for odd parity"):
            w_limit_report(1, k=0)

    @pytest.mark.parametrize("k", [3, -1, 2])
    def test_invalid_parity_rejected_as_model_params_does(self, k):
        # the parity rule has one owner, so a flag ModelParams refuses is
        # refused here too rather than read modulo 2
        with pytest.raises(ValueError, match=f"parity flag k must be 0 \\(even\\) or 1 \\(odd\\), got {k}"):
            ModelParams(0.1, 0, k)
        with pytest.raises(ValueError, match=f"parity flag k must be 0 \\(even\\) or 1 \\(odd\\), got {k}"):
            w_limit_report(0, k)

    def test_matches_numeric_limit(self):
        assert w_limit_report(1).Delta123 == pytest.approx(
            deficit(ModelParams(1e-6, 1, 1)), abs=1e-4
        )


class TestReport:
    def test_internal_identities(self):
        rep = report(ModelParams(1.0, 0, 0))
        assert rep.D1_23 == rep.E1_23
        assert rep.Delta123 == rep.D1_23 - 2.0 * rep.D12
        assert rep.D12 == rep.D23  # m = 0 collapse

    def test_all_fields_populated(self):
        rep = report(ModelParams(0.5, 2, 1))
        for name in QUANTITIES:
            assert getattr(rep, name) is not None

    def test_value_ranges(self):
        for params in GRID[::11]:
            rep = report(params)
            for name in ("S1", "S2", "S12", "S23"):
                assert -1e-12 <= getattr(rep, name) <= 2.0
            for name in ("E12", "E23", "E13", "E1_23"):
                assert -1e-12 <= getattr(rep, name) <= 1.0 + 1e-12
            for name in ("C12_conc", "C23_conc", "C13_conc", "C1_23_conc"):
                assert -1e-12 <= getattr(rep, name) <= 1.0 + 1e-12

    def test_degenerate_dispatch(self):
        params = ModelParams(1e-10, 2, 1)
        rep = report(params)
        assert rep.params == params
        assert rep.S1 is None
        assert rep.D12 == pytest.approx(w_limit_report(2).D12, abs=1e-15)

    def test_continuity_across_degenerate_switch(self):
        # direct evaluation stays well-conditioned down to the 1e-8 switch;
        # the deficit moves away from its limit with slope ~1.7 in alpha2, so
        # the window edge gets a drift allowance on top of the base tolerance
        for m in range(5):
            limits = w_limit_report(m)
            for alpha2 in (1e-8, 1e-6, 1e-4):
                rep = report(ModelParams(alpha2, m, 1))
                for name in W_LIMIT_FIELDS:
                    tol = 1e-4 + 3.0 * alpha2
                    assert getattr(rep, name) == pytest.approx(getattr(limits, name), abs=tol)

    def test_direct_evaluation_raises_at_degenerate_point(self):
        # the state constructors have no limit to fall back on
        for builder in (ghz_rho12, ghz_rho23, build_tripartite):
            with pytest.raises(LimitRegimeError):
                builder(ModelParams(0.0, 0, 1))

    def test_views_return_w_limits_at_degenerate_point(self):
        for m in (0, 2):
            params = ModelParams(1e-9, m, 1)
            limits = w_limit_report(m)
            assert discord_12(params) == limits.D12
            assert discord_23(params) == limits.D23
            assert discord_1_23(params) == limits.D1_23
            assert deficit(params) == limits.Delta123

    # every field in QUANTITIES order, as 17-digit values of the earlier
    # per-field implementation; `==` keeps the single-pass report bit-identical
    PINNED = {
        (2.5, 64, 1): (
            0.999999998513192, 0.9999672506254318, 0.9999672506254318, 0.999999998513192,
            0.9999772997774771, 1.2406611671705864e-12, 0.0067377940461891845, 0.9999999989694233,
            0.9999672506254437, 0.0, 0.000202813720538329, 0.999999998513192,
            3.2747887760198324e-05, 0.00017006583277813067, 0.999999998513192, 0.9999345027376716,
        ),
        # kappa_1(1.5) = -0.2
        (1.5, 1, 0): (
            0.9999596523928611, 0.9982465925414734, 0.9982465925414734, 0.9999596523928611,
            0.9992056968002809, 0.009932976878101558, 0.04972408727227156, 0.9999720330395093,
            0.9988542144646293, 0.0004131598444047212, 0.0074846245994439455, 0.9999596523928611,
            0.0021262196957924206, 0.005771564748056246, 0.9999596523928611, 0.9957072130012763,
        ),
        (0.0, 3, 0): (0.0,) * 16,
        # first regular odd point above the degenerate switch
        (1e-08, 2, 1): (
            0.9709505945789463, 0.721928093123793, 0.721928093123793, 0.9709505945789463,
            0.8660254033644478, 0.3999999881945575, 0.6928203165270028, 0.9797958977180672,
            0.8112781246854244, 0.2502248999647023, 0.5827831261012207, 0.9709505944546686,
            0.4992474014198556, 0.3337606246460675, 0.9709505944546686, -0.027544208385042568,
        ),
        (0.0, 1, 1): (
            None, None, None, None,
            0.9428090415820635, None, None, None,
            0.9182958340544896, None, None, 1.0,
            0.5433007782061372, 0.412154161151989, 1.0, -0.0866015564122744,
        ),
        # kappa_2(0.7) < 0 with odd parity
        (0.7, 2, 1): (
            0.9959174576367158, 0.9544557904291708, 0.9544557904291708, 0.9959174576367158,
            0.9655760614389168, 0.01356018785020444, 0.23874683206730177, 0.9971688598641306,
            0.9506256758912477, 0.0007287242465473335, 0.1090806544402429, 0.9959174576367158,
            0.04219039145409229, 0.06761898723269794, 0.9959174576367158, 0.9115366747285312,
        ),
    }

    @pytest.mark.parametrize("point", sorted(PINNED))
    def test_pinned_values(self, point):
        rep = report(ModelParams(*point))
        assert tuple(getattr(rep, name) for name in QUANTITIES) == self.PINNED[point]

    @pytest.mark.parametrize("m", [1, 2, 7, 64])
    def test_laguerre_runs_twice_per_report(self, monkeypatch, m):
        calls = []
        laguerre = special.laguerre

        def counted(*args):
            calls.append(args)
            return laguerre(*args)

        monkeypatch.setattr(special, "laguerre", counted)
        for params in (ModelParams(0.3, m, 0), ModelParams(2.0, m, 1)):
            calls.clear()
            report(params)
            assert len(calls) == 2


class TestViolationThreshold:
    def test_m0(self):
        root = violation_threshold(0, 1)
        assert root == pytest.approx(0.1075, abs=0.002)
        assert math.exp(-2.0 * root) == pytest.approx(0.806, abs=0.004)

    def test_root_brackets_sign_change(self):
        root = violation_threshold(0, 1)
        assert deficit(ModelParams(root - 1e-4, 0, 1)) < 0.0
        assert deficit(ModelParams(root + 1e-4, 0, 1)) > 0.0

    def test_even_parity_roots(self):
        # the even family has its own narrow violation window at weak
        # strengths; it shrinks with m and is gone by m = 3
        root = violation_threshold(0, 0)
        assert root == pytest.approx(0.0592, abs=2e-3)
        assert violation_threshold(3, 0) is None
        assert violation_threshold(4, 0) is None

    def test_added_photons_shrink_violation(self):
        # the violation window shrinks below the verification grid by m = 2
        # and disappears entirely from m = 3 on
        root2 = violation_threshold(2, 1)
        assert root2 is not None and root2 < 0.1
        assert violation_threshold(3, 1) is None
        assert violation_threshold(4, 1) is None


class TestPeakLocator:
    def test_returns_interior_maximum(self):
        alpha2, value = discord_12_peak(0, 0)
        assert 0.2 < alpha2 < 0.6
        assert value == pytest.approx(0.1873, abs=2e-4)

    def test_argmax_moves_left(self):
        peaks = [discord_12_peak(m, 0)[0] for m in range(4)]
        assert all(b < a for a, b in zip(peaks, peaks[1:]))

    @pytest.mark.parametrize("lo, hi", [(4.0, 0.01), (0.5, 0.5)])
    def test_empty_bracket_rejected(self, lo, hi):
        with pytest.raises(ValueError, match=f"lo={lo!r}, hi={hi!r}"):
            discord_12_peak(2, 0, lo=lo, hi=hi)


def threshold_scan_grid():
    # the log grid `violation_threshold` scans
    lo_exp, hi_exp = math.log10(correlations._SCAN_LO), math.log10(correlations._SCAN_HI)
    n = correlations._SCAN_POINTS
    return [10.0 ** (lo_exp + i * (hi_exp - lo_exp) / (n - 1)) for i in range(n)]


def peak_scan_grid(lo=0.01, hi=4.0, n=400):
    # the coarse grid `discord_12_peak` scans
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


class TestClosedForms:
    """One body for a float or an array of |alpha|^2: the array call gives
    the float call's values bit for bit."""

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 16, 33, 64])
    def test_array_equals_report_on_scan_grids(self, m, k):
        grid = threshold_scan_grid() + peak_scan_grid()
        fields = closed_forms(np.array(grid), m, k)
        assert list(fields) == list(QUANTITIES)
        reports = [report(ModelParams(a, m, k)) for a in grid]
        for name in QUANTITIES:
            assert fields[name].tolist() == [getattr(rep, name) for rep in reports], name
        if k == 1:
            # the finders' field on a grid that straddles the degenerate switch
            grid = peak_scan_grid(lo=0.0, hi=4.0 * DEGENERATE_ALPHA2)
            reports = [report(ModelParams(a, m, k)) for a in grid]
            for name in W_LIMIT_FIELDS:
                scanned = correlations._field(m, k, QUANTITIES.index(name), np.array(grid)).tolist()
                assert scanned == [getattr(rep, name) for rep in reports], name

    def test_float_call_equals_report(self):
        for params in GRID[::7]:
            assert closed_forms(params.alpha2, params.m, params.k) == report(params).as_dict()

    def test_degenerate_element_raises(self):
        with pytest.raises(LimitRegimeError):
            closed_forms(np.array([0.5, 0.5 * DEGENERATE_ALPHA2]), 2, 1)
        with pytest.raises(LimitRegimeError):
            closed_forms(0.0, 0, 1)
        # even parity has no degenerate point
        assert closed_forms(np.array([0.0, 0.5]), 2, 0)["D12"][0] == 0.0
        # nor has an empty grid
        fields = closed_forms(np.array([]), 2, 1)
        assert list(fields) == list(QUANTITIES) and all(v.shape == (0,) for v in fields.values())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.25])
    def test_invalid_strength_raises_as_float_call(self, bad):
        with pytest.raises(ValueError) as scalar:
            ModelParams(bad, 1, 0)
        with pytest.raises(ValueError) as array:
            closed_forms(np.array([0.5, bad]), 1, 0)
        assert str(array.value) == str(scalar.value)

    def test_invalid_order_and_parity(self):
        with pytest.raises(ValueError):
            closed_forms(np.array([0.5]), 65, 0)
        with pytest.raises(ValueError):
            closed_forms(np.array([0.5]), 1, 2)


class TestFinderAnswers:
    # (m, k): (violation_threshold, discord_12_peak), as computed by the
    # scalar scans that the array scans replaced
    PINNED = {
        (0, 0): (0.05924602667330397, (0.34657357976106695, 0.1872985985687719)),
        (0, 1): (0.10785088622823531, (0.010000000035355098, 0.5417583733140596)),
        (1, 0): (0.015703039441176587, (0.2516399410277116, 0.18601957016038068)),
        (1, 1): (0.03914531326457057, (0.010000000035355098, 0.5323025991633732)),
        (2, 0): (0.0023383522001510565, (0.21504632183879827, 0.18865348974017987)),
        (2, 1): (0.01160842544573909, (0.010000000035355098, 0.48739455109577623)),
        (5, 0): (None, (0.17620217796352453, 0.20051720245975782)),
        (5, 1): (None, (0.010000000035355098, 0.37392648831658576)),
        (64, 0): (None, (0.13792405738762106, 0.21409577333401594)),
        (64, 1): (None, (0.1393096747731282, 0.21474964014797948)),
    }

    @pytest.mark.parametrize("point", sorted(PINNED))
    def test_pinned(self, point):
        assert (violation_threshold(*point), discord_12_peak(*point)) == self.PINNED[point]

    def test_peak_from_degenerate_region(self):
        # a grid that starts at alpha2 = 0 with odd parity goes through the
        # analytic limits of `report` point by point
        assert discord_12_peak(1, 1, lo=0.0) == (3.544370638627595e-11, 0.5433007782061372)

