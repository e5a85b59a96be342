import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pacsqc.correlations import report
from pacsqc.fock_oracle import build_bell_pair, build_tripartite, partial_trace, wootters_concurrence
from pacsqc.special import binary_entropy
from pacsqc.states import LimitRegimeError, ModelParams, _cat_amplitudes, ghz_rho12, ghz_rho23

GRID = [
    ModelParams(alpha2, m, k)
    for alpha2 in (0.05, 0.3, 1.0, 2.5, 4.0, 20.0)
    for m in (0, 1, 2, 4)
    for k in (0, 1)
]

HADAMARD2 = np.kron(
    np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
    np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(-0.1)
        with pytest.raises(ValueError):
            ModelParams(1.0, m=-1)
        with pytest.raises(ValueError):
            ModelParams(1.0, m=65)
        with pytest.raises(ValueError):
            ModelParams(1.0, k=2)

    def test_derived(self):
        params = ModelParams(0.5, 3, 1)
        assert params.p == pytest.approx(math.exp(-1.0))
        assert params.sign == -1
        assert ModelParams(0.5).sign == 1
        # the parity flag is normalized to an int, as the order is
        assert type(ModelParams(0.5, 1, True).k) is int and ModelParams(0.5, 1, True).k == 1

    def test_degenerate_flag(self):
        assert ModelParams(1e-9, 0, 1).is_degenerate
        assert not ModelParams(1e-8, 0, 1).is_degenerate
        assert not ModelParams(0.0, 0, 0).is_degenerate


class TestAmplitudes:
    def test_mode1_limits(self):
        for m in (0, 1, 3):
            params = ModelParams(0.0, m, 0)
            assert _cat_amplitudes(params.kappa_m * params.p) == (1.0, 0.0)
            params = ModelParams(20.0, m, 0)
            c_plus, c_minus = _cat_amplitudes(params.kappa_m * params.p)
            assert c_plus == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
            assert c_minus == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_mode1_kappa_zero(self):
        params = ModelParams(1.0, 1, 0)
        c_plus, c_minus = _cat_amplitudes(params.kappa_m * params.p)
        assert c_plus == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert c_minus == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_mode23(self):
        assert _cat_amplitudes(ModelParams(0.0).p) == (1.0, 0.0)
        c_plus, _ = _cat_amplitudes(ModelParams(20.0).p)
        assert c_plus == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        # p = 1/2 at alpha2 = ln(2)/2
        c_plus, c_minus = _cat_amplitudes(ModelParams(0.5 * math.log(2.0)).p)
        assert c_plus == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
        assert c_minus == pytest.approx(0.5, abs=1e-12)

    def test_normalization_enforced(self):
        for overlap in np.linspace(-1.0, 1.0, 41):
            c_plus, c_minus = _cat_amplitudes(overlap)
            assert c_plus**2 + c_minus**2 == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ArithmeticError):
            _cat_amplitudes(1.1)


class TestBellState:
    # the quasi-Bell pair has no closed-form state here; its closed forms
    # (report C12_conc, E12) are checked against the Fock-space projector

    def test_parity_zeros(self):
        even = build_bell_pair(ModelParams(0.8, 2, 0)).data
        assert even[1, 1] == 0 and even[2, 2] == 0
        odd = build_bell_pair(ModelParams(0.8, 2, 1)).data
        assert odd[0, 0] == 0 and odd[3, 3] == 0

    def test_strong_field_is_maximally_entangled(self):
        params = ModelParams(20.0, 0, 0)
        state = build_bell_pair(params).data
        assert state[0, 0].real == pytest.approx(0.5, abs=1e-8)
        assert state[3, 3].real == pytest.approx(0.5, abs=1e-8)
        assert report(params).E12 == pytest.approx(1.0, abs=1e-8)

    def test_normalization_over_grid(self):
        for params in GRID:
            oracle = wootters_concurrence(build_bell_pair(params))
            assert report(params).C12_conc == pytest.approx(oracle, abs=1e-8)

    def test_w_type_concurrence(self):
        # odd pair without excitation stays maximally entangled at any strength
        for alpha2 in (0.01, 0.5, 3.0):
            params = ModelParams(alpha2, 0, 1)
            assert wootters_concurrence(build_bell_pair(params)) == pytest.approx(1.0, abs=1e-10)
            assert report(params).C12_conc == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_point_refused(self):
        with pytest.raises(LimitRegimeError):
            build_bell_pair(ModelParams(0.0, 1, 1))


class TestGhzReductions:
    def test_unit_trace_and_psd(self):
        for params in GRID:
            for rho in (ghz_rho12(params), ghz_rho23(params)):
                assert float(np.sum(rho.diag)) == pytest.approx(1.0, abs=1e-12)
                assert min(rho.eigenvalues()) >= -1e-10
                assert 0.25 - 1e-12 <= rho.purity() <= 1.0 + 1e-12

    def test_x_pattern(self):
        rho = ghz_rho12(ModelParams(0.7, 2, 1)).to_matrix()
        support = {(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)}
        for i in range(4):
            for j in range(4):
                if (i, j) not in support:
                    assert rho[i, j] == 0

    def test_hermitian(self):
        rho = ghz_rho12(ModelParams(1.3, 1, 0)).to_matrix()
        assert_allclose(rho, rho.conj().T, atol=1e-15)

    def test_m0_reductions_coincide(self):
        for alpha2 in (0.05, 0.4, 1.0, 3.0):
            for k in (0, 1):
                params = ModelParams(alpha2, 0, k)
                assert_allclose(
                    ghz_rho12(params).to_matrix(), ghz_rho23(params).to_matrix(), atol=1e-12
                )

    def test_zero_strength_even_is_pure_product(self):
        for m in (0, 1, 3):
            rho = ghz_rho12(ModelParams(0.0, m, 0))
            assert_allclose(rho.diag, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
            assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_strong_field_ghz_limit(self):
        # in the quasi-orthogonal coherent basis (a Hadamard away from the
        # cat basis once the overlap underflows) the reduction is the
        # classical mixture diag(1/2, 0, 0, 1/2)
        rho = ghz_rho12(ModelParams(20.0, 1, 0)).to_matrix()
        rotated = HADAMARD2 @ rho @ HADAMARD2
        assert_allclose(rotated, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-8)

    def test_degenerate_point_refused(self):
        for builder in (ghz_rho12, ghz_rho23, build_tripartite):
            with pytest.raises(LimitRegimeError):
                builder(ModelParams(1e-12, 0, 1))


class TestSplit123:
    # the pure 1|(23) cut of the Fock-space GHZ projector against the
    # closed-form report fields of that cut

    def test_normalization(self):
        for params in GRID:
            lam = partial_trace(build_tripartite(params), (0,)).eigenvalues()
            pure = 2.0 * math.sqrt(max(lam[0] * lam[1], 0.0))  # 2 sqrt(det rho_1)
            assert report(params).C1_23_conc == pytest.approx(pure, abs=1e-8)

    def test_parity_zeros(self):
        # basis index 4 n1 + 2 n2 + n3; even parity keeps an even number of odd cats
        state = np.diag(build_tripartite(ModelParams(0.9, 1, 0)).data)
        assert all(state[i] == 0 for i in (1, 2, 4, 7))
        state = np.diag(build_tripartite(ModelParams(0.9, 1, 1)).data)
        assert all(state[i] == 0 for i in (0, 3, 5, 6))

    def test_schmidt_weights_sum_to_one(self):
        params = ModelParams(1.0, 0, 0)
        lam = partial_trace(build_tripartite(params), (0,)).eigenvalues()[::-1]
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert lam[0] >= lam[1] >= 0.0
        assert binary_entropy(lam[0]) == pytest.approx(report(params).S1, abs=1e-10)
