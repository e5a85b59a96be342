import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pacsqc.special import binary_entropy, laguerre, pacs_overlap
from pacsqc.states import LimitRegimeError, ModelParams, ghz_rho12, ghz_rho23
from pacsqc import correlations, fock_oracle
from pacsqc.correlations import report
from pacsqc.fock_oracle import _AT_FLOOR, _CAPPED, _CONVERGED, _SY_SY, _mode_pairs, _superpositions
from pacsqc.fock_oracle import (
    FIELD_BOUNDS,
    DensityMatrix,
    FockVector,
    TruncationError,
    VerificationRecord,
    add_photons,
    build_bell_pair,
    build_tripartite,
    coherent_vector,
    default_nmax,
    discord_numeric,
    inner,
    partial_trace,
    verification_grid,
    verify,
    verify_points,
    von_neumann_entropy,
    wootters_concurrence,
)
from grid_reference import basin_grid_497
from zoom_reference import zoom_minima

DISCORD_FIELDS = ("D12", "D23", "Delta123")
# the fields the oracle takes from the concurrence kernel
CONCURRENCE_FIELDS = ("C12_conc", "C23_conc", "C13_conc", "E12", "E23", "E13")


def random_densities(count, seed):
    rng = np.random.default_rng(seed)
    densities = []
    for _ in range(count):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        densities.append(DensityMatrix(rho / np.trace(rho).real, (2, 2)))
    return densities


def conditional_entropies(rho, theta, phi, measured=0):
    """Post-measurement conditional entropies of the unmeasured qubit for
    projective measurements of the ``measured`` qubit along the Bloch
    directions (theta, phi), from projectors applied to the density matrix
    itself."""
    theta, phi = np.broadcast_arrays(theta, phi)
    spinors = np.stack([np.cos(0.5 * theta), np.exp(1j * phi) * np.sin(0.5 * theta)], axis=-1).reshape(-1, 2)
    tensor = rho.data.reshape(2, 2, 2, 2)
    if measured == 1:
        tensor = tensor.transpose(1, 0, 3, 2)
    branch = np.einsum("na,ajbl,nb->njl", spinors.conj(), tensor, spinors)
    other = np.einsum("jajb->ab", tensor)
    conditional = np.zeros(len(spinors))
    for sigma in (branch, other - branch):
        lam = np.clip(np.linalg.eigvalsh(sigma), 1e-300, None)
        weight = lam.sum(axis=1)
        conditional += weight * np.log2(weight) - np.sum(lam * np.log2(lam), axis=1)
    return conditional


def brute_force_discord(rho, points=256, measured=0, polish=False):
    """Discord measuring the ``measured`` qubit, minimized over a dense
    points x points (theta, phi) grid; with ``polish``, scipy's Nelder-Mead
    then starts from the grid minimum."""
    theta, phi = np.meshgrid(
        np.linspace(0.0, math.pi, points), np.linspace(0.0, 2.0 * math.pi, points, endpoint=False), indexing="ij"
    )
    conditional = conditional_entropies(rho, theta, phi, measured)
    minimum, start = float(conditional.min()), np.unravel_index(np.argmin(conditional), theta.shape)
    if polish:
        optimize = pytest.importorskip("scipy.optimize")
        result = optimize.minimize(
            lambda x: float(conditional_entropies(rho, x[0], x[1], measured)[0]), [theta[start], phi[start]],
            method="Nelder-Mead", options={"xatol": 1e-9, "fatol": 1e-16, "maxfev": 2000},
        )
        minimum = min(minimum, float(result.fun))
    s_measured = von_neumann_entropy(partial_trace(rho, (measured,)))
    return s_measured - von_neumann_entropy(rho) + minimum


def landed_conditional_entropies(data, directions, measured):
    """Post-measurement conditional entropies of a (B, 4, 4) density stack
    measured on the ``measured`` qubit along the unit Bloch vectors
    ``directions`` (B, 3), from the spectra of the projected states."""
    theta, phi = np.arccos(np.clip(directions[:, 2], -1.0, 1.0)), np.arctan2(directions[:, 1], directions[:, 0])
    spinors = np.stack([np.cos(0.5 * theta), np.exp(1j * phi) * np.sin(0.5 * theta)], axis=1)
    tensor = data.reshape(-1, 2, 2, 2, 2)
    if measured == 1:
        tensor = tensor.transpose(0, 2, 1, 4, 3)
    branch = np.einsum("za,zajbl,zb->zjl", spinors.conj(), tensor, spinors)
    conditional = np.zeros(len(data))
    for sigma in (branch, np.einsum("zjajb->zab", tensor) - branch):
        lam = np.clip(np.linalg.eigvalsh(sigma), 1e-300, None)
        weight = lam.sum(axis=1)
        conditional += weight * np.log2(weight) - np.sum(lam * np.log2(lam), axis=1)
    return conditional


def reductions(points):
    """rho12 and rho23 of each point, (2 * len(points), 4, 4): the densities
    whose discords `verify_points` minimizes, measured on the left mode."""
    rho123, _ = fock_oracle._cat_projectors(points, None)
    return np.concatenate([fock_oracle._partial_trace(rho123, (2, 2, 2), keep) for keep in ((0, 1), (1, 2))])


def verify_grid_bloch():
    """Pauli forms of the 800 densities whose discords the default `pacsqc
    verify` grid minimizes."""
    return fock_oracle._bloch(reductions(verification_grid()), 0)


def random_points(count=200, seed=14):
    """``count`` seeded points: alpha2 log-uniform in [1e-4, 12], m <= 16,
    both parities."""
    rng = np.random.default_rng(seed)
    alpha2 = np.exp(rng.uniform(math.log(1e-4), math.log(12.0), count))
    orders, parities = rng.integers(0, 17, count), rng.integers(0, 2, count)
    return [ModelParams(float(a), int(m), int(k)) for a, m, k in zip(alpha2, orders, parities)]


def dilation_concurrences(data):
    """Wootters concurrences of a (B, 4, 4) density stack from the densities
    alone: the singular values of A = sqrt(rho) (sy x sy) sqrt(rho)*, read
    off the spectrum (+-l_i) of the Hermitian dilation [[0, A], [A+, 0]]."""
    lam, vec = np.linalg.eigh(data)
    root = (vec * np.sqrt(np.maximum(lam, 0.0))[:, None, :]) @ np.swapaxes(vec, 1, 2).conj()
    product = root @ _SY_SY @ root.conj()
    dilation = np.zeros((len(data), 8, 8), dtype=product.dtype)
    dilation[:, :4, 4:] = product
    dilation[:, 4:, :4] = np.swapaxes(product, 1, 2).conj()
    lams = np.maximum(np.linalg.eigvalsh(dilation)[:, :3:-1], 0.0)
    return np.maximum(0.0, lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3])


def projector_route_deviations(points):
    """Each point's deviations by the projector route: rho12 and rho23
    traced out of the GHZ projector, concurrences from the densities alone
    (`dilation_concurrences`), and each field's deviation as the report's
    value minus the oracle's, one float at a time."""
    count = len(points)
    _, bell = fock_oracle._cat_projectors(points, None)
    pairs = reductions(points)
    quads = np.concatenate([pairs, bell])
    lam = fock_oracle._check_densities(fock_oracle._partial_trace(pairs, (2, 2), (0,)))
    s1, s2 = fock_oracle._entropies(lam).reshape(2, count)
    s12, s23 = fock_oracle._entropies(fock_oracle._check_densities(quads)[: 2 * count]).reshape(2, count)
    minima = fock_oracle._min_conditional_entropy(fock_oracle._bloch(pairs, 0)).value.reshape(2, count)
    d12, d23 = s1 - s12 + minima[0], s2 - s23 + minima[1]
    concurrences = dilation_concurrences(quads)
    (c13, c23, c12), (e13, e23, e12) = concurrences.reshape(3, count), fock_oracle._eofs(concurrences).reshape(3, count)
    c1_23 = 2.0 * np.sqrt(np.prod(np.clip(lam[:count], 0.0, None), axis=1))
    oracle = {"S1": s1, "S2": s2, "S12": s12, "S23": s23, "C12_conc": c12, "C23_conc": c23, "C13_conc": c13,
              "C1_23_conc": c1_23, "E12": e12, "E23": e23, "E13": e13, "E1_23": s1, "D1_23": s1, "D12": d12,
              "D23": d23, "Delta123": s1 - 2.0 * d12}
    return [{name: report(params).as_dict()[name] - float(oracle[name][i]) for name in FIELD_BOUNDS}
            for i, params in enumerate(points)]


def precise_conditional_entropy(rho, direction, digits=40):
    """Conditional entropy of the right qubit of the 4x4 density ``rho``
    after measuring the left one along the unit Bloch vector ``direction``,
    from the projected states in ``digits``-digit arithmetic (the float
    inputs taken as exact)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        entries = [[mpmath.mpc(complex(value)) for value in row] for row in rho]
        x, y, z = (mpmath.mpf(float(c)) for c in direction)
        half = mpmath.acos(z / mpmath.sqrt(x * x + y * y + z * z)) / 2
        phase = mpmath.expj(mpmath.atan2(y, x))
        total = mpmath.mpf(0)
        for spinor in ([mpmath.cos(half), phase * mpmath.sin(half)], [-mpmath.sin(half) / phase, mpmath.cos(half)]):
            block = [
                [sum(mpmath.conj(spinor[a]) * entries[2 * a + j][2 * b + l] * spinor[b] for a in (0, 1) for b in (0, 1))
                 for l in (0, 1)]
                for j in (0, 1)
            ]
            weight = mpmath.re(block[0][0] + block[1][1])
            split = mpmath.sqrt(mpmath.re(block[0][0] - block[1][1]) ** 2 + 4 * abs(block[0][1]) ** 2)
            for lam, sign in ((weight, 1), ((weight + split) / 2, -1), ((weight - split) / 2, -1)):
                if lam > 0:
                    total += sign * lam * mpmath.log(lam, 2)
        return float(total)


def seeded_densities(seed, count, rank, imaginary):
    """``count`` random two-qubit densities raw raw^+ / tr with raw a 4 x
    rank(i) complex Gaussian matrix whose imaginary part is scaled by
    imaginary(i)."""
    rng = np.random.default_rng(seed)
    densities = []
    for i in range(count):
        shape = (4, rank(i))
        raw = rng.normal(size=shape) + 1j * rng.normal(size=shape) * imaginary(i)
        rho = raw @ raw.conj().T
        densities.append(DensityMatrix(rho / np.trace(rho).real, (2, 2)))
    return densities


# Densities on which a zoom that shrank 4x every round stopped short of the
# minimum in an anisotropic valley, with the side measured: (set, index, side).
# Set 1 draws ranks 1-4 with complex entries, set 2 ranks 2-4 with the
# imaginary part on every other density.  Set 2's index 460 needs ~300 rounds.
STALL_SETS = {
    1: lambda: seeded_densities(0, 3000, lambda i: i % 4 + 1, lambda i: 1),
    2: lambda: seeded_densities(99, 2000, lambda i: (2, 3, 4)[i % 3], lambda i: i % 2),
}
STALL_CASES = [(1, 654, 0), (1, 1971, 1), (2, 601, 1), (2, 1198, 0), (2, 460, 1)]


@pytest.fixture(scope="module")
def stall_sets():
    return {key: build() for key, build in STALL_SETS.items()}


def classical_quantum(theta, phi):
    """Equal mixture of |n><n| x |0><0| and |-n><-n| x |+><+| for the Bloch
    direction n(theta, phi): measuring the left qubit along n disturbs
    nothing, so its discord is zero with the optimum at (theta, phi)."""
    up = np.array([math.cos(0.5 * theta), np.exp(1j * phi) * math.sin(0.5 * theta)])
    down = np.array([-np.exp(-1j * phi) * math.sin(0.5 * theta), math.cos(0.5 * theta)])
    zero = np.diag([1.0, 0.0])
    plus = np.full((2, 2), 0.5)
    rho = 0.5 * np.kron(np.outer(up, up.conj()), zero) + 0.5 * np.kron(np.outer(down, down.conj()), plus)
    return DensityMatrix(rho, (2, 2))


def turned(rho, a, b):
    """``rho`` with its left qubit rotated by exp(-i (a sigma_y + b sigma_z) / 2)."""
    generator = a * np.array([[0.0, -1j], [1j, 0.0]]) + b * np.diag([1.0, -1.0])
    w, v = np.linalg.eigh(generator)
    rotation = np.kron((v * np.exp(-0.5j * w)) @ v.conj().T, np.eye(2))
    return DensityMatrix(rotation @ rho.data @ rotation.conj().T, (2, 2))


class TestFockVectors:
    def test_vacuum(self):
        v = coherent_vector(0.0, 6)
        assert v.amplitudes[0] == 1.0
        assert np.all(v.amplitudes[1:] == 0.0)

    def test_coherent_amplitudes(self):
        v = coherent_vector(1.0, 40)
        for n in range(6):
            expected = math.exp(-0.5) / math.sqrt(math.factorial(n))
            assert v.amplitudes[n].real == pytest.approx(expected, abs=1e-15)
        assert v.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_opposite_phase_overlap(self):
        nmax = default_nmax(1.0, 0)
        plus = coherent_vector(1.0, nmax)
        minus = coherent_vector(-1.0, nmax)
        assert inner(minus, plus).real == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            coherent_vector(3.0, 5)

    @pytest.mark.parametrize("nmax", [-1, -3, 2.5])
    def test_invalid_cutoff_is_named(self, nmax):
        with pytest.raises(ValueError, match=f"non-negative integer, got {nmax}"):
            coherent_vector(1.0, nmax)

    def test_add_photons_on_vacuum(self):
        v = add_photons(coherent_vector(0.0, 8), 3)
        expected = np.zeros(9)
        expected[3] = 1.0
        assert_allclose(v.amplitudes.real, expected, atol=1e-15)

    def test_add_photons_norm(self):
        nmax = default_nmax(1.0, 2)
        raw1 = add_photons(coherent_vector(1.0, nmax), 1, normalize=False)
        assert raw1.norm_sq() == pytest.approx(1.0 * laguerre(1, -1.0), abs=1e-10)
        raw2 = add_photons(coherent_vector(1.0, nmax), 2, normalize=False)
        assert raw2.norm_sq() == pytest.approx(2.0 * laguerre(2, -1.0), abs=1e-10)

    def test_added_pair_overlap_matches_closed_form(self):
        nmax = default_nmax(1.0, 2)
        plus = add_photons(coherent_vector(1.0, nmax), 2)
        minus = add_photons(coherent_vector(-1.0, nmax), 2)
        assert inner(minus, plus).real == pytest.approx(pacs_overlap(2, 1.0), abs=1e-10)

    def test_public_vectors_are_rows_of_the_stacked_build(self):
        # coherent_vector and add_photons run the stacked kernels on a stack
        # of one; rows of a stack with other cutoffs and photon counts agree
        alpha, photons = np.array([0.3, -1.2, 2.0, 0.0]), np.array([0, 3, 1, 2])
        cutoffs = np.array([default_nmax(a * a, m) for a, m in zip(alpha, photons)])
        plain = fock_oracle._coherent_rows(alpha, cutoffs)
        for normalize in (True, False):
            lifted = fock_oracle._add_photon_rows(plain, photons, cutoffs, normalize)
            for i, (a, m, nmax) in enumerate(zip(alpha, photons, cutoffs)):
                vector = coherent_vector(a, nmax)
                assert np.array_equal(vector.amplitudes, plain[i, : nmax + 1])
                assert not plain[i, nmax + 1 :].any()
                assert np.array_equal(add_photons(vector, m, normalize).amplitudes, lifted[i, : nmax + 1])

    def test_headroom_guard(self):
        top_heavy = FockVector(np.array([0.0, 0.0, 1.0], dtype=complex))
        with pytest.raises(TruncationError):
            add_photons(top_heavy, 1)


class TestJacobiEigensolver:
    """Spectra and square roots the oracle takes from numpy.linalg (LAPACK).

    These replaced a cyclic Jacobi routine; the class keeps its name so the
    test ids stay stable.
    """

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_matches_lapack(self, n):
        # spectrum order on DensityMatrix.eigenvalues against known values
        rng = np.random.default_rng(7 + n)
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        unitary, _ = np.linalg.qr(raw)
        known = rng.permutation(np.arange(1, n + 1) / (n * (n + 1) / 2))
        rho = DensityMatrix((unitary * known) @ unitary.conj().T, (n,))
        assert_allclose(rho.eigenvalues(), np.sort(known), atol=1e-12)

    def test_eigenvectors_reconstruct(self, monkeypatch):
        # the factor F that wootters_concurrence builds from eigenvectors
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        factors = []
        monkeypatch.setattr(fock_oracle, "_concurrences", lambda f: factors.append(f) or np.zeros(len(f)))
        wootters_concurrence(rho)
        (factor,) = factors[0]
        assert_allclose(factor @ factor.conj().T, rho, atol=1e-12)

    def test_diagonal_input(self):
        rho = DensityMatrix(np.diag([0.5, 0.2, 0.3]).astype(complex), (3,))
        assert_allclose(rho.eigenvalues(), [0.2, 0.3, 0.5])


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4, dtype=complex), (2, 2))  # trace 4
        skew = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        skew[0, 1] = 0.3
        with pytest.raises(ValueError):
            DensityMatrix(skew, (2, 2))  # not Hermitian
        negative = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(negative, (2,))

    def test_purity(self):
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), (2, 2))
        assert rho.purity() == pytest.approx(0.5, abs=1e-12)


class TestPartialTrace:
    def test_full_trace_is_unit(self):
        rho = build_tripartite(ModelParams(0.8, 1, 0))
        unit = partial_trace(rho, ())
        assert unit.data.shape == (1, 1)
        assert unit.data[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_states_rho12(self):
        params = ModelParams(1.0, 1, 0)
        reduced = partial_trace(build_tripartite(params), (0, 1))
        assert_allclose(reduced.data, ghz_rho12(params).to_matrix(), atol=1e-8)

    def test_matches_states_rho23(self):
        params = ModelParams(0.5, 2, 1)
        reduced = partial_trace(build_tripartite(params), (1, 2))
        assert_allclose(reduced.data, ghz_rho23(params).to_matrix(), atol=1e-8)

    @pytest.mark.parametrize("alpha2", [1e-8, 1e-7, 1e-6])
    def test_weak_odd_strengths_match_states(self, alpha2):
        # the GHZ norm 1 - kappa_m e^{-6|alpha|^2} cancels here; the X states
        # keep unit trace because they are normalized by their own entries
        for m in (0, 1, 2, 5):
            params = ModelParams(alpha2, m, 1)
            rho = build_tripartite(params)
            assert_allclose(partial_trace(rho, (0, 1)).data, ghz_rho12(params).to_matrix(), atol=1e-8)
            assert_allclose(partial_trace(rho, (1, 2)).data, ghz_rho23(params).to_matrix(), atol=1e-8)

    def test_rho13_equals_rho12(self):
        params = ModelParams(0.7, 2, 0)
        rho = build_tripartite(params)
        assert_allclose(
            partial_trace(rho, (0, 2)).data, partial_trace(rho, (0, 1)).data, atol=1e-12
        )

    def test_invalid_labels(self):
        rho = build_tripartite(ModelParams(0.8, 0, 0))
        with pytest.raises(ValueError):
            partial_trace(rho, (3,))


class TestEntropyAndConcurrence:
    def test_pure_state_entropy(self):
        rho = build_tripartite(ModelParams(1.0, 0, 0))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_balanced_mixture(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_single_mode_entropy_matches_closed_form(self):
        params = ModelParams(0.7, 2, 0)
        rho1 = partial_trace(build_tripartite(params), (0,))
        s1 = report(params).S1
        assert von_neumann_entropy(rho1) == pytest.approx(s1, abs=1e-10)

    def test_wootters_on_pure_states(self):
        vec = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
        assert wootters_concurrence(np.outer(vec, vec.conj())) == pytest.approx(1.0, abs=1e-12)
        product = np.zeros((4, 4), dtype=complex)
        product[0, 0] = 1.0
        assert wootters_concurrence(product) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("params", [ModelParams(1.0, 1, 0), ModelParams(0.7, 2, 0), ModelParams(0.4, 3, 1)])
    def test_wootters_matches_closed_forms(self, params):
        rho123 = build_tripartite(params)
        rep = report(params)
        c23, c13 = rep.C23_conc, rep.C13_conc
        assert wootters_concurrence(partial_trace(rho123, (1, 2))) == pytest.approx(c23, abs=1e-8)
        assert wootters_concurrence(partial_trace(rho123, (0, 1))) == pytest.approx(c13, abs=1e-8)

    @pytest.mark.parametrize("params", [ModelParams(0.3, 0, 1), ModelParams(1.2, 2, 0)])
    def test_wootters_on_pure_coefficients(self, params):
        # on pure two-qubit projectors the spin-flip spectrum reduces to
        # 2 |C00 C11 - C01 C10|, here on the quasi-Bell cat coefficients
        coeffs = _superpositions([params.sign], _mode_pairs([params], None))[0][0].reshape(2, 2)
        rho = np.outer(coeffs.reshape(4), coeffs.reshape(4).conj())
        pure = 2.0 * abs(coeffs[0, 0] * coeffs[1, 1] - coeffs[0, 1] * coeffs[1, 0])
        assert wootters_concurrence(rho) == pytest.approx(pure, abs=1e-10)
        assert pure == pytest.approx(report(params).C12_conc, abs=1e-10)

    @pytest.mark.parametrize("function", [wootters_concurrence, von_neumann_entropy])
    @pytest.mark.parametrize(
        "case, message",
        [("doubled", "trace must be 1"), ("skew", "not Hermitian"), ("nan", "trace must be 1"),
         ("negative", "negative eigenvalue"), ("non-square", "does not match dims")],
    )
    def test_raw_arrays_are_checked_as_densities(self, function, case, message):
        # as DensityMatrix checks its data; before, twice a Bell projector
        # had concurrence 2 and entropy -2, a skew matrix concurrence 1, and
        # a nan matrix stopped LAPACK
        bell = np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]) / 2.0
        skew = bell + 0.25j * np.eye(4, k=3)
        raw = {"doubled": 2.0 * bell, "skew": skew, "nan": np.full((4, 4), math.nan),
               "negative": np.diag([1.2, -0.2, 0.0, 0.0]), "non-square": np.eye(4)[:3] / 3.0}[case]
        with pytest.raises(ValueError, match=message):
            function(raw)

    def test_concurrences_match_fifty_digit_tau(self):
        # C from the verify kernel against max(0, s1 - s2) over the singular
        # values of tau = F^T (sy x sy) F, taken in 50 digits from the same
        # float factors F, on 150 seeded points (450 concurrences)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(22)
        alpha2 = np.exp(rng.uniform(math.log(1e-6), math.log(12.0), 150))
        orders, parities = rng.integers(0, 65, 150), np.arange(150) % 2
        points = [ModelParams(float(a), int(m), int(k)) for a, m, k in zip(alpha2, orders, parities)]
        factors = fock_oracle._factors(*fock_oracle._cat_vectors(points, None))
        precise = []
        with mpmath.workdps(50):
            flip = mpmath.matrix(_SY_SY.tolist())
            for factor in factors:
                f = mpmath.matrix(factor.tolist())
                values = sorted((abs(v) for v in mpmath.eigsy(f.T * flip * f, eigvals_only=True)), reverse=True)
                precise.append(float(max(0, values[0] - values[1])))
        assert np.abs(fock_oracle._concurrences(factors) - precise).max() <= 2.2e-16

    def test_kernel_matches_the_dilation(self):
        # on complex densities of rank 1-4, from the eigenvector factors
        densities = seeded_densities(5, 400, lambda i: i % 4 + 1, lambda i: 1)
        data = np.array([rho.data for rho in densities])
        got = [wootters_concurrence(rho) for rho in densities]
        assert np.abs(np.array(got) - dilation_concurrences(data)).max() <= 4e-15


class TestTripartiteBuilder:
    def test_projector_purity(self):
        rho = build_tripartite(ModelParams(1.0, 1, 0))
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_normalization_constant(self):
        # squared norm of |alpha,m>|alpha>|alpha> + sign |-alpha,m>|-alpha>|-alpha>
        # from Fock-space overlaps, against 2 + 2 kappa_m e^{-6|alpha|^2} cos k pi
        params = ModelParams(1.0, 1, 0)
        nmax = default_nmax(params.alpha2, params.m)
        plus, minus = coherent_vector(1.0, nmax), coherent_vector(-1.0, nmax)
        overlap = inner(add_photons(plus, 1), add_photons(minus, 1)) * inner(plus, minus) ** 2
        closed = 2.0 + 2.0 * params.kappa_m * math.exp(-6.0) * params.sign
        assert 2.0 + 2.0 * params.sign * overlap.real == pytest.approx(closed, abs=1e-10)

    def test_w_state_limit(self):
        # at |alpha|^2 -> 0 the odd cat of each mode is its one-photon state,
        # so the odd m = 0 superposition approaches the W state of the cat basis
        rho = build_tripartite(ModelParams(1e-4, 0, 1))
        w_state = np.zeros(8)
        w_state[[4, 2, 1]] = 1.0 / math.sqrt(3.0)  # |100>, |010>, |001>
        assert float(np.real(w_state @ rho.data @ w_state)) >= 1.0 - 1e-3

    def test_schmidt_weights_match_split(self):
        params = ModelParams(1.0, 0, 0)
        rep = report(params)
        lam = np.sort(partial_trace(build_tripartite(params), (0,)).eigenvalues())[::-1]
        # rank-two marginal: S1 = H(lam_max) and C1|23 = 2 sqrt(lam_max lam_min)
        assert binary_entropy(lam[0]) == pytest.approx(rep.S1, abs=1e-10)
        assert 2.0 * math.sqrt(lam[0] * lam[1]) == pytest.approx(rep.C1_23_conc, abs=1e-8)

    def test_spectrum_matches_states_rho12(self):
        params = ModelParams(1.0, 1, 0)
        oracle = partial_trace(build_tripartite(params), (0, 1)).eigenvalues()
        assert_allclose(ghz_rho12(params).eigenvalues(), oracle, atol=1e-8)

    def test_spectrum_matches_states_rho23(self):
        params = ModelParams(0.5, 2, 1)
        oracle = partial_trace(build_tripartite(params), (1, 2)).eigenvalues()
        assert_allclose(ghz_rho23(params).eigenvalues(), oracle, atol=1e-8)

    def test_degenerate_point_refused(self):
        with pytest.raises(LimitRegimeError):
            build_tripartite(ModelParams(0.0, 0, 1))

    def test_strong_field_gram_path(self):
        # overlaps underflow to zero at alpha2 = 20; the orthonormalization
        # must survive and give back the GHZ mixture spectrum
        rho12 = partial_trace(build_tripartite(ModelParams(20.0, 0, 0)), (0, 1))
        assert_allclose(rho12.eigenvalues(), [0.0, 0.0, 0.5, 0.5], atol=1e-10)

    def test_bell_pair_matches_closed_concurrence(self):
        for params in (ModelParams(0.6, 1, 0), ModelParams(0.25, 2, 1)):
            oracle = wootters_concurrence(build_bell_pair(params))
            assert oracle == pytest.approx(report(params).C12_conc, abs=1e-8)


class TestDiscordNumeric:
    def test_stacked_equals_single(self):
        densities = random_densities(12, seed=11)
        for measured in (0, 1):
            stacked = discord_numeric(densities, measured=measured)
            assert stacked == [discord_numeric(rho, measured=measured) for rho in densities]

    @pytest.mark.parametrize("key, index, measured", STALL_CASES)
    def test_reaches_minimum_in_anisotropic_valley(self, stall_sets, key, index, measured):
        rho = stall_sets[key][index]
        reference = brute_force_discord(rho, points=64, measured=measured, polish=True)
        assert discord_numeric(rho, measured=measured) <= reference + 1e-12

    def test_stack_of_fast_and_slow_densities(self, stall_sets):
        # a pure state (zero minimum) and rho12 at alpha2 = 1, m = 1 (kappa_1
        # = 0) stop on the grid; turned off the axes by a fixed rotation of
        # the measured qubit, that rho12's singular zero minimum takes more
        # trial steps than its stack-mates and stops where its conditional
        # states turn pure; each density still lands, and counts, as it
        # does alone
        rho12 = [partial_trace(build_tripartite(ModelParams(1.0, 1, k)), (0, 1)) for k in (0, 1)]
        stack = [partial_trace(build_tripartite(ModelParams(1.3, 2, 0)), (0, 1)), stall_sets[1][0]]
        stack += [turned(rho, 0.5, 0.7) for rho in rho12] + rho12
        stack += [stall_sets[key][index] for key, index, _ in STALL_CASES] + random_densities(3, seed=2)

        def minimize(densities):
            return fock_oracle._min_conditional_entropy(fock_oracle._bloch(np.array([d.data for d in densities]), 0))

        single = [minimize([rho]) for rho in stack]
        stacked = minimize(stack)
        for field, values in zip(stacked._fields, stacked):
            assert np.array_equal(values, np.concatenate([getattr(m, field) for m in single]), equal_nan=True), field
        assert discord_numeric(stack) == [discord_numeric(rho) for rho in stack]
        converged, floor = stacked.flag == _CONVERGED, stacked.flag == _AT_FLOOR
        assert list(np.flatnonzero(floor)) == [1, 2, 3] and not np.any(stacked.flag == _CAPPED)
        assert stacked.iterations[converged].max() < stacked.iterations[[2, 3]].min()
        assert list(stacked.iterations[[1, 4, 5]]) == [0, 0, 0]
        assert np.all(np.abs(stacked.value[[2, 3]]) <= 1e-12)
        # the closed forms behind the gradient do not hold at pure
        # conditional states
        assert np.all(stacked.gradient_norm[converged] < 1e-6) and np.all(np.isnan(stacked.gradient_norm[floor]))

    def test_rank_one_densities_stop_on_the_grid(self, stall_sets):
        # every conditional state of a pure density is pure, so every
        # direction is a minimum and no trial step is taken.  The small
        # conditional eigenvalue (p - v)/2 is then known to absolute eps
        # only, which moves -lam log2 lam by up to eps log2(1/eps) ~ 1.2e-14
        # (the worst here is 9.6e-15), the bound of the 40-digit test
        data = np.array([rho.data for rho in stall_sets[1][::4]])
        grid = fock_oracle._GRID_FEATURES[1:4].T
        for measured in (0, 1):
            minima = fock_oracle._min_conditional_entropy(fock_oracle._bloch(data, measured))
            assert np.all(np.isin(minima.flag, (_CONVERGED, _AT_FLOOR))) and not minima.iterations.any()
            assert np.all((minima.direction[:, None, :] == grid).all(axis=2).any(axis=1))
            # precise_conditional_entropy measures the left qubit
            swapped = data.reshape(-1, 2, 2, 2, 2).transpose(0, 2, 1, 4, 3).reshape(-1, 4, 4) if measured else data
            precise = [precise_conditional_entropy(rho, n) for rho, n in zip(swapped, minima.direction)]
            assert np.max(np.abs(minima.value - precise)) <= 1e-14

    def test_grid_holds_each_axis_once(self):
        directions = fock_oracle._GRID_FEATURES[1:4].T
        for axis in np.eye(3):
            assert np.sum(np.all(directions == axis, axis=1)) == 1
        # no direction twice, nor with its antipode (the same measurement)
        overlaps = np.abs(directions @ directions.T)[~np.eye(len(directions), dtype=bool)]
        assert len(directions) <= 512 and overlaps.max() < 1.0 - 1e-6
        theta = np.unique(np.round(np.arccos(np.clip(directions[:, 2], -1.0, 1.0)), 12))
        assert theta[0] == 0.0 and theta[-1] == pytest.approx(0.5 * math.pi, abs=1e-12)
        # theta is rounded to 12 digits above
        assert np.max(np.diff(theta)) <= math.pi / 16 + 1e-12

    def test_coarse_grid_matches_the_497_grid(self, stall_sets, monkeypatch):
        # the grid only picks each start: from the frozen 497-direction grid
        # the oracle's own densities land on the same direction with the
        # same value, and no general density ends higher than the zoom
        # test's bound above its finer-grid minimum
        def both(corr):
            coarse = fock_oracle._min_conditional_entropy(corr)
            with monkeypatch.context() as patch:
                patch.setattr(fock_oracle, "_GRID_FEATURES", basin_grid_497())
                fine = fock_oracle._min_conditional_entropy(corr)
            assert not np.any(coarse.flag == _CAPPED) and not np.any(fine.flag == _CAPPED)
            return coarse, fine

        for corr in (verify_grid_bloch(), fock_oracle._bloch(reductions(random_points()), 0)):
            coarse, fine = both(corr)
            assert np.array_equal(coarse.value, fine.value) and np.array_equal(coarse.direction, fine.direction)
        for densities in [*stall_sets.values(), random_densities(2000, seed=123)]:
            data = np.array([rho.data for rho in densities])
            for measured in (0, 1):
                coarse, fine = both(fock_oracle._bloch(data, measured))
                assert np.all(coarse.value <= fine.value + 1e-14)

    def test_reductions_land_on_x_hat(self):
        # the X-shaped reductions' optimum is sigma_x, a grid point where
        # the Riemannian gradient vanishes by symmetry, so no trial step is
        # taken whatever the sign of the Hessian, which at even parity below
        # alpha2 ~ 5e-4 is rounding's (the theta curvature is ~1e-11).  In
        # the strong-field part of the random sample (alpha2 > 4.6) some
        # conditional states at x-hat are pure, and those stop on the floor
        x_hat = [1.0, 0.0, 0.0]
        minima = fock_oracle._min_conditional_entropy(verify_grid_bloch())
        assert np.all(minima.flag == _CONVERGED) and not minima.iterations.any()
        assert_allclose(minima.direction, np.broadcast_to(x_hat, minima.direction.shape), rtol=0.0, atol=1e-15)
        points = random_points()
        minima = fock_oracle._min_conditional_entropy(fock_oracle._bloch(reductions(points), 0))
        assert not minima.iterations.any() and not np.any(minima.flag == _CAPPED)
        assert_allclose(minima.direction, np.broadcast_to(x_hat, minima.direction.shape), rtol=0.0, atol=1e-15)
        strong = np.tile([params.alpha2 > 4.6 for params in points], 2)
        assert np.all(strong[minima.flag == _AT_FLOOR])

    def test_minima_match_forty_digit_entropies(self):
        # a conditional eigenvalue lam near 0, known to about eps, moves
        # -lam log2 lam by up to eps log2(1/eps) ~ 1.2e-14; the worst here,
        # 8.9e-15, is a density whose conditional states are pure (40-digit
        # minimum -8.6e-19, at alpha2 = 5.26, m = 9, k = 0)
        data = np.concatenate([reductions(verification_grid()), reductions(random_points())])
        minima = fock_oracle._min_conditional_entropy(fock_oracle._bloch(data, 0))
        precise = [precise_conditional_entropy(rho, n) for rho, n in zip(data, minima.direction)]
        assert np.max(np.abs(minima.value - precise)) <= 1e-14

    def test_no_density_stops_on_a_cap(self, stall_sets):
        minima = fock_oracle._min_conditional_entropy(verify_grid_bloch())
        assert np.all(minima.flag == _CONVERGED)
        assert np.median(minima.iterations) <= 5
        for key, index, measured in STALL_CASES:
            minima = fock_oracle._min_conditional_entropy(fock_oracle._bloch(stall_sets[key][index].data[None], measured))
            assert minima.flag[0] == _CONVERGED and minima.iterations[0] < 10, (key, index, measured)

    def test_shifted_steps_leave_a_concave_start(self, monkeypatch):
        # measuring classical_quantum(0.3, 1.0) across its optimum n(0.3,
        # 1.0) maximizes the conditional entropy; 0.1 rad off that great
        # circle the Riemannian Hessian has a negative eigenvalue, and the
        # shifted steps must still reach the zero minimum.  Run with k trial
        # steps allowed, the value can only fall as k grows
        corr = fock_oracle._bloch(classical_quantum(0.3, 1.0).data[None], 0)
        theta = 0.3 + 0.5 * math.pi - 0.1
        start = np.array([[math.sin(theta) * math.cos(1.0), math.sin(theta) * math.sin(1.0), math.cos(theta)]])
        assert np.linalg.eigvalsh(fock_oracle._newton_terms(corr, start)[2])[0, 0] < 0.0
        values = []
        for cap in range(fock_oracle._NEWTON_CAP + 1):
            monkeypatch.setattr(fock_oracle, "_NEWTON_CAP", cap)
            minima = fock_oracle._refine(corr, start)
            values.append(minima.value[0])
        # the last run had the full cap
        assert minima.flag[0] != _CAPPED and abs(minima.value[0]) <= 1e-12
        assert np.all(np.diff(values) <= 0.0) and values[0] == fock_oracle._newton_terms(corr, start)[0][0]

    def test_minima_are_the_evaluator_at_their_direction(self, stall_sets):
        # the reported value is the accurate evaluator's at the reported
        # direction, never the grid pass's expanded formula
        stacks = [verify_grid_bloch(), fock_oracle._bloch(reductions(random_points()), 0)]
        for densities in stall_sets.values():
            data = np.array([rho.data for rho in densities])
            stacks += [fock_oracle._bloch(data, measured) for measured in (0, 1)]
        for corr in stacks:
            minima = fock_oracle._min_conditional_entropy(corr)
            assert np.array_equal(minima.value, fock_oracle._newton_terms(corr, minima.direction)[0])

    def test_verify_grid_minima_match_the_zoom(self):
        # the frozen zoom-stencil minimizer the Newton refinement replaced
        corr = verify_grid_bloch()
        zoom, _ = zoom_minima(corr)
        assert np.max(np.abs(fock_oracle._min_conditional_entropy(corr).value - zoom)) <= 1e-14

    @pytest.mark.parametrize("measured", [0, 1])
    @pytest.mark.parametrize("key", sorted(STALL_SETS))
    def test_no_minimum_rises_above_the_zoom(self, stall_sets, key, measured):
        # the zoom's own values carry its expanded formula's rounding, up to
        # ~1.5e-14 below the projector value where it landed (1.03e-14 below
        # the 40-digit value at set 2, index 378), so each landing point is
        # read from the projected states instead
        data = np.array([rho.data for rho in stall_sets[key]])
        corr = fock_oracle._bloch(data, measured)
        _, landed = zoom_minima(corr)
        zoom = landed_conditional_entropies(data, landed, measured)
        assert np.all(fock_oracle._min_conditional_entropy(corr).value <= zoom + 1e-14)

    def test_refinement_beats_dense_grid(self):
        densities = random_densities(12, seed=5)
        for rho, refined in zip(densities, discord_numeric(densities)):
            reference = brute_force_discord(rho)
            assert refined <= reference + 1e-12
            assert refined >= reference - 1e-3

    @pytest.mark.parametrize(
        "theta, phi", [(0.0, 0.0), (0.01, 1.0), (0.02, math.pi / 2), (math.pi - 0.02, 1.3), (0.3, 1.0)]
    )
    def test_zero_discord_near_and_off_pole(self, theta, phi):
        assert abs(discord_numeric(classical_quantum(theta, phi))) <= 1e-12

    def test_product_state(self):
        rho = np.kron(np.diag([0.3, 0.7]), np.array([[0.6, 0.2], [0.2, 0.4]])).astype(complex)
        value = discord_numeric(DensityMatrix(rho, (2, 2)), measured=0)
        assert abs(value) <= 1e-9

    def test_maximally_entangled(self):
        vec = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
        rho = DensityMatrix(np.outer(vec, vec.conj()), (2, 2))
        assert discord_numeric(rho, measured=0) == pytest.approx(1.0, abs=1e-6)

    def test_measured_side(self):
        # rho12 is not symmetric under swapping the measured side
        params = ModelParams(0.4, 2, 0)
        rho12 = partial_trace(build_tripartite(params), (0, 1))
        d_mode1 = discord_numeric(rho12, measured=0)
        assert d_mode1 == pytest.approx(correlations.discord_12(params), abs=1e-3)

    @pytest.mark.parametrize("measured", [2, 1.0, True, "0"])
    def test_measured_side_must_be_int_0_or_1(self, measured):
        rho = DensityMatrix(np.eye(4) / 4.0, (2, 2))
        with pytest.raises(ValueError, match=f"measured side must be 0 or 1, got {measured!r}"):
            discord_numeric(rho, measured=measured)

    def test_x_state_candidates_bound_the_minimum(self):
        # the reductions are X-shaped; the sigma_z measurement and the best
        # measurement in the x-y plane are the candidate optima of Ali, Rau &
        # Alber, PRA 81, 042105 (2010), which Huang, PRA 88, 014302 (2013)
        # shows can fall short, so the minimizer must reach at least as low
        rng = np.random.default_rng(6)
        strengths = sorted({params.alpha2 for params in verification_grid()})
        for k in (0, 1):
            for m in range(5):
                for alpha2 in rng.choice(strengths, size=2, replace=False):
                    params = ModelParams(float(alpha2), m, k)
                    for x_state in (ghz_rho12(params), ghz_rho23(params)):
                        a1, a2, a3, a4 = x_state.diag
                        p0, p1 = a1 + a2, a3 + a4
                        sigma_z = p0 * binary_entropy(a1 / p0) + p1 * binary_entropy(a3 / p1)
                        # conditional states [[a1 + a3, z], [z*, a2 + a4]], |z| <= |rho14| + |rho23|
                        coherence = abs(x_state.off_outer) + abs(x_state.off_inner)
                        in_plane = binary_entropy(0.5 + math.hypot(0.5 * (a1 + a3 - a2 - a4), coherence))
                        rho = DensityMatrix(x_state.to_matrix(), (2, 2))
                        s_measured = von_neumann_entropy(partial_trace(rho, (0,)))
                        minimum = discord_numeric(rho) - s_measured + von_neumann_entropy(rho)
                        assert minimum <= sigma_z + 1e-12, (params, minimum, sigma_z)
                        assert minimum <= in_plane + 1e-12, (params, minimum, in_plane)

    @pytest.mark.parametrize("params", [ModelParams(0.4, 2, 0), ModelParams(1.0, 1, 1)])
    def test_measuring_second_mode(self, params):
        # measuring mode 2 of rho12 leaves S2 - S12 + E13, and S2 = S12 by
        # purity of the three-mode state, so the discord collapses to E13
        rho12 = partial_trace(build_tripartite(params), (0, 1))
        assert discord_numeric(rho12, measured=1) == pytest.approx(report(params).E13, abs=1e-3)

    @pytest.mark.parametrize(
        "params",
        [ModelParams(0.3, 0, 0), ModelParams(1.0, 1, 0), ModelParams(0.6, 3, 1), ModelParams(2.5, 2, 1)],
    )
    def test_matches_koashi_winter_route(self, params):
        rho123 = build_tripartite(params)
        d12 = discord_numeric(partial_trace(rho123, (0, 1)), measured=0)
        d23 = discord_numeric(partial_trace(rho123, (1, 2)), measured=0)
        assert d12 == pytest.approx(correlations.discord_12(params), abs=1e-3)
        assert d23 == pytest.approx(correlations.discord_23(params), abs=1e-3)


class TestVerify:
    @pytest.mark.parametrize(
        "params",
        [ModelParams(1.0, 0, 0), ModelParams(0.3, 3, 1), ModelParams(20.0, 0, 0)],
    )
    def test_spec_points(self, params):
        record = verify(params)
        assert record.passes()
        for name, deviation in record.deviations.items():
            bound = 1e-3 if name in DISCORD_FIELDS else 1e-8
            assert abs(deviation) <= bound, (name, deviation)

    def test_below_grid_strengths(self):
        # agreement also holds below the default grid's 0.1 edge, where the
        # weak-strength monogamy violations live
        for alpha2 in (0.05, 0.07):
            for k in (0, 1):
                assert verify(ModelParams(alpha2, 1, k)).passes()

    def test_truncation_doubling_stability(self):
        params = ModelParams(0.9, 2, 1)
        base_nmax = default_nmax(params.alpha2, params.m)
        first = verify(params, nmax=base_nmax)
        second = verify(params, nmax=2 * base_nmax)
        for name in first.deviations:
            assert abs(first.deviations[name] - second.deviations[name]) <= 1e-10

    def test_record_bounds_and_worst(self):
        record = verify(ModelParams(0.5, 1, 0))
        assert record.bounds == FIELD_BOUNDS
        assert not record.passes(bound_override=1e-18)
        name, dev = record.worst()
        assert name in record.deviations
        assert record.deviations[name] == dev
        # under one override bound, as `passes` applies it, the largest deviation is the worst
        for override in (1e-18, 0.0):
            name, dev = record.worst(override)
            assert abs(dev) == record.max_abs_deviation
        assert record.max_abs_deviation == max(abs(v) for v in record.deviations.values())

    def test_grid_entry_point_matches_single_points(self):
        points = [ModelParams(0.3, 0, 1), ModelParams(1.0, 2, 0), ModelParams(2.5, 4, 1)]
        records = verify_points(points)
        assert [record.params for record in records] == points
        assert [record.deviations for record in records] == [verify(params).deviations for params in points]

    @pytest.mark.parametrize("grid", ["default", "random"])
    def test_records_match_the_projector_route(self, grid):
        # the reductions taken from the cat vectors and the deviations taken
        # from one stacked subtraction give every field but the concurrences
        # and EoFs bit for bit; those come from the densities' factors, which
        # the projector route, holding only rho, does not have
        points = verification_grid() if grid == "default" else random_points()
        records = verify_points(points)
        expected = projector_route_deviations(points)
        assert [record.params for record in records] == points
        assert all(list(record.deviations) == list(FIELD_BOUNDS) for record in records)
        got = np.array([list(record.deviations.values()) for record in records])
        want = np.array([list(deviations.values()) for deviations in expected])
        factored = np.array([name in CONCURRENCE_FIELDS for name in FIELD_BOUNDS])
        assert got[:, ~factored].tobytes() == want[:, ~factored].tobytes()
        assert np.abs(got[:, factored] - want[:, factored]).max() <= 1e-12

    def test_empty_point_list(self):
        assert verify_points([]) == []
        assert discord_numeric([]) == []

    def test_stacked_call_counts_do_not_grow_with_points(self, monkeypatch):
        # one stacked call per shape: the spectra, the concurrences and the
        # partial traces cost the same calls at any size
        counts = {}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                # LAPACK calls by the shape of the matrices they take
                key = (name, np.shape(args[0])[1:]) if name != "einsum" else name
                counts[key] = counts.get(key, 0) + 1
                return function(*args, **kwargs)
            return wrapper

        for name in ("eigvalsh", "eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        monkeypatch.setattr(np, "einsum", counting("einsum", np.einsum))
        for size in (1, 8, 24):
            counts.clear()
            assert len(verify_points(random_points(size, seed=size))) == size
            # the spectra of rho1 and rho2, of the 4x4 densities and of the
            # concurrences' 2x2 tau matrices, with no eigh, no 8x8 dilation
            # and no svd; the reductions come from the cat vectors, so only
            # rho1, rho2 and the Pauli forms are traced with einsum
            assert counts == {("eigvalsh", (2, 2)): 2, ("eigvalsh", (4, 4)): 1, "einsum": 2}

    @pytest.mark.parametrize("alpha2", [0.0, 1e-20])
    def test_strength_without_odd_cat_is_refused(self, alpha2):
        with pytest.raises(ValueError, match=rf"alpha2={alpha2!r} \(m=2, k=0\).*no odd vector"):
            verify_points([ModelParams(1.0, 0, 0), ModelParams(alpha2, 2, 0)])
        # just above the rule the oracle still builds and agrees
        assert verify(ModelParams(3e-19, 2, 0)).passes()

    def test_nan_deviation_fails(self):
        record = verify(ModelParams(0.5, 1, 0))
        assert record.passes() and not record.passes(bound_override=math.nan)
        broken = VerificationRecord(record.params, dict(record.deviations, D12=math.nan), record.bounds)
        assert not broken.passes()
        assert not broken.passes(bound_override=1.0)
        for override in (None, 1.0):
            name, dev = broken.worst(override)
            assert name == "D12" and math.isnan(dev)

    def test_nan_deviation_is_the_max_abs_deviation(self):
        record = verify(ModelParams(0.5, 1, 0))
        assert math.isfinite(record.max_abs_deviation)
        # wherever the nan sits among the fields
        for name in FIELD_BOUNDS:
            broken = VerificationRecord(record.params, dict(record.deviations, **{name: math.nan}), record.bounds)
            assert math.isnan(broken.max_abs_deviation), name

    def test_wide_grid_passes(self):
        # the closed forms' domain, wider than the default grid: m up to 64,
        # alpha2 from 1e-6 to 12 and both parities, 1080 points
        strengths = np.geomspace(1e-6, 12.0, 60).tolist()
        points = [ModelParams(a, m, k) for k in (0, 1) for m in (0, 1, 2, 5, 8, 16, 32, 48, 64) for a in strengths]
        records = verify_points(points)
        assert len(records) == 1080
        assert all(record.passes() for record in records)

    def test_grid_drops_repeated_orders_and_parities(self):
        assert verification_grid(0.5, 1.0, 2, (2, 0, 2), (1, 1)) == verification_grid(0.5, 1.0, 2, (0, 2), (1,))
        assert verification_grid(0.5, 1.0, 2, (0, 2), (1,)) == [
            ModelParams(0.5, 0, 1), ModelParams(1.0, 0, 1), ModelParams(0.5, 2, 1), ModelParams(1.0, 2, 1)
        ]

    def test_grid_rejects_repeated_strengths(self):
        with pytest.raises(ValueError, match=r"start=1.0, stop=1.0, steps=3"):
            verification_grid(1.0, 1.0, 3, (0,), (0,))
        assert verification_grid(1.0, 1.0, 1, (0,), (0,)) == [ModelParams(1.0, 0, 0)]
        # descending grids stay allowed
        assert verification_grid(2.0, 1.0, 2, (0,), (0,)) == [ModelParams(2.0, 0, 0), ModelParams(1.0, 0, 0)]

    def test_default_grid_shape(self):
        grid = verification_grid()
        assert len(grid) == 400
        assert grid[0] == ModelParams(0.1, 0, 0)
        assert grid[-1] == ModelParams(4.0, 4, 1)
