"""Brute-force verification layer in truncated Fock space.

Every state is rebuilt from explicit photon-number amplitudes: overlaps come
from amplitude summation, reduced densities from partial traces, spectra from
LAPACK (numpy.linalg.eigvalsh/eigh), concurrence from the spin-flip spectrum,
and discord from direct minimization of the post-measurement conditional
entropy over projective qubit measurements.  None of the closed forms from
`states` or `correlations` enter these code paths; the single shared
primitive is the binary entropy.

Per mode, the pair {|alpha,m>, |-alpha,m>} is orthonormalized from its
Fock-space overlaps into the even/odd cat basis of the closed forms, so
reduced densities can be compared entrywise.  The kernels work on stacks:
`verify_points` holds the cat-basis vectors of all its points in one array
and takes every reduction, spectrum, concurrence and discord from a few
stacked calls, validating each stack of densities once; the one-object
functions run the same kernels on a stack of one.  The discord minimizer
works on the real Bloch form (r, s, T) of each 4x4 density, where the
conditional entropy depends on the direction n only through n.r, n.(T s)
and n^T T T^T n: a 32x32 (theta, phi) grid pass, then zoom stencil rounds
that keep their step while the best point lies on the stencil's outer ring
and stop each density at a step of about sqrt(eps).
"""

import math
from dataclasses import dataclass

import numpy as np

from .special import binary_entropy
from .states import ModelParams, _require_regular
from .correlations import report

__all__ = [
    "TAIL_BOUND",
    "TruncationError",
    "FockVector",
    "DensityMatrix",
    "VerificationRecord",
    "FIELD_BOUNDS",
    "default_nmax",
    "coherent_vector",
    "add_photons",
    "inner",
    "partial_trace",
    "von_neumann_entropy",
    "wootters_concurrence",
    "build_tripartite",
    "build_bell_pair",
    "discord_numeric",
    "verify",
    "verify_points",
    "verification_grid",
]

# Maximum squared amplitude tolerated at the truncation edge.
TAIL_BOUND = 1e-24


class TruncationError(ValueError):
    """The requested Fock cutoff cannot hold the state within TAIL_BOUND."""


def default_nmax(alpha2, m):
    """Deterministic truncation rule: Poisson mean plus ten standard
    deviations plus excitation headroom, never below m + 4.

    Each photon addition multiplies the edge amplitude by about sqrt(nmax),
    so the headroom carries 2m rather than m; with that margin the discarded
    mass stays below TAIL_BOUND everywhere the oracle is used.
    """
    alpha2 = float(alpha2)
    return max(int(m) + 4, math.ceil(alpha2 + 10.0 * math.sqrt(alpha2) + 2 * int(m) + 20))


@dataclass(frozen=True)
class FockVector:
    """Truncated Fock-basis amplitude vector a_n = <n|psi>, n = 0..nmax."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError("amplitudes must form a one-dimensional, non-empty array")
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("amplitudes must be finite")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def norm_sq(self):
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def inner(bra, ket):
    """Inner product <bra|ket> by amplitude summation."""
    if bra.amplitudes.size != ket.amplitudes.size:
        raise ValueError("vectors live on different truncations")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


def coherent_vector(alpha, nmax):
    """Coherent state e^{-|alpha|^2/2} sum_n alpha^n / sqrt(n!) |n> truncated
    at nmax; raises TruncationError when the tail amplitude is not negligible."""
    if nmax != int(nmax) or nmax < 0:
        raise ValueError(f"Fock cutoff nmax must be a non-negative integer, got {nmax!r}")
    alpha = float(alpha)
    amp = np.zeros(nmax + 1, dtype=complex)
    amp[0] = math.exp(-0.5 * alpha * alpha)
    for n in range(1, nmax + 1):
        amp[n] = amp[n - 1] * alpha / math.sqrt(n)
    if abs(amp[nmax]) ** 2 > TAIL_BOUND:
        raise TruncationError(
            f"nmax={nmax} insufficient for alpha={alpha}: edge weight {abs(amp[nmax]) ** 2:.3e}"
        )
    return FockVector(amp)


def add_photons(vec, m, normalize=True):
    """Apply the creation operator m times (a+ |n> = sqrt(n+1) |n+1>).

    Returns the normalized result by default; with ``normalize=False`` the
    raw vector comes back, whose squared norm for a normalized coherent
    input equals m! L_m(-|alpha|^2).
    """
    if m != int(m) or m < 0:
        raise ValueError(f"photon count must be a non-negative integer, got {m!r}")
    amp = np.array(vec.amplitudes, dtype=complex)
    roots = np.sqrt(np.arange(1.0, amp.size))
    for _ in range(int(m)):
        # the edge amplitude is about to fall off the truncation; its share
        # of the state's mass must be negligible
        mass = float(np.vdot(amp, amp).real)
        if abs(amp[-1]) ** 2 > TAIL_BOUND * mass:
            raise TruncationError("no truncation headroom left for another photon addition")
        amp[1:] = roots * amp[:-1]
        amp[0] = 0.0
    if normalize:
        amp /= math.sqrt(float(np.vdot(amp, amp).real))
        if abs(amp[-1]) ** 2 > TAIL_BOUND:
            raise TruncationError("state no longer fits the truncation after photon addition")
    return FockVector(amp)


def _check_densities(data):
    """Validate a (B, D, D) stack of density matrices (unit trace and
    Hermiticity within 1e-10, no eigenvalue below -1e-9) and return their
    ascending spectra."""
    trace = np.trace(data, axis1=-2, axis2=-1)
    off = ~(np.abs(trace - 1.0) <= 1e-10)
    if off.any():
        raise ValueError(f"trace must be 1, got {complex(trace[off][0])!r}")
    if not np.all(np.abs(data - np.swapaxes(data, -1, -2).conj()) <= 1e-10):
        raise ValueError("matrix is not Hermitian within tolerance")
    spectra = np.linalg.eigvalsh(data)
    if not np.all(spectra[:, 0] >= -1e-9):
        raise ValueError("matrix has a negative eigenvalue beyond tolerance")
    return spectra


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix on a labeled tensor product of qubit-sized subsystems."""

    data: np.ndarray
    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        size = math.prod(dims)
        data = np.array(self.data, dtype=complex)
        if data.shape != (size, size):
            raise ValueError(f"data shape {data.shape} does not match dims {dims}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dims", dims)
        _check_densities(data[None])

    def eigenvalues(self):
        """Spectrum in ascending order."""
        return np.linalg.eigvalsh(self.data)

    def purity(self):
        return float(np.trace(self.data @ self.data).real)


def _partial_trace(data, dims, keep):
    """Trace a (B, D, D) stack over every subsystem of ``dims`` not in the
    sorted tuple ``keep``."""
    rows = "abcdefghijklmnopqrstuvwxy"[: len(dims)]
    cols = "".join(rows[i].upper() if i in keep else rows[i] for i in range(len(dims)))
    kept = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    size = math.prod(dims[i] for i in keep)
    tensor = data.reshape((len(data),) + tuple(dims) * 2)
    return np.einsum(f"z{rows}{cols}->z{kept}", tensor).reshape(len(data), size, size)


def partial_trace(rho, keep):
    """Trace out every subsystem not listed in ``keep`` (0-based indices,
    original ordering preserved); tracing everything returns the 1x1 unit."""
    keep = tuple(sorted({int(i) for i in keep}))
    if any(i < 0 or i >= len(rho.dims) for i in keep):
        raise ValueError(f"invalid subsystem labels {keep} for dims {rho.dims}")
    return DensityMatrix(_partial_trace(rho.data[None], rho.dims, keep)[0], tuple(rho.dims[i] for i in keep))


def _xlog2x(values):
    return values * np.log2(values, out=np.zeros_like(values), where=values > 1e-300)


def _entropies(spectra):
    """- sum_i lambda_i log2 lambda_i along the last axis (0 log 0 = 0)."""
    return -np.sum(_xlog2x(spectra), axis=-1)


def von_neumann_entropy(rho):
    """- sum_i lambda_i log2 lambda_i over the spectrum (0 log 0 = 0)."""
    data = rho.data if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return float(_entropies(np.linalg.eigvalsh(data)))


_SY_SY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


def _psd_sqrt(data):
    """Principal square roots of a stack of positive semidefinite Hermitian
    matrices, with eigenvalues below zero (eigensolver noise) clipped to zero."""
    lam, vec = np.linalg.eigh(data)
    return (vec * np.sqrt(np.clip(lam, 0.0, None))[..., None, :]) @ np.swapaxes(vec, -1, -2).conj()


def _concurrences(data):
    """Wootters concurrences of a (B, 4, 4) stack of two-qubit densities."""
    root = _psd_sqrt(data)
    product = root @ _SY_SY @ root.conj()
    dilation = np.zeros((len(data), 8, 8), dtype=product.dtype)
    dilation[:, :4, 4:] = product
    dilation[:, 4:, :4] = np.swapaxes(product, -1, -2).conj()
    lams = np.clip(np.linalg.eigvalsh(dilation)[:, :3:-1], 0.0, None)
    return np.maximum(0.0, lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3])


def wootters_concurrence(rho):
    """max(0, l1 - l2 - l3 - l4) with l_i the descending square roots of the
    spectrum of rho (sy x sy) rho* (sy x sy).

    The l_i equal the singular values of A = sqrt(rho) (sy x sy) conj(sqrt(rho))
    since A A+ is exactly the Hermitian similarity of the spin-flip product.
    They are read off the Hermitian dilation [[0, A], [A+, 0]], whose spectrum
    is (+-l_i); that keeps the small l_i at absolute working precision instead
    of square-rooting eigensolver noise.
    """
    data = rho.data if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if data.shape != (4, 4):
        raise ValueError("concurrence is defined for 4x4 two-qubit densities")
    return float(_concurrences(data[None])[0])


def _mode_pair(v_plus, v_minus):
    """Coordinates (c_plus, c_minus) of v_plus in the orthonormal (even, odd)
    basis of the span of the pair; v_minus has (c_plus, -c_minus)."""
    overlap = inner(v_plus, v_minus).real
    even = v_plus.amplitudes + v_minus.amplitudes
    odd = v_plus.amplitudes - v_minus.amplitudes
    n_even = math.sqrt(float(np.vdot(even, even).real))
    n_odd = math.sqrt(float(np.vdot(odd, odd).real))
    if min(n_even, n_odd) < 1e-9:
        raise ValueError("mode Gram matrix is numerically singular; the pair spans no qubit")
    return math.sqrt(max(0.0, 0.5 * (1.0 + overlap))), math.sqrt(max(0.0, 0.5 * (1.0 - overlap)))


def _mode_pairs(params, nmax):
    """The (excited, plain) cat pairs of one parameter point; each coherent
    vector is built once and shared by both pairs."""
    if nmax is None:
        nmax = default_nmax(params.alpha2, params.m)
    alpha = math.sqrt(params.alpha2)
    plus = coherent_vector(alpha, nmax)
    minus = coherent_vector(-alpha, nmax)
    return _mode_pair(add_photons(plus, params.m), add_photons(minus, params.m)), _mode_pair(plus, minus)


def _superposition(signs, modes):
    """Normalized weights of |alpha..> + sign |-alpha..> for a stack of
    points: ``modes`` of shape (B, M, 2) holds each mode's (c_plus, c_minus)
    ((c_plus, -c_minus) for -alpha), and row b of the (B, 2**M) result holds
    point b's weights in the basis of the M modes' tensor product."""
    modes = np.asarray(modes, dtype=float)
    forward, backward = modes[:, 0], modes[:, 0] * [1.0, -1.0]
    for coords in modes.transpose(1, 0, 2)[1:]:
        size = (len(modes), 2 * forward.shape[1])
        forward = (forward[:, :, None] * coords[:, None, :]).reshape(size)
        backward = (backward[:, :, None] * (coords * [1.0, -1.0])[:, None, :]).reshape(size)
    raw = forward + np.reshape(signs, (-1, 1)) * backward
    norm = np.sqrt(np.sum(raw * raw, axis=1, keepdims=True))
    if not np.all(norm >= 1e-9):
        raise ValueError("superposition vector vanishes at this parameter point")
    return raw / norm


def _cat_projectors(points, nmax):
    """Pure-state projectors of the GHZ-type state, shape (B, 8, 8), and of
    the quasi-Bell pair (excited mode 1 with a plain mode 2), (B, 4, 4), in
    each point's cat basis.  The Fock-space overlaps of each (alpha2, m) are
    computed once, so the two parities of a strength share them."""
    pairs, modes = {}, []
    for params in points:
        _require_regular(params.alpha2, params.k)
        key = (params.alpha2, params.m)
        if key not in pairs:
            pairs[key] = _mode_pairs(params, nmax)
        excited, plain = pairs[key]
        modes.append((excited, plain, plain))
    modes, signs = np.array(modes).reshape(len(points), 3, 2), [params.sign for params in points]
    vectors = _superposition(signs, modes), _superposition(signs, modes[:, :2])
    return [v[:, :, None] * v[:, None, :] for v in vectors]


def build_tripartite(params, nmax=None):
    """Pure-state projector of the GHZ-type superposition on the 2x2x2
    subspace spanned by the per-mode cat pairs."""
    return DensityMatrix(_cat_projectors([params], nmax)[0][0], (2, 2, 2))


def build_bell_pair(params, nmax=None):
    """Quasi-Bell pure pair (excited mode 1 with a plain mode 2) as a 4x4
    projector in the cat-basis subspace."""
    return DensityMatrix(_cat_projectors([params], nmax)[1][0], (2, 2))


_THETA_POINTS = 32
_PHI_POINTS = 32
# Zoom refinement: each round evaluates a 9x9 stencil spanning +- the
# density's (theta, phi) half-widths, which start at one grid step.  A round
# whose best point improves on the centre from the outer ring `_EDGE` keeps
# them, as the minimum may lie beyond the ring; every other round shrinks
# them 4x.  A density stops once both are <= 1.5e-8 rad (about sqrt(eps): a
# smooth minimum's value error, about H h^2, is then below eps) or after
# _MAX_ROUNDS rounds (a narrow curved valley can take ~300).
_STENCIL = np.arange(-4, 5) / 4.0
_EDGE = ((np.abs(_STENCIL[:, None]) == 1.0) | (np.abs(_STENCIL) == 1.0)).ravel()
_FIRST_HALF_WIDTHS = np.array([math.pi / (_THETA_POINTS - 1), 2.0 * math.pi / _PHI_POINTS])
_STOP_HALF_WIDTH = 1.5e-8
_MAX_ROUNDS = 500


def _features(theta, phi):
    """The terms (1, n_i, n_i^2, 2 n_i n_j) through which the conditional
    entropy depends on the direction n, on each row's (theta, phi) product
    grid: theta (B, a) and phi (B, b) give (B, 10, a * b), theta-major."""
    sin_t, size = np.sin(theta)[:, :, None], (len(theta), theta.shape[1] * phi.shape[1])
    x = (sin_t * np.cos(phi)[:, None, :]).reshape(size)
    y = (sin_t * np.sin(phi)[:, None, :]).reshape(size)
    z = np.repeat(np.cos(theta), phi.shape[1], axis=1)
    return np.stack([np.ones(size), x, y, z, x * x, y * y, z * z, 2.0 * x * y, 2.0 * x * z, 2.0 * y * z], axis=1)


# The grid's rows theta and pi - theta, with phi and phi + pi, hold the
# directions n and -n: one measurement with its two outcomes swapped.  Only
# the rows theta < pi/2 are evaluated.
_GRID_PHI = np.linspace(0.0, 2.0 * math.pi, _PHI_POINTS, endpoint=False)
_GRID_FEATURES = _features(np.linspace(0.0, math.pi, _THETA_POINTS)[None, : _THETA_POINTS // 2], _GRID_PHI[None])[0]
# Densities per grid-pass chunk (results do not depend on it): the largest
# temporaries, the (16, 3, 512) product and the two outcomes, hold 192 KB and
# 128 KB.  On the default verify grid's 800 densities, chunks of 4, 8, 16, 32
# and 64 took 42, 35, 29, 28 and 31 us per density (one core, 2-vCPU x86 VM).
_GRID_CHUNK = 16


def _coefficients(corr):
    """(B, 3, 10) maps from direction features to (n.r, n.(T s),
    |s|^2 + n^T T T^T n) for a (B, 4, 4) stack of Pauli correlation
    matrices (see `_bloch`)."""
    r, s, tensor = corr[:, 1:, 0], corr[:, 0, 1:], corr[:, 1:, 1:]
    coeffs = np.zeros((len(corr), 3, 10))
    coeffs[:, 0, 1:4] = r
    coeffs[:, 1, 1:4] = (tensor @ s[:, :, None])[:, :, 0]
    coeffs[:, 2, 0] = s[:, 0] * s[:, 0] + s[:, 1] * s[:, 1] + s[:, 2] * s[:, 2]
    coeffs[:, 2, 4:] = (tensor @ np.swapaxes(tensor, 1, 2))[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]
    return coeffs


def _conditional_entropy(abu):
    """Post-measurement conditional entropy sum_+- p S(rho_+-) of the
    unmeasured qubit, for directions given by ``abu`` (B, 3, K) =
    (n.r, n.(T s), |s|^2 + n^T T T^T n).

    Outcome +- occurs with weight p = (1 +- n.r)/2 and leaves the
    conditional Bloch vector v = (s +- T^T n)/2, with |v|^2 =
    (|s|^2 + n^T T T^T n +- 2 n.(T s))/4; the unnormalized state has
    eigenvalues (p +- |v|)/2.
    """
    signs = np.array([1.0, -1.0])[:, None, None]
    p = 0.5 + 0.5 * signs * abu[:, 0]
    v = 0.5 * np.sqrt(np.maximum(abu[:, 2] + 2.0 * signs * abu[:, 1], 0.0))
    # p S(rho/p) = p log2 p - sum_i lam_i log2 lam_i  (lam unnormalized)
    total = _xlog2x(p) - _xlog2x(0.5 * (p + v)) - _xlog2x(0.5 * (p - v))
    return total[0] + total[1]


def _min_conditional_entropy(corr):
    """Minimum conditional entropy over measurement directions for each
    density of the (B, 4, 4) stack ``corr`` of Pauli correlation matrices
    (measured qubit first, see `_bloch`); np.matmul takes every product per
    density, so no result depends on the rest of the stack.

    Each grid minimum is rotated onto the equator of a local chart, so that
    no stencil has to work across a chart pole, where phi steps shrink to
    nothing and a minimum a little off the pole is out of reach.  The zoom
    rounds run in those charts on the densities not yet finished (``index``
    holds their rows), so none depends on how long its stack-mates take; a
    centre moves only when its stencil improves on it, so the result never
    exceeds the grid minimum.
    """
    coeffs, rows = _coefficients(corr), np.arange(len(corr))
    pick, best = np.empty(len(corr), dtype=int), np.empty(len(corr))
    for start in range(0, len(corr), _GRID_CHUNK):
        chunk = slice(start, start + _GRID_CHUNK)
        values = _conditional_entropy(np.matmul(coeffs[chunk], _GRID_FEATURES))
        pick[chunk] = np.argmin(values, axis=1)
        best[chunk] = values[rows[: len(values)], pick[chunk]]
    # frame = [n, phi-hat, n x phi-hat = -theta-hat] carries the chart point
    # (pi/2, 0) onto n, with chart steps along theta-hat and phi-hat;
    # n = frame n' turns n.r into n'.(frame^T r) and T^T n into (frame^T T)^T n'
    n, phi = _GRID_FEATURES[1:4, pick].T, _GRID_PHI[pick % _PHI_POINTS]
    phi_hat = np.column_stack([-np.sin(phi), np.cos(phi), np.zeros(len(phi))])
    rotated = corr.copy()
    rotated[:, 1:] = np.stack([n, phi_hat, np.cross(n, phi_hat)], axis=1) @ corr[:, 1:]
    local, centre = _coefficients(rotated), np.tile([0.5 * math.pi, 0.0], (len(corr), 1))
    half, index, least = np.tile(_FIRST_HALF_WIDTHS, (len(corr), 1)), rows, best.copy()
    for _ in range(_MAX_ROUNDS):
        grid = centre[:, :, None] + half[:, :, None] * _STENCIL
        values = _conditional_entropy(np.matmul(local, _features(grid[:, 0], grid[:, 1])))
        pick, here = np.argmin(values, axis=1), rows[: len(index)]
        low = values[here, pick]
        better = low < least
        least = np.where(better, low, least)
        i, j = np.divmod(pick, _STENCIL.size)
        centre = np.where(better[:, None], np.column_stack([grid[here, 0, i], grid[here, 1, j]]), centre)
        half = half * np.where(better & _EDGE[pick], 1.0, 0.25)[:, None]
        best[index], going = least, np.max(half, axis=1) > _STOP_HALF_WIDTH
        if not going.all():
            index, least, centre, half, local = index[going], least[going], centre[going], half[going], local[going]
            if not index.size:
                break
    return best


_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch(data, measured):
    """Pauli correlation matrices R[mu, nu] = Tr[rho (sigma_mu x sigma_nu)]
    (sigma_0 = 1) of a (B, 4, 4) stack, with the ``measured`` qubit as the
    first factor: R[i, 0] = r_i and R[0, j] = s_j are the local Bloch
    vectors, R[i, j] = T_ij."""
    tensor = data.reshape(len(data), 2, 2, 2, 2)
    if measured == 1:
        tensor = tensor.transpose(0, 2, 1, 4, 3)
    return np.einsum("zajbl,mba,nlj->zmn", tensor, _PAULI, _PAULI).real


def discord_numeric(rho, measured=0):
    """Measurement-based quantum discord with a rank-1 projective measurement
    on the ``measured`` qubit (0 = left factor, 1 = right factor).

    ``rho`` is one two-qubit DensityMatrix, giving a float, or a sequence of
    them, giving a list of floats from one stacked minimization.  The
    conditional entropy is minimized on a 32x32 (theta, phi) grid, refined
    by 9x9 stencil rounds that keep their half-widths when the best point
    lies on the outer ring, shrink them 4x otherwise and stop at 1.5e-8 rad
    (about sqrt(eps)); the result is S_measured - S_joint + that minimum.
    """
    single = isinstance(rho, DensityMatrix)
    densities = [rho] if single else list(rho)
    if isinstance(measured, bool) or not isinstance(measured, (int, np.integer)) or measured not in (0, 1):
        raise ValueError(f"measured side must be 0 or 1, got {measured!r}")
    if any(tuple(density.dims) != (2, 2) for density in densities):
        raise ValueError("discord is computed for two-qubit densities")
    data = np.array([density.data for density in densities]).reshape(len(densities), 4, 4)
    s_measured = _entropies(np.linalg.eigvalsh(_partial_trace(data, (2, 2), (measured,))))
    base = s_measured - _entropies(np.linalg.eigvalsh(data))
    values = [float(v) for v in base + _min_conditional_entropy(_bloch(data, measured))]
    return values[0] if single else values


# Closed-form-vs-oracle tolerance per report field: entropy, concurrence and
# EoF values agree through eigenvalue arithmetic; the measurement-optimized
# discords carry the grid/refinement tolerance; the deficit inherits twice
# the discord bound.
FIELD_BOUNDS = {
    **dict.fromkeys(("S1", "S2", "S12", "S23", "C12_conc", "C23_conc", "C13_conc", "C1_23_conc"), 1e-8),
    **dict.fromkeys(("E12", "E23", "E13", "E1_23", "D1_23"), 1e-8),
    "D12": 1e-3,
    "D23": 1e-3,
    "Delta123": 2e-3,
}


@dataclass(frozen=True)
class VerificationRecord:
    """Signed deviations (closed form minus oracle) for one parameter point.

    Deviations are kept signed so any systematic bias between the two routes
    stays visible.
    """

    params: ModelParams
    deviations: dict
    bounds: dict

    @property
    def max_abs_deviation(self):
        return max(abs(v) for v in self.deviations.values())

    def worst(self, bound_override=None):
        """(field, signed deviation) furthest beyond its bound, relative to the
        bound, under the bounds `passes` applies (under one override bound,
        which may be 0, the largest deviation); a nan deviation comes first."""
        scale = self.bounds if bound_override is None else dict.fromkeys(self.bounds, 1.0)
        name = max(self.deviations, key=lambda f: (math.isnan(self.deviations[f]), abs(self.deviations[f]) / scale[f]))
        return name, self.deviations[name]

    def passes(self, bound_override=None):
        """True when every deviation sits within its bound (or within the
        single override bound when one is given)."""
        for name, dev in self.deviations.items():
            bound = self.bounds[name] if bound_override is None else bound_override
            # written so that a nan deviation fails
            if not abs(dev) <= bound:
                return False
        return True


def _eof(concurrence):
    c = min(max(float(concurrence), 0.0), 1.0)
    return binary_entropy(0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - c * c)))


def verify_points(points, nmax=None):
    """Compare every closed-form report field against its brute-force value
    at each parameter point, in order; each spectrum, concurrence and
    discord of all the points comes from one stacked call per shape."""
    points = list(points)
    count = len(points)
    rho123, bell = _cat_projectors(points, nmax)
    # rho12 and rho23, each measured on its left mode, then the Bell pair
    pairs = np.concatenate([_partial_trace(rho123, (2, 2, 2), keep) for keep in ((0, 1), (1, 2))])
    quads = np.concatenate([pairs, bell])
    lam = _check_densities(_partial_trace(pairs, (2, 2), (0,)))
    s1, s2, s12, s23 = np.split(np.concatenate([_entropies(lam), _entropies(_check_densities(quads)[: 2 * count])]), 4)
    c13, c23, c12 = np.split(_concurrences(quads), 3)
    d12, d23 = np.split(np.concatenate([s1 - s12, s2 - s23]) + _min_conditional_entropy(_bloch(pairs, 0)), 2)
    oracle = {
        "S1": s1, "S2": s2, "S12": s12, "S23": s23, "C12_conc": c12, "C23_conc": c23, "C13_conc": c13,
        "C1_23_conc": 2.0 * np.sqrt(np.prod(np.clip(lam[:count], 0.0, None), axis=1)), "E12": [_eof(c) for c in c12],
        "E23": [_eof(c) for c in c23], "E13": [_eof(c) for c in c13], "E1_23": s1,
        "D12": d12, "D23": d23, "D1_23": s1, "Delta123": s1 - 2.0 * d12,
    }
    records = []
    for i, params in enumerate(points):
        closed = report(params).as_dict()
        deviations = {name: closed[name] - float(values[i]) for name, values in oracle.items()}
        records.append(VerificationRecord(params, deviations, dict(FIELD_BOUNDS)))
    return records


def verify(params, nmax=None):
    """Compare every closed-form report field against its brute-force value."""
    return verify_points([params], nmax)[0]


def verification_grid(alpha2_start=0.1, alpha2_stop=4.0, alpha2_steps=40, m_values=(0, 1, 2, 3, 4), k_values=(0, 1)):
    """Default verification grid: 40 strengths x 5 orders x 2 parities."""
    if alpha2_steps < 1:
        raise ValueError("need at least one grid point")
    if alpha2_steps > 1 and alpha2_start == alpha2_stop:
        # every strength would repeat; a descending grid (start > stop) is fine
        raise ValueError(
            f"steps > 1 needs start != stop, got start={alpha2_start!r}, stop={alpha2_stop!r}, steps={alpha2_steps}"
        )
    strengths = [alpha2_start]
    if alpha2_steps > 1:
        strengths = [alpha2_start + i * (alpha2_stop - alpha2_start) / (alpha2_steps - 1) for i in range(alpha2_steps)]
    # a repeated order or parity would repeat its points
    orders, parities = sorted(set(m_values)), sorted(set(k_values))
    return [ModelParams(alpha2, m, k) for k in parities for m in orders for alpha2 in strengths]
