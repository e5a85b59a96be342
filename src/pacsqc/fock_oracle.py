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
`verify_points` builds the coherent amplitudes of all its points as the
rows of one (points, nmax + 1) array, adds photons to every row in one lift
by sqrt(n!/(n - m)!), checks each row against its own cutoff, and takes
every reduction, spectrum, concurrence and discord from a few stacked
calls, validating each stack of densities once; the one-object functions,
`coherent_vector` and `add_photons` included, run the same kernels on a
stack of one.  The discord minimizer works on the real Bloch form
(r, s, T) of each 4x4 density, where the conditional entropy depends on the
direction n only through n.r, n.(T s) and n^T T T^T n: a 32x32
(theta, phi) grid pass finds each basin, Newton steps with a closed-form
chart gradient and Hessian refine it, and 9x9 zoom-stencil rounds are the
safeguard for a density Newton cannot finish.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _check_cutoff(nmax):
    if nmax != int(nmax) or nmax < 0:
        raise ValueError(f"Fock cutoff nmax must be a non-negative integer, got {nmax!r}")


def _row_sums(values):
    # left-to-right sums along each row: trailing zeros and the other rows
    # of a stack leave every row's sum bit for bit as it is alone
    return np.cumsum(values, axis=1)[:, -1]


def _coherent_rows(alpha, cutoffs):
    """Coherent amplitudes e^{-alpha^2/2} alpha^n / sqrt(n!) of each real
    alpha[i] for n = 0..cutoffs[i], as the rows of a (len(alpha),
    max(cutoffs) + 1) array, zero past each row's cutoff; raises
    TruncationError where a row's edge weight |a_cutoff|^2 exceeds
    TAIL_BOUND."""
    size = int(cutoffs.max()) + 1
    factors = np.empty((len(alpha), size))
    factors[:, 0] = np.exp(-0.5 * alpha * alpha)
    factors[:, 1:] = alpha[:, None] / np.sqrt(np.arange(1.0, size))
    amp = np.cumprod(factors, axis=1)
    edge = amp[np.arange(len(alpha)), cutoffs] ** 2
    if (edge > TAIL_BOUND).any():
        i = np.argmax(edge > TAIL_BOUND)
        raise TruncationError(f"nmax={cutoffs[i]} insufficient for alpha={alpha[i]}: edge weight {edge[i]:.3e}")
    amp[np.arange(size) > cutoffs[:, None]] = 0.0
    return amp


def _add_photon_rows(amp, photons, cutoffs, normalize):
    """Rows of ``amp`` (real or complex, zero past ``cutoffs``) with
    photons[i] creation operators applied to row i, a+^m |n> =
    sqrt((n + m)! / n!) |n + m>, in one lift by sqrt(n! / (n - m)!),
    truncated at the row's cutoff; normalized to unit length with
    ``normalize``.  Raises TruncationError where the lift pushes more than
    TAIL_BOUND of a row's weight past its cutoff, or where a normalized
    row keeps more than TAIL_BOUND at its cutoff."""
    rows, (count, size), top = np.arange(len(amp)), amp.shape, int(photons.max())
    n = np.arange(size + top)
    # lift[m, n] = sqrt(n (n - 1) ... (n - m + 1)), and n reads amplitude
    # n - m from the rows padded by `top` zeros on both sides
    lift = np.ones((top + 1, n.size))
    lift[1:] = np.cumprod(np.sqrt(np.maximum(n - np.arange(top)[:, None], 0)), axis=0)
    padded = np.zeros((count, size + 2 * top), dtype=amp.dtype)
    padded[:, top : top + size] = amp
    lifted = lift[photons] * padded[rows[:, None], n + (top - photons)[:, None]]
    weight = (lifted * lifted.conj()).real
    kept = n <= cutoffs[:, None]
    mass = np.cumsum(weight, axis=1)[rows, cutoffs]
    if (_row_sums(np.where(kept, 0.0, weight)) > TAIL_BOUND * mass).any():
        raise TruncationError("no truncation headroom left for another photon addition")
    lifted = np.where(kept, lifted, 0.0)[:, :size]
    if normalize:
        # times the reciprocal, which a complex row takes as a real one does
        lifted *= (1.0 / np.sqrt(mass))[:, None]
        if (weight[rows, cutoffs] > TAIL_BOUND * mass).any():
            raise TruncationError("state no longer fits the truncation after photon addition")
    return lifted


def coherent_vector(alpha, nmax):
    """Coherent state e^{-|alpha|^2/2} sum_n alpha^n / sqrt(n!) |n> truncated
    at nmax; raises TruncationError when the tail amplitude is not negligible."""
    _check_cutoff(nmax)
    return FockVector(_coherent_rows(np.array([float(alpha)]), np.array([int(nmax)]))[0])


def add_photons(vec, m, normalize=True):
    """Apply the creation operator m times (a+ |n> = sqrt(n+1) |n+1>).

    Returns the normalized result by default; with ``normalize=False`` the
    raw vector comes back, whose squared norm for a normalized coherent
    input equals m! L_m(-|alpha|^2).
    """
    if m != int(m) or m < 0:
        raise ValueError(f"photon count must be a non-negative integer, got {m!r}")
    amp = vec.amplitudes[None]
    return FockVector(_add_photon_rows(amp, np.array([int(m)]), np.array([amp.shape[1] - 1]), normalize)[0])


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


def _require_cat_pairs(points):
    """Refuse any point at which the oracle cannot build the cat basis: the
    odd-parity degenerate regime (see states), and alpha2 below 2.5e-19,
    where |alpha> - |-alpha>, of norm about 2|alpha| < 1e-9, leaves the
    pair {|alpha>, |-alpha>} no odd vector to span a qubit with."""
    for params in points:
        _require_regular(params.alpha2, params.k)
        if 4.0 * params.alpha2 < 1e-18:
            raise ValueError(
                f"the oracle has no cat basis at alpha2={params.alpha2!r} (m={params.m}, k={params.k}): "
                "as alpha2 -> 0 the pair |alpha>, |-alpha> has no odd vector; use alpha2 >= 2.5e-19"
            )


def _mode_pairs(points, nmax):
    """Coordinates (c_plus, c_minus) of |alpha, m> and of |alpha> in the
    orthonormal (even, odd) basis of their pairs {|alpha, m>, |-alpha, m>}
    and {|alpha>, |-alpha>}, shape (P, 2, 2); the -alpha states have
    (c_plus, -c_minus).  All 2P coherent vectors, truncated at ``nmax`` or
    at each point's `default_nmax`, come from one stacked build, and each
    pair's overlap <alpha|-alpha> from summing its amplitudes."""
    alpha = (np.sqrt([params.alpha2 for params in points])[:, None] * [1.0, -1.0]).ravel()
    photons = np.repeat([params.m for params in points], 2)
    if nmax is None:
        cutoffs = np.repeat([default_nmax(params.alpha2, params.m) for params in points], 2)
    else:
        cutoffs = np.full(len(alpha), int(nmax))
    plain = _coherent_rows(alpha, cutoffs)
    vectors = np.concatenate([_add_photon_rows(plain, photons, cutoffs, True), plain])
    overlaps = _row_sums(vectors[0::2] * vectors[1::2]).reshape(2, len(points)).T
    return np.sqrt(np.maximum(0.0, 0.5 + 0.5 * overlaps[:, :, None] * [1.0, -1.0]))


def _superpositions(signs, modes):
    """Normalized weights of |alpha..> + sign |-alpha..> for a stack of
    points, over the first 2, 3, ... of its modes: ``modes`` of shape
    (B, M, 2) holds each mode's (c_plus, c_minus) ((c_plus, -c_minus) for
    -alpha), and the j-th (B, 2**(j + 2)) array of the result holds each
    point's weights in the basis of its first j + 2 modes' tensor product."""
    modes, signs = np.asarray(modes, dtype=float), np.reshape(signs, (-1, 1))
    forward, backward, weights = modes[:, 0], modes[:, 0] * [1.0, -1.0], []
    for coords in modes.transpose(1, 0, 2)[1:]:
        size = (len(modes), 2 * forward.shape[1])
        forward = (forward[:, :, None] * coords[:, None, :]).reshape(size)
        backward = (backward[:, :, None] * (coords * [1.0, -1.0])[:, None, :]).reshape(size)
        raw = forward + signs * backward
        norm = np.sqrt(np.sum(raw * raw, axis=1, keepdims=True))
        if not (norm >= 1e-9).all():
            raise ValueError("superposition vector vanishes at this parameter point")
        weights.append(raw / norm)
    return weights


def _cat_projectors(points, nmax):
    """Pure-state projectors of the GHZ-type state, shape (B, 8, 8), and of
    the quasi-Bell pair (excited mode 1 with a plain mode 2), (B, 4, 4), in
    each point's cat basis: the pair is the GHZ superposition's first two
    modes, so one pass over the modes gives both."""
    _require_cat_pairs(points)
    if nmax is not None:
        _check_cutoff(nmax)
    pairs, signs = _mode_pairs(points, nmax), [params.sign for params in points]
    bell, ghz = _superpositions(signs, pairs[:, [0, 1, 1]])
    return [v[:, :, None] * v[:, None, :] for v in (ghz, bell)]


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
# The frame [n, phi-hat, n x phi-hat = -theta-hat] of each grid direction
# n carries the chart point (pi/2, 0) onto n, with chart steps along
# theta-hat and phi-hat; n = frame^T n' turns n.r into n'.(frame r) and
# T^T n into (frame T)^T n'.
_GRID_FRAMES = np.zeros((_GRID_FEATURES.shape[1], 3, 3))
_GRID_FRAMES[:, 0] = _GRID_FEATURES[1:4].T
_GRID_FRAMES[:, 1, :2] = np.tile(np.column_stack([-np.sin(_GRID_PHI), np.cos(_GRID_PHI)]), (_THETA_POINTS // 2, 1))
_GRID_FRAMES[:, 2] = np.cross(_GRID_FRAMES[:, 0], _GRID_FRAMES[:, 1])
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


# Newton refinement, in the chart of each density whose point (pi/2, 0) is
# its grid minimum.  The direction n(theta, phi) and its chart derivatives
# (n, n_t, n_p, n_tt, n_tp, n_pp) are linear in the six products
# q = (sin t, cos t) x (cos p, sin p, 1); each triple below lists one
# derivative's components as signed 1-based indices into q (0 for zero).
_CHART = np.zeros((6, 18))
for _column, _term in enumerate(np.ravel([(1, 2, 6), (4, 5, -3), (-2, 1, 0), (-1, -2, -6), (-5, 4, 0), (-1, -2, 0)])):
    if _term:
        _CHART[abs(_term) - 1, _column] = math.copysign(1.0, _term)
# sin(x @ _TRIG_SELECT + _TRIG_SHIFT) = (sin t, cos t, cos p, sin p, 1)
_TRIG_SELECT = np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0, 0.0]])
_TRIG_SHIFT = np.array([0.0, 0.5 * math.pi, 0.5 * math.pi, 0.0, 0.5 * math.pi])
# With Q[i, j] = (T^T n_i).(T^T n_j) (n_0 = n, n_1 = n_t, ...), the chart
# derivatives of u = |s|^2 + |T^T n|^2 are u_t = 2 Q10, u_p = 2 Q20,
# u_tt = 2 (Q30 + Q11), u_tp = 2 (Q40 + Q12) and u_pp = 2 (Q50 + Q22);
# rows index Q row-major.
_QUADRATIC = np.zeros((18, 5))
_QUADRATIC[[3, 6, 9, 4, 12, 5, 15, 8], [0, 1, 2, 2, 3, 3, 4, 4]] = 2.0
# (n_i.r/2, 2 n_i.(T s), u_i) -> the derivatives of (p+, w+, p-, w-): the
# outcome weights p = (1 +- n.r)/2 and w = 4 v^2 = u +- 2 n.(T s), v the
# length of the conditional Bloch vector (s +- T^T n)/2
_MIX = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0], [0.0, 1.0, 0.0, 1.0]])
_OUTCOME_SIGNS = np.array([[1.0], [-1.0]])
# Newton's closed forms hold while the smaller conditional eigenvalue
# lam- = (p - v)/2 stays above _LAMBDA_FLOOR (x log x is not smooth at 0)
# and v above _RATIO_FLOOR p (v = sqrt(w)/2 is not smooth at 0: the chain
# rule divides by v, and the gradient's rounding grows like eps p/v, to
# ~1e-9 at the floor).  (p, v) @ _SPECTRUM = (p, lam+, lam-, v - _RATIO_FLOOR p).
#
# Stack independence: a 2-D product with a constant map, whose rows are the
# stack, takes a kernel that depends on the stack size, so those maps
# (_CHART, _TRIG_SELECT, _QUADRATIC, _BLOCK, _SYMMETRIC, _ADJUGATE) are
# exact or round once; every other product is batched, which numpy takes
# one density at a time.
_LAMBDA_FLOOR = 1e-30
_RATIO_FLOOR = 2.0 ** -20
_SPECTRUM = np.array([[1.0, 0.5, 0.5, -_RATIO_FLOOR], [0.0, 0.5, -0.5, 1.0]])
_FLOORS = np.array([_LAMBDA_FLOOR, 0.0])
_SAFE_SPECTRUM = np.array([1.0, 0.75, 0.25])
# (log2 lam, 1/(lam ln 2)) -> the derivatives (f_p, f_v, f_pp, f_pv, f_vv)
# of f = p log2 p - lam+ log2 lam+ - lam- log2 lam- in p and v (x log2 x
# has slope log2 x + 1/ln 2 and curvature 1/(x ln 2))
_PARTIALS = np.zeros((6, 5))
_PARTIALS[:3, :2] = [[1.0, 0.0], [-0.5, -0.5], [-0.5, 0.5]]
_PARTIALS[3:, 2:] = [[1.0, 0.0, 0.0], [-0.25, -0.25, -0.25], [-0.25, 0.25, -0.25]]
_INVERSE_LN2 = 1.0 / math.log(2.0)
_W_POWERS = np.array([0, 1, 0, 1, 2])
# (f_pp, f_pw, f_ww) of both outcomes -> the block-diagonal (B, 4, 4) outer
# Hessian in (p+, w+, p-, w-); rows of Hessian entries (t t, t p, p t, p p)
# from the second-derivative terms; the adjugate of a flattened 2x2 matrix
_BLOCK = np.zeros((6, 16))
_BLOCK[[0, 1, 1, 2, 3, 4, 4, 5], [0, 1, 4, 5, 10, 11, 14, 15]] = 1.0
_SYMMETRIC = np.zeros((5, 4))
_SYMMETRIC[[2, 3, 3, 4], [0, 1, 2, 3]] = 1.0
_ADJUGATE = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
# A density stops once the predicted decrease of a Newton step is below
# eps (in bits, the conditional entropy being at most 1): the step could no
# longer move the value.  A step that does not lower the value is a stop
# too when it predicted at most _STALL, rounding's reach, and otherwise a
# fall back to the stencil; so is a density still moving after _NEWTON_CAP
# iterations (verify-grid densities take 2-8, seeded random ones 0-6).
_EPS = 2.0 ** -52
_STALL = 16.0 * _EPS
_NEWTON_CAP = 30


def _newton_terms(frame, s, x):
    """Newton data at the chart points x = (theta, phi) (B, 2), for the
    chart-frame Bloch data ``frame`` = [r/2, 2 T s, T] (B, 3, 5) and ``s``
    (B, 3): the conditional entropy, its chart gradient, the Newton step
    -H^-1 g with its predicted decrease g^T H^-1 g / 2, and whether the step
    is usable: the closed forms hold (see _LAMBDA_FLOOR) and the Hessian H
    is positive definite.  Where it is not, step and decrease are finite
    but meaningless; where the closed forms fail, the gradient is nan (the
    value holds everywhere, with 0 log 0 = 0).

    The entropy depends on n only through n.r, n.(T s) and n^T T T^T n,
    so one product of the chart derivatives of n with the frame gives the
    chart derivatives of the outcome weights p and of w = 4 v^2, and the
    chain rule through x log2 x does the rest.
    """
    count = len(x)
    trig = np.sin(x @ _TRIG_SELECT + _TRIG_SHIFT)
    n = ((trig[:, :2, None] * trig[:, None, 2:]).reshape(count, 6) @ _CHART).reshape(count, 6, 3)
    linear = n @ frame
    turned = linear[:, :, 2:]
    quadratic = (turned @ turned[:, :3].transpose(0, 2, 1)).reshape(count, 18) @ _QUADRATIC
    # rows d_t, d_p, d_tt, d_tp, d_pp; columns p+, w+, p-, w-
    terms = np.concatenate([linear[:, 1:, :2], quadratic[:, :, None]], axis=2) @ _MIX
    # v from the conditional Bloch vectors themselves, whose length keeps
    # the digits that u +- 2 n.(T s) cancels away
    bloch = s[:, None, :] + _OUTCOME_SIGNS * turned[:, :1]
    pv = np.empty((count, 2, 2))
    pv[:, :, 0] = 0.5 + _OUTCOME_SIGNS[:, 0] * linear[:, 0, :1]
    pv[:, :, 1] = 0.5 * np.sqrt((bloch * bloch).sum(axis=2))
    spectrum = pv @ _SPECTRUM
    entropy = _xlog2x(spectrum[:, :, :3])
    value = (entropy[:, :, 0] - entropy[:, :, 1] - entropy[:, :, 2]).sum(axis=1)
    valid = (spectrum[:, :, 2:] > _FLOORS).all(axis=(1, 2))
    lam = np.where(valid[:, None, None], spectrum[:, :, :3], _SAFE_SPECTRUM)
    logs = np.log2(lam)
    # per outcome (f_p, f_v, f_pp, f_pv, f_vv), then in w = 4 v^2 with
    # e = 1/(8 v): f_w = f_v e, f_pw = f_pv e, f_ww = (f_vv - 8 f_v e) e^2
    partial = np.concatenate([logs, _INVERSE_LN2 / lam], axis=2) @ _PARTIALS
    e = 0.125 / (lam[:, :, 1:2] - lam[:, :, 2:])
    partial *= e ** _W_POWERS
    partial[:, :, 4:] -= 8.0 * partial[:, :, 1:2] * e * e
    # gradient and Hessian by the chain rule through (p+, w+, p-, w-)
    linear_part = (terms.reshape(count, 5, 4) @ partial[:, :, :2].reshape(count, 4, 1))[:, :, 0]
    slopes = terms[:, :2]
    block = (partial[:, :, 2:].reshape(count, 6) @ _BLOCK).reshape(count, 4, 4)
    hessian = slopes @ block @ slopes.transpose(0, 2, 1) + (linear_part @ _SYMMETRIC).reshape(count, 2, 2)
    gradient = linear_part[:, :2]
    det = hessian[:, 0, 0] * hessian[:, 1, 1] - hessian[:, 0, 1] * hessian[:, 1, 0]
    usable = valid & (hessian[:, 0, 0] > 0.0) & (det > 0.0)
    step = ((hessian.reshape(count, 4) @ _ADJUGATE).reshape(count, 2, 2) @ gradient[:, :, None])[:, :, 0]
    step /= -np.where(usable, det, 1.0)[:, None]
    decrease = -0.5 * (gradient * step).sum(axis=1)
    return value, np.where(valid[:, None], gradient, np.nan), step, decrease, usable


# Stencil safeguard, for the densities Newton leaves: each round evaluates a
# 9x9 stencil spanning +- the density's (theta, phi) half-widths, which
# start at one grid step.  A round whose best point improves on the centre
# from the outer ring `_EDGE` keeps them, as the minimum may lie beyond the
# ring; every other round shrinks them 4x.  A density stops once both are
# <= 1.5e-8 rad (about sqrt(eps): a smooth minimum's value error, about
# H h^2, is then below eps) or after _MAX_ROUNDS rounds (a narrow curved
# valley can take ~300).
_STENCIL = np.arange(-4, 5) / 4.0
_EDGE = ((np.abs(_STENCIL[:, None]) == 1.0) | (np.abs(_STENCIL) == 1.0)).ravel()
_FIRST_HALF_WIDTHS = np.array([math.pi / (_THETA_POINTS - 1), 2.0 * math.pi / _PHI_POINTS])
_STOP_HALF_WIDTH = 1.5e-8
_MAX_ROUNDS = 500


def _stencil_rounds(local, centre, least):
    """Zoom the stencil from the chart points ``centre`` (B, 2) with values
    ``least`` for the (B, 3, 10) feature maps ``local``; returns the new
    values and centres, the rounds taken and whether a density stopped on
    _MAX_ROUNDS.  A centre moves only when its stencil improves on it."""
    rows, live = np.arange(len(local)), np.ones(len(local), dtype=bool)
    half, rounds = np.tile(_FIRST_HALF_WIDTHS, (len(local), 1)), np.zeros(len(local), dtype=int)
    for _ in range(_MAX_ROUNDS):
        grid = centre[:, :, None] + half[:, :, None] * _STENCIL
        values = _conditional_entropy(np.matmul(local, _features(grid[:, 0], grid[:, 1])))
        pick = np.argmin(values, axis=1)
        low = values[rows, pick]
        better = live & (low < least)
        least = np.where(better, low, least)
        i, j = np.divmod(pick, _STENCIL.size)
        centre = np.where(better[:, None], np.column_stack([grid[rows, 0, i], grid[rows, 1, j]]), centre)
        half = half * np.where(better & _EDGE[pick], 1.0, np.where(live, 0.25, 1.0))[:, None]
        rounds += live
        live &= np.max(half, axis=1) > _STOP_HALF_WIDTH
        if not live.any():
            break
    return least, centre, rounds, live


# How a density's refinement ended (`_Minima.flag`)
_NEWTON, _STENCIL_FALLBACK, _CAPPED = 0, 1, 2


class _Minima(NamedTuple):
    """Per-density results of `_min_conditional_entropy`: the minimum, the
    Newton iterations plus stencil rounds taken, the tangent-gradient norm
    at the landing point (nan where the closed forms do not hold there) and
    how the refinement ended: _NEWTON, _STENCIL_FALLBACK (fell back to the
    stencil safeguard) or _CAPPED (the stencil stopped on _MAX_ROUNDS)."""

    value: np.ndarray
    iterations: np.ndarray
    gradient_norm: np.ndarray
    flag: np.ndarray


def _min_conditional_entropy(corr):
    """Minimum conditional entropy over measurement directions for each
    density of the (B, 4, 4) stack ``corr`` of Pauli correlation matrices
    (measured qubit first, see `_bloch`), as `_Minima`.  Every product is
    taken per density and every update is masked per density, so no result
    depends on the rest of the stack.

    A 32x32 grid pass finds each density's basin, and its minimum is
    rotated onto the equator of a local chart, away from the chart poles,
    where phi steps shrink to nothing.  Newton steps in that chart follow
    (`_newton_terms`); a density whose Hessian is not positive definite,
    whose step does not lower the value, whose closed forms fail or which
    is still moving after _NEWTON_CAP iterations falls back to stencil
    rounds from its best point.  Only steps that lower the value move a
    density, so no result exceeds the grid minimum.
    """
    coeffs, rows = _coefficients(corr), np.arange(len(corr))
    pick, best = np.empty(len(corr), dtype=int), np.empty(len(corr))
    for start in range(0, len(corr), _GRID_CHUNK):
        chunk = slice(start, start + _GRID_CHUNK)
        values = _conditional_entropy(np.matmul(coeffs[chunk], _GRID_FEATURES))
        pick[chunk] = np.argmin(values, axis=1)
        best[chunk] = values[rows[: len(values)], pick[chunk]]
    rotated = corr.copy()
    rotated[:, 1:] = _GRID_FRAMES[pick] @ corr[:, 1:]
    r, s, tensor = rotated[:, 1:, :1], rotated[:, :1, 1:], rotated[:, 1:, 1:]
    frame = np.concatenate([0.5 * r, 2.0 * (tensor @ s.transpose(0, 2, 1)), tensor], axis=2)
    s = s[:, 0]

    point = np.tile([0.5 * math.pi, 0.0], (len(corr), 1))
    value, gradient, step, decrease, usable = _newton_terms(frame, s, point)
    live, fallback = np.ones(len(corr), dtype=bool), np.zeros(len(corr), dtype=bool)
    iterations = np.zeros(len(corr), dtype=int)
    for _ in range(_NEWTON_CAP):
        fallback |= live & ~usable
        live &= usable & (decrease > _EPS)
        if not live.any():
            break
        trial = point + np.where(live[:, None], step, 0.0)
        t_value, t_gradient, t_step, t_decrease, t_usable = _newton_terms(frame, s, trial)
        iterations += live
        lower = live & (t_value < value)
        fallback |= live & ~lower & (decrease > _STALL)
        live = lower
        moved = lower[:, None]
        point, gradient = np.where(moved, trial, point), np.where(moved, t_gradient, gradient)
        step, value = np.where(moved, t_step, step), np.where(lower, t_value, value)
        decrease, usable = np.where(lower, t_decrease, decrease), np.where(lower, t_usable, usable)
    else:
        fallback |= live
    flag = np.where(fallback, _STENCIL_FALLBACK, _NEWTON)
    if fallback.any():
        index = np.flatnonzero(fallback)
        least, centre, rounds, capped = _stencil_rounds(_coefficients(rotated[index]), point[index], value[index])
        value[index], point[index] = least, centre
        iterations[index] += rounds
        flag[index[capped]] = _CAPPED
        gradient[index] = _newton_terms(frame[index], s[index], centre)[1]
    norm = np.hypot(gradient[:, 0], gradient[:, 1] / np.sin(point[:, 0]))
    return _Minima(np.minimum(value, best), iterations, norm, flag)


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
    conditional entropy is minimized on a 32x32 (theta, phi) grid, then by
    Newton steps from the grid minimum until a step could no longer move
    the value (about eps); a density whose Hessian is not positive definite,
    whose step does not lower the value or whose conditional state has an
    eigenvalue near 0 falls back to 9x9 stencil rounds that stop at 1.5e-8
    rad.  The result is S_measured - S_joint + that minimum, never above the
    grid's.
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
    values = [float(v) for v in base + _min_conditional_entropy(_bloch(data, measured)).value]
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
    d12, d23 = np.split(np.concatenate([s1 - s12, s2 - s23]) + _min_conditional_entropy(_bloch(pairs, 0)).value, 2)
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
