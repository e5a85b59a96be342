"""Brute-force verification layer in truncated Fock space.

Every state is rebuilt from explicit photon-number amplitudes: overlaps come
from amplitude summation, reduced densities from partial traces, spectra from
LAPACK (numpy.linalg.eigvalsh/eigh), concurrence from each density's factor,
and discord from direct minimization of the post-measurement conditional
entropy over projective qubit measurements.  None of the closed forms from
`states` or `correlations` enter these code paths, and they share no
numerical primitive: every entropy here, the EoFs' binary entropies
included, takes numpy's own log2 (`_xlog2x`).

Per mode, the pair {|alpha,m>, |-alpha,m>} is orthonormalized from its
Fock-space overlaps into the even/odd cat basis of the closed forms, so
reduced densities can be compared entrywise.  The kernels work on stacks:
`verify_points` builds the coherent amplitudes of all its points as the
rows of one (points, nmax + 1) array, adds photons to every row in one lift
by sqrt(n!/(n - m)!), checks each row against its own cutoff, traces the
two-mode reductions out of each GHZ weight vector by a matrix product, and
takes every spectrum, concurrence and discord from a few stacked calls,
validating each stack of densities once; the one-object functions,
`coherent_vector` and `add_photons` included, run the same kernels on a
stack of one.  The discord minimizer works on the real Bloch form
(r, s, T) of each 4x4 density, where the conditional entropy depends on the
direction n only through n.r and the conditional Bloch vectors s +- T^T n:
a pass over 121 grid directions, theta step pi/16 and phi step pi/8,
with x-hat, y-hat and z-hat among them, picks each start, and Riemannian
Newton on the sphere refines it, with one evaluator for the value, its
gradient and Hessian, and one safeguard (see `discord_numeric`).
"""

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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

# the signs of the +alpha and -alpha states, and of a measurement's two outcomes
_PLUS_MINUS = np.array([1.0, -1.0])


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


def _adjoints(data):
    """Conjugate transposes of a (B, D, D) stack; a real stack's transposes."""
    adjoint = np.swapaxes(data, -1, -2)
    return adjoint.conj() if np.iscomplexobj(data) else adjoint


def _check_densities(data):
    """Validate a (B, D, D) stack of density matrices (unit trace and
    Hermiticity within 1e-10, no eigenvalue below -1e-9) and return their
    ascending spectra."""
    trace = np.trace(data, axis1=-2, axis2=-1)
    # max() carries a nan through, and a nan fails each comparison
    off = np.abs(trace - 1.0)
    if not off.max() <= 1e-10:
        raise ValueError(f"trace must be 1, got {complex(trace[~(off <= 1e-10)][0])!r}")
    if not np.abs(data - _adjoints(data)).max() <= 1e-10:
        raise ValueError("matrix is not Hermitian within tolerance")
    spectra = np.linalg.eigvalsh(data)
    if not spectra[:, 0].min() >= -1e-9:
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
    """x log2 x of each element, 0 at and below 1e-300 (nan stays nan)."""
    positive = values > 1e-300
    if positive.all():
        # numpy's log2 rounds each element as the masked call below does,
        # which takes about twice as long on the grid pass's arrays
        return values * np.log2(values)
    return values * np.log2(values, out=np.zeros_like(values), where=positive)


def _entropies(spectra):
    """- sum_i lambda_i log2 lambda_i along the last axis (0 log 0 = 0)."""
    return -np.sum(_xlog2x(spectra), axis=-1)


def von_neumann_entropy(rho):
    """- sum_i lambda_i log2 lambda_i over the spectrum (0 log 0 = 0); a raw
    array is checked as DensityMatrix checks its data."""
    data = rho.data if isinstance(rho, DensityMatrix) else DensityMatrix(rho, np.shape(rho)[:1]).data
    return float(_entropies(np.linalg.eigvalsh(data)))


_SY_SY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


def _concurrences(factors):
    """Wootters concurrences of the densities F F+ of a (B, 4, r) stack of
    factors F: max(0, s1 - s2 - ...) over the descending singular values of
    tau = F+ (sy x sy) F*, the |eigenvalues| where tau is real (Wootters,
    PRL 80, 2245 (1998)); tau is bilinear in F, so no square root of a small
    eigenvalue enters."""
    if np.iscomplexobj(factors):
        values = np.linalg.svd(_adjoints(factors) @ _SY_SY @ factors.conj(), compute_uv=False)
    else:
        values = np.sort(np.abs(np.linalg.eigvalsh(np.swapaxes(factors, 1, 2) @ _SY_SY @ factors)))[:, ::-1]
    return np.maximum(0.0, values[:, 0] - values[:, 1:].sum(axis=1))


def wootters_concurrence(rho):
    """max(0, l1 - l2 - l3 - l4) with l_i the descending square roots of the
    spectrum of rho (sy x sy) rho* (sy x sy), from the factor V sqrt(lambda)
    of rho = V lambda V+ (see `_concurrences`); a raw array is checked as
    DensityMatrix checks its data."""
    data = rho.data if isinstance(rho, DensityMatrix) else DensityMatrix(rho, np.shape(rho)[:1]).data
    if data.shape != (4, 4):
        raise ValueError("concurrence is defined for 4x4 two-qubit densities")
    lam, vec = np.linalg.eigh(data)
    # eigensolver noise below zero is clipped to 0.0, -0.0 included
    return float(_concurrences((vec * np.sqrt(np.maximum(lam, 0.0)))[None])[0])


def _require_cat_pairs(points):
    """Refuse any point at which the oracle cannot build the cat basis: the
    odd-parity degenerate regime (see states), and alpha2 below 2.5e-19,
    where |alpha> - |-alpha>, of norm about 2|alpha| < 1e-9, leaves the
    pair {|alpha>, |-alpha>} no odd vector to span a qubit with."""
    alpha2 = np.array([params.alpha2 for params in points])
    _require_regular(alpha2, np.array([params.k for params in points]))
    low = 4.0 * alpha2 < 1e-18
    if low.any():
        params = points[np.argmax(low)]
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
    alpha = (np.sqrt([params.alpha2 for params in points])[:, None] * _PLUS_MINUS).ravel()
    photons = np.repeat([params.m for params in points], 2)
    if nmax is None:
        cutoffs = np.repeat([default_nmax(params.alpha2, params.m) for params in points], 2)
    else:
        cutoffs = np.full(len(alpha), int(nmax))
    plain = _coherent_rows(alpha, cutoffs)
    vectors = np.concatenate([_add_photon_rows(plain, photons, cutoffs, True), plain])
    overlaps = _row_sums(vectors[0::2] * vectors[1::2]).reshape(2, len(points)).T
    return np.sqrt(np.maximum(0.0, 0.5 + 0.5 * overlaps[:, :, None] * _PLUS_MINUS))


# (-1)^(number of odd modes) of each cat-basis index, modes as binary digits
_INDEX_PARITIES = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])


def _superpositions(signs, modes):
    """Normalized weights of |alpha..> + sign |-alpha..> for a stack of
    points, over the first 2 and 3 of its modes: ``modes`` of shape
    (B, M, 2) holds each mode's (c_plus, c_minus) ((c_plus, -c_minus) for
    -alpha), and the j-th (B, 2**(j + 2)) array of the result holds each
    point's weights in the basis of its first j + 2 modes' tensor product.

    The -alpha product is the +alpha one with the sign (-1)^(odd modes) of
    each index, so the sum is the +alpha product times 1 + sign (-1)^(odd
    modes), which is 2 or 0; the coordinates being non-negative, that gives
    every weight bit for bit as the sum of the two products does."""
    modes = np.asarray(modes, dtype=float)
    factors = 1.0 + np.reshape(signs, (-1, 1)) * _INDEX_PARITIES
    product, weights = modes[:, 0], []
    for coords in modes.transpose(1, 0, 2)[1:]:
        size = 2 * product.shape[1]
        product = (product[:, :, None] * coords[:, None, :]).reshape(len(modes), size)
        raw = product * factors[:, :size]
        norm = np.sqrt(np.sum(raw * raw, axis=1, keepdims=True))
        if not norm.min() >= 1e-9:
            raise ValueError("superposition vector vanishes at this parameter point")
        weights.append(raw / norm)
    return weights


def _cat_vectors(points, nmax):
    """Weights of the GHZ-type state, shape (P, 8), and of the quasi-Bell
    pair (excited mode 1 with a plain mode 2), (P, 4), in each point's cat
    basis: the pair is the GHZ superposition's first two modes, so one pass
    over the modes gives both.  Every check on whether the oracle can build
    the points (cat basis, parity, truncation) runs here."""
    _require_cat_pairs(points)
    if nmax is not None:
        _check_cutoff(nmax)
    bell, ghz = _superpositions([params.sign for params in points], _mode_pairs(points, nmax)[:, [0, 1, 1]])
    return ghz, bell


def _cat_projectors(points, nmax):
    """Pure-state projectors of the `_cat_vectors` states, (B, 8, 8) and
    (B, 4, 4)."""
    return [v[:, :, None] * v[:, None, :] for v in _cat_vectors(points, nmax)]


def build_tripartite(params, nmax=None):
    """Pure-state projector of the GHZ-type superposition on the 2x2x2
    subspace spanned by the per-mode cat pairs."""
    return DensityMatrix(_cat_projectors([params], nmax)[0][0], (2, 2, 2))


def build_bell_pair(params, nmax=None):
    """Quasi-Bell pure pair (excited mode 1 with a plain mode 2) as a 4x4
    projector in the cat-basis subspace."""
    return DensityMatrix(_cat_projectors([params], nmax)[1][0], (2, 2))


def _basin_grid():
    """The terms (1, n_i, n_i^2, 2 n_i n_j) through which the conditional
    entropy depends on the direction n, for each direction of the basin
    grid, theta = i pi/16 (i = 0..8) by phi = j pi/8 (j = 0..15): (10, 121).

    The directions n and -n are one measurement with its two outcomes
    swapped, so each appears once: the pole, the rows 0 < theta < pi/2
    whole and the equator for phi < pi; it only picks the basin `_refine`
    starts in.  Every sine and cosine is read from one table of
    sin(k pi/32), so x-hat, y-hat and z-hat are grid points with exact zeros
    and ones; x-hat is the optimal measurement of the X-shaped reductions
    (see `states`) at every verify-grid density, one of the candidate optima
    of two-qubit X states (Ali, Rau & Alber, PRA 81, 042105 (2010)).
    """
    quarter = np.sin(np.arange(17) * math.pi / 32.0)
    sines = np.concatenate([quarter, quarter[15:0:-1], -quarter, -quarter[15:0:-1]])  # k = 0..63
    theta = np.concatenate([[0], np.repeat(np.arange(2, 16, 2), 16), np.full(8, 16)])
    phi = np.concatenate([[0], np.tile(np.arange(0, 64, 4), 7), np.arange(0, 32, 4)])
    sin_t, z, sin_p, cos_p = sines[theta], sines[theta + 16], sines[phi], sines[(phi + 16) % 64]
    x, y = sin_t * cos_p, sin_t * sin_p
    return np.stack([np.ones_like(x), x, y, z, x * x, y * y, z * z, 2.0 * x * y, 2.0 * x * z, 2.0 * y * z])


_GRID_FEATURES = _basin_grid()
_GRID_FEATURES.flags.writeable = False
# Densities per grid-pass chunk (results do not depend on it): the largest
# temporaries, the (64, 3, 121) product and the two outcomes, hold 186 KB and
# 124 KB, and one chunk holds the 48 densities of a 24-point verify request.
# Whole-minimizer medians (one core, 2-vCPU x86 VM, unmasked log2 in
# `_xlog2x`): chunks of 16, 32, 64 and 128 took 8.8, 6.7, 6.4 and 9.9 us per
# density on the verify grid's 800 densities, and 18.9, 17.2, 15.2 and 14.7
# on the 48 of a 24-point request.
_GRID_CHUNK = 64


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
    eigenvalues (p +- |v|)/2.  The expansion loses digits where v is short,
    so this form only ranks the grid directions.
    """
    signs = _PLUS_MINUS[:, None, None]
    p = 0.5 + 0.5 * signs * abu[:, 0]
    v = 0.5 * np.sqrt(np.maximum(abu[:, 2] + 2.0 * signs * abu[:, 1], 0.0))
    # p S(rho/p) = p log2 p - sum_i lam_i log2 lam_i  (lam unnormalized)
    total = _xlog2x(p) - _xlog2x(0.5 * (p + v)) - _xlog2x(0.5 * (p - v))
    return total[0] + total[1]


# Riemannian Newton on the unit sphere of measurement directions (Absil,
# Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008,
# ch. 6).  Its closed forms hold while lam- stays above _LAMBDA_FLOOR
# (x log x is not smooth at 0: a pure conditional state) and v above
# _RATIO_FLOOR p (v is not smooth at b = 0: a maximally mixed one; the chain
# rule divides by v, and the gradient's rounding grows like eps p/v, to
# ~1e-9 at the floor).
_LAMBDA_FLOOR = 1e-30
_RATIO_FLOOR = 2.0 ** -20
# A density stops once the predicted decrease of its next trial step is
# below eps (in bits, the conditional entropy being at most 1), whatever the
# sign of H: the step could no longer move the value.  _NEWTON_CAP bounds the
# trials (verify-grid densities take 0, seeded random ones up to 8).
_EPS = 2.0 ** -52
_NEWTON_CAP = 50


def _newton_steps(gradient, norm, hessian):
    """Tangent steps -(H + mu I)^-1 g (B, 2) for Riemannian gradients g of
    norms |g| and Hessians H in a tangent basis, with their predicted
    decreases g^T (H + mu I)^-1 g / 2.  mu = 0 where H is positive definite,
    and |g| - 2 lambda_min(H) elsewhere: H + mu I is then positive definite
    with eigenvalues of at least |g|, so the step stays within unit length,
    and a gradient at rounding's level predicts a decrease of its square, not
    of itself."""
    g0, g1 = gradient[:, 0], gradient[:, 1]
    h00, h11 = hessian[:, 0, 0], hessian[:, 1, 1]
    h01 = 0.5 * (hessian[:, 0, 1] + hessian[:, 1, 0])
    least = 0.5 * (h00 + h11) - np.hypot(0.5 * (h00 - h11), h01)
    # the shifted diagonal (h00 + mu, h11 + mu)
    diagonal = np.diagonal(hessian, axis1=1, axis2=2) + np.where(least > 0.0, 0.0, norm - 2.0 * least)[:, None]
    det = diagonal[:, 0] * diagonal[:, 1] - h01 * h01
    # H + mu I is singular only at g = 0 or by rounding: no step there
    det = np.where(det > 0.0, det, np.inf)
    # (h01 g1 - h11 g0, h01 g0 - h00 g1) / det
    step = h01[:, None] * gradient[:, ::-1] - diagonal[:, ::-1] * gradient
    step /= det[:, None]
    return step, -0.5 * (g0 * step[:, 0] + g1 * step[:, 1])


_HALF_SIGNS = 0.5 * _PLUS_MINUS
# where the closed forms fail, the derivatives are taken at this harmless
# (p, lam+, lam-) and discarded
_HARMLESS = np.array([1.0, 0.75, 0.25])
_LN2 = math.log(2.0)
_EYE2 = np.eye(2)


def _newton_terms(corr, n):
    """Newton data at the unit directions n (B, 3) for the (B, 4, 4) stack
    ``corr`` of Pauli correlation matrices (see `_bloch`): the conditional
    entropy, the Riemannian gradient norm, the Riemannian Hessian (B, 2, 2)
    in a tangent basis (None where every gradient is zero), the step of
    `_newton_steps` as a tangent vector (B, 3) with its predicted decrease,
    and whether the closed forms hold (see _LAMBDA_FLOOR).  The value holds
    everywhere (0 log 0 = 0); the rest is finite, and meaningless where the
    forms fail.

    With the weights p and conditional Bloch vectors b = s +- T^T n of
    `_conditional_entropy`, v = |b|/2 is read from b itself, which keeps the
    digits that the expansion cancels away.  Each outcome adds
    f(p, v) = p log2 p - lam+ log2 lam+ - lam- log2 lam-, lam+- = (p +- v)/2,
    whose Euclidean derivatives in n follow from dp = +- r/2,
    dv = +- T b/(4 v) and d2v = (T T^T - 4 dv dv^T)/(4 v).  The Riemannian
    gradient is P grad f and the Riemannian Hessian
    P (hess f - (n.grad f) I) P, with P = I - n n^T.

    Arrays are filled in place through ``out=`` where that saves a stack, so
    every element rounds as in the plain expressions the comments give.
    """
    r, s, tensor = corr[:, 1:, 0], corr[:, 0, 1:], corr[:, 1:, 1:]
    bloch = s[:, None, :] + _PLUS_MINUS[:, None] * (n[:, None, :] @ tensor)
    # lam = (p, (p + v)/2, (p - v)/2) per outcome
    lam = np.empty(bloch.shape[:2] + (3,))
    p = np.add(0.5, _HALF_SIGNS * (n * r).sum(axis=1)[:, None], out=lam[:, :, 0])
    v = 0.5 * np.sqrt((bloch * bloch).sum(axis=2))
    np.add(p, v, out=lam[:, :, 1])
    np.subtract(p, v, out=lam[:, :, 2])
    lam[:, :, 1:] *= 0.5
    entropy = _xlog2x(lam)
    value = (entropy[:, :, 0] - entropy[:, :, 1] - entropy[:, :, 2]).sum(axis=1)
    valid = ((lam[:, :, 2] > _LAMBDA_FLOOR) & (v > _RATIO_FLOOR * p)).all(axis=1)
    if not valid.all():
        lam = np.where(valid[:, None, None], lam, _HARMLESS)
    v = lam[:, :, 1] - lam[:, :, 2]
    # x log2 x has slope log2 x + 1/ln 2 and curvature 1/(x ln 2), so f has
    # f_p = log2 p - log2(lam+ lam-)/2, f_v = log2(lam-/lam+)/2 and
    # f_pp = c_p - (c+ + c-)/4, f_pv = (c- - c+)/4, f_vv = -(c+ + c-)/4
    logs = np.log2(lam)
    f_p = logs[:, :, 0] - 0.5 * (logs[:, :, 1] + logs[:, :, 2])
    f_v = 0.5 * (logs[:, :, 2] - logs[:, :, 1])
    # slopes[:, :, 0] = dp = +- r/2 and slopes[:, :, 1] = dv = +- T b/(4 v)
    slopes = np.empty(bloch.shape[:2] + (2, 3))
    dp = np.multiply(_PLUS_MINUS[:, None], (0.5 * r)[:, None, :], out=slopes[:, :, 0])
    four_v = 4.0 * v
    dv = np.divide(_PLUS_MINUS[:, None] * (bloch @ np.swapaxes(tensor, 1, 2)), four_v[:, :, None], out=slopes[:, :, 1])
    gradient = (f_p[:, :, None] * dp + f_v[:, :, None] * dv).sum(axis=1)
    # tangent bases by the branch-free construction of Duff et al.,
    # J. Comput. Graph. Tech. 6(1), 2017, which holds at every unit n:
    # rows (1 + sign x x a, sign b, -sign x) and (b, sign + y y a, -y)
    x, y, z = n[:, 0], n[:, 1], n[:, 2]
    sign = np.where(z < 0.0, -1.0, 1.0)
    a = -1.0 / (sign + z)
    bases = np.empty((len(n), 2, 3))
    b = np.multiply(x * y, a, out=bases[:, 1, 0])
    np.add(1.0, sign * x * x * a, out=bases[:, 0, 0])
    np.multiply(sign, b, out=bases[:, 0, 1])
    np.multiply(-sign, x, out=bases[:, 0, 2])
    np.add(sign, y * y * a, out=bases[:, 1, 1])
    np.negative(y, out=bases[:, 1, 2])
    tangent_gradient = (bases @ gradient[:, :, None])[:, :, 0]
    norm = np.hypot(tangent_gradient[:, 0], tangent_gradient[:, 1])
    if not norm.any():
        # the step -(H + mu I)^-1 g vanishes with g, whatever H is: no
        # density can move (the X-shaped reductions at x-hat), so the
        # Hessian is left out
        return value, norm, None, np.zeros_like(n), np.zeros(len(n)), valid
    curvature = 1.0 / (_LN2 * lam)
    outer = np.empty(v.shape + (2, 2))
    both = curvature[:, :, 1] + curvature[:, :, 2]
    np.subtract(curvature[:, :, 0], 0.25 * both, out=outer[..., 0, 0])
    np.multiply(0.25, curvature[:, :, 2] - curvature[:, :, 1], out=outer[..., 0, 1])
    outer[..., 1, 0] = outer[..., 0, 1]
    # the d2v term's -4 dv dv^T part joins the (v, v) entry
    np.subtract(-0.25 * both, f_v / v, out=outer[..., 1, 1])
    hessian = (np.swapaxes(slopes, 2, 3) @ outer @ slopes).sum(axis=1)
    hessian += (f_v / four_v).sum(axis=1)[:, None, None] * (tensor @ np.swapaxes(tensor, 1, 2))
    tangent_hessian = bases @ hessian @ np.swapaxes(bases, 1, 2)
    tangent_hessian -= (n * gradient).sum(axis=1)[:, None, None] * _EYE2
    step, decrease = _newton_steps(tangent_gradient, norm, tangent_hessian)
    return value, norm, tangent_hessian, (step[:, None, :] @ bases)[:, 0], decrease, valid


_CONVERGED, _AT_FLOOR, _CAPPED = 0, 1, 2


class _Minima(NamedTuple):
    """Per-density results of `_refine`: the minimum, which is
    `_newton_terms`' value at the landing direction, the trial steps taken,
    the Riemannian gradient norm there (nan where the closed forms do not
    hold), how the refinement ended (_CONVERGED: the predicted decrease fell
    below eps; _AT_FLOOR: the closed forms fail at the landing direction, a
    pure or maximally mixed conditional state; _CAPPED: _NEWTON_CAP trials
    were spent) and the landing direction, a unit Bloch vector (B, 3)."""

    value: np.ndarray
    iterations: np.ndarray
    gradient_norm: np.ndarray
    flag: np.ndarray
    direction: np.ndarray


def _without_hessian(terms):
    return terms[:2] + terms[3:]


def _refine(corr, n):
    """Riemannian Newton from the unit directions n (B, 3) for the (B, 4, 4)
    stack ``corr`` of Pauli correlation matrices (see `_bloch`), as `_Minima`.

    A trial moves n by t times its step xi and retracts onto the sphere by
    n <- (n + t xi)/|n + t xi|.  A trial that lowers the value is taken,
    with t back at 1; any other halves t, which scales the predicted
    decrease by t (2 - t).  Every product is taken per density, so no
    result depends on the rest of the stack.
    """
    n = np.array(n, dtype=float)
    # every term but the Hessian, which the step already carries
    value, norm, step, decrease, valid = terms = _without_hessian(_newton_terms(corr, n))
    scale, iterations = np.ones(len(n)), np.zeros(len(n), dtype=int)
    live = valid & (decrease > _EPS)
    for _ in range(_NEWTON_CAP):
        index = np.flatnonzero(live)
        if not index.size:
            break
        trial = n[index] + scale[index, None] * step[index]
        trial /= np.sqrt((trial * trial).sum(axis=1))[:, None]
        trial_terms = _without_hessian(_newton_terms(corr[index], trial))
        iterations[index] += 1
        lower = trial_terms[0] < value[index]
        n[index[lower]] = trial[lower]
        for term, trial_term in zip(terms, trial_terms):
            term[index[lower]] = trial_term[lower]
        scale[index] = np.where(lower, 1.0, 0.5 * scale[index])
        live[index] = valid[index] & (decrease[index] * scale[index] * (2.0 - scale[index]) > _EPS)
    flag = np.where(valid, np.where(live, _CAPPED, _CONVERGED), _AT_FLOOR)
    return _Minima(value, iterations, np.where(valid, norm, np.nan), flag, n)


def _min_conditional_entropy(corr):
    """Minimum conditional entropy over measurement directions for each
    density of the (B, 4, 4) stack ``corr`` of Pauli correlation matrices
    (measured qubit first, see `_bloch`), as `_Minima`.

    A pass over the basin grid (`_basin_grid`) in the cheap expanded form
    of `_conditional_entropy` picks each start direction, and `_refine`
    takes it from there with the accurate evaluator `_newton_terms`, which
    alone gives the reported values.
    """
    pick = np.empty(len(corr), dtype=int)
    for start in range(0, len(corr), _GRID_CHUNK):
        chunk = slice(start, start + _GRID_CHUNK)
        pick[chunk] = np.argmin(_conditional_entropy(np.matmul(_coefficients(corr[chunk]), _GRID_FEATURES)), axis=1)
    return _refine(corr, _GRID_FEATURES[1:4, pick].T)


_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch(data, measured):
    """Pauli correlation matrices R[mu, nu] = Tr[rho (sigma_mu x sigma_nu)]
    (sigma_0 = 1) of a (B, 4, 4) stack, with the ``measured`` qubit as the
    first factor: R[i, 0] = r_i and R[0, j] = s_j are the local Bloch
    vectors, R[i, j] = T_ij.  The result is contiguous, as are the subsets
    the refinement takes of it, so every product over it runs one kernel
    (numpy's strided loop for a view, BLAS for contiguous rows)."""
    tensor = data.reshape(len(data), 2, 2, 2, 2)
    if measured == 1:
        tensor = tensor.transpose(0, 2, 1, 4, 3)
    return np.ascontiguousarray(np.einsum("zajbl,mba,nlj->zmn", tensor, _PAULI, _PAULI).real)


def discord_numeric(rho, measured=0):
    """Measurement-based quantum discord with a rank-1 projective measurement
    on the ``measured`` qubit (0 = left factor, 1 = right factor).

    ``rho`` is one two-qubit DensityMatrix, giving a float, or a sequence of
    them, giving a list of floats from one stacked minimization.  The
    conditional entropy is minimized over the measurement direction on the
    unit sphere: a grid of 121 directions (theta step pi/16, phi step pi/8)
    that holds the three axes picks each start, and Riemannian Newton
    refines it until a step could no longer move the value (about eps; the
    oracle's X-shaped reductions have their minimum at x-hat and take no
    step), taking shifted steps where the Hessian is not positive definite
    and only steps that lower the value.
    The result is S_measured - S_joint + that minimum.
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
        # a nan comes first, as in `worst` (max alone keeps a value over a later nan)
        return max(map(abs, self.deviations.values()), key=lambda dev: (math.isnan(dev), dev))

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


_CLOSED_FIELDS = operator.attrgetter(*FIELD_BOUNDS)


def _eofs(concurrences):
    """Entanglement of formation H(1/2 + sqrt(1 - C^2)/2) of each element
    of an array of concurrences, clipped to [0, 1] (which keeps 1 - C^2 >= 0)."""
    c = np.clip(concurrences, 0.0, 1.0)
    x = 0.5 + 0.5 * np.sqrt(1.0 - c * c)
    return -(_xlog2x(x) + _xlog2x(1.0 - x))


def _factors(ghz, bell):
    """Factors F, rho = F F^T, of rho12, rho23 and the Bell projector of each
    point, (3P, 4, 2): M = psi as (P, 4, 2) (rho12 = M M^T), N^T for N = psi
    as (P, 2, 4) (rho23 = N^T N), and the Bell weights with a zero second
    column.  One of the two products in each entry of F F^T is zero (a weight
    vanishes wherever its index has the wrong parity), so the densities are
    the traced projectors bit for bit."""
    count = len(ghz)
    factors = np.zeros((3 * count, 4, 2))
    factors[:count] = ghz.reshape(count, 4, 2)
    factors[count : 2 * count] = np.swapaxes(ghz.reshape(count, 2, 4), 1, 2)
    factors[2 * count :, :, 0] = bell
    return factors


def _records(points, ghz, bell):
    """`VerificationRecord` of each point from its `_cat_vectors` weights:
    every spectrum, concurrence and discord of all the points comes from one
    stacked call per shape, and the deviations from one subtraction of the
    closed-form values and the oracle's."""
    count = len(points)
    factors = _factors(ghz, bell)
    # rho12 and rho23, each measured on its left mode, then the Bell pair
    quads = factors @ np.swapaxes(factors, 1, 2)
    pairs = quads[: 2 * count]
    lam = _check_densities(_partial_trace(pairs, (2, 2), (0,)))
    # S1 then S2, and S12 then S23
    single, joint = _entropies(lam), _entropies(_check_densities(quads)[: 2 * count])
    d12, d23 = (single - joint + _min_conditional_entropy(_bloch(pairs, 0)).value).reshape(2, count)
    (s1, s2), (s12, s23) = single.reshape(2, count), joint.reshape(2, count)
    concurrences = _concurrences(factors)
    (c13, c23, c12), (e13, e23, e12) = concurrences.reshape(3, count), _eofs(concurrences).reshape(3, count)
    c1_23 = 2.0 * np.sqrt(np.prod(np.maximum(lam[:count], 0.0), axis=1))
    # one row per point, in FIELD_BOUNDS order
    oracle = np.stack([s1, s2, s12, s23, c12, c23, c13, c1_23, e12, e23, e13, s1, s1, d12, d23, s1 - 2.0 * d12], axis=1)
    closed = np.array([_CLOSED_FIELDS(report(params)) for params in points])
    return [
        VerificationRecord(params, dict(zip(FIELD_BOUNDS, deviations)), dict(FIELD_BOUNDS))
        for params, deviations in zip(points, (closed - oracle).tolist())
    ]


def verify_points(points, nmax=None):
    """Compare every closed-form report field against its brute-force value
    at each parameter point, in order; each spectrum, concurrence and
    discord of all the points comes from one stacked call per shape."""
    points = list(points)
    if not points:
        return []
    return _records(points, *_cat_vectors(points, nmax))


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
