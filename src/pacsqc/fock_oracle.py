"""Brute-force verification layer in truncated Fock space.

Every state is rebuilt from explicit photon-number amplitudes: overlaps come
from amplitude summation, reduced densities from partial traces, spectra from
LAPACK (numpy.linalg.eigvalsh/eigh), concurrence from the spin-flip spectrum,
and discord from direct minimization of the post-measurement conditional
entropy over projective qubit measurements.  None of the closed forms from
`states` or `correlations` enter these code paths; the single shared
primitive is the binary entropy.

The discord minimizer works on the real Bloch form (r, s, T) of each 4x4
density, where outcome weights and conditional states are closed expressions
in the measurement direction: a 64x64 (theta, phi) grid pass, then zoom
stencil rounds run on a whole stack of densities at once.

Per mode, the pair {|alpha,m>, |-alpha,m>} spans a two-dimensional subspace
that is orthonormalized from its numerically computed Gram matrix into the
even/odd combinations, so reduced densities land in exactly the encoded
basis used by the closed forms and can be compared entrywise.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .special import binary_entropy
from .states import LimitRegimeError, ModelParams, DEGENERATE_ALPHA2
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

    @property
    def nmax(self):
        return self.amplitudes.size - 1

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
        trace = complex(np.trace(data))
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"trace must be 1, got {trace!r}")
        if float(np.abs(data - data.conj().T).max()) > 1e-10:
            raise ValueError("matrix is not Hermitian within tolerance")
        if size > 1 and float(np.linalg.eigvalsh(data)[0]) < -1e-9:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")

    def eigenvalues(self):
        """Spectrum in ascending order."""
        return np.linalg.eigvalsh(self.data)

    def purity(self):
        return float(np.trace(self.data @ self.data).real)


def partial_trace(rho, keep):
    """Trace out every subsystem not listed in ``keep`` (0-based indices,
    original ordering preserved); tracing everything returns the 1x1 unit."""
    keep = tuple(sorted({int(i) for i in keep}))
    n = len(rho.dims)
    if any(i < 0 or i >= n for i in keep):
        raise ValueError(f"invalid subsystem labels {keep} for dims {rho.dims}")
    if not keep:
        return DensityMatrix(np.array([[complex(np.trace(rho.data))]]), ())
    tensor = rho.data.reshape(rho.dims + rho.dims)
    removed = 0
    for i in range(n):
        if i in keep:
            continue
        axis = i - removed
        tensor = np.trace(tensor, axis1=axis, axis2=axis + (n - removed))
        removed += 1
    dims = tuple(rho.dims[i] for i in keep)
    size = math.prod(dims)
    return DensityMatrix(tensor.reshape(size, size), dims)


def von_neumann_entropy(rho):
    """- sum_i lambda_i log2 lambda_i over the spectrum (0 log 0 = 0)."""
    data = rho.data if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    total = 0.0
    for lam in np.linalg.eigvalsh(data):
        if lam > 1e-300:
            total -= lam * math.log2(lam)
    return total


_SY_SY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)


def _psd_sqrt(data):
    """Principal square root of a positive semidefinite Hermitian matrix,
    with eigenvalues below zero (eigensolver noise) clipped to zero."""
    lam, vec = np.linalg.eigh(data)
    return (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T


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
    root = _psd_sqrt(data)
    product = root @ _SY_SY @ root.conj()
    dilation = np.zeros((8, 8), dtype=complex)
    dilation[:4, 4:] = product
    dilation[4:, :4] = product.conj().T
    spectrum = np.linalg.eigvalsh(dilation)
    lams = np.clip(spectrum[4:][::-1], 0.0, None)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


@dataclass(frozen=True)
class _ModePair:
    """One mode's cat pair: the coordinates of |alpha,m> and |-alpha,m> in
    the orthonormal (even, odd) basis of the span of the two."""

    plus_coords: np.ndarray
    minus_coords: np.ndarray


def _mode_pair(v_plus, v_minus):
    overlap = inner(v_plus, v_minus).real
    even = v_plus.amplitudes + v_minus.amplitudes
    odd = v_plus.amplitudes - v_minus.amplitudes
    n_even = math.sqrt(float(np.vdot(even, even).real))
    n_odd = math.sqrt(float(np.vdot(odd, odd).real))
    if min(n_even, n_odd) < 1e-9:
        raise ValueError("mode Gram matrix is numerically singular; the pair spans no qubit")
    c_plus = math.sqrt(max(0.0, 0.5 * (1.0 + overlap)))
    c_minus = math.sqrt(max(0.0, 0.5 * (1.0 - overlap)))
    return _ModePair(np.array([c_plus, c_minus]), np.array([c_plus, -c_minus]))


def _mode_pairs(params, nmax):
    """The (excited, plain) cat pairs of one parameter point; each coherent
    vector is built once and shared by both pairs."""
    if params.is_degenerate:
        raise LimitRegimeError(
            f"odd-parity state degenerates for |alpha|^2 < {DEGENERATE_ALPHA2}"
        )
    if nmax is None:
        nmax = default_nmax(params.alpha2, params.m)
    alpha = math.sqrt(params.alpha2)
    plus = coherent_vector(alpha, nmax)
    minus = coherent_vector(-alpha, nmax)
    return _mode_pair(add_photons(plus, params.m), add_photons(minus, params.m)), _mode_pair(plus, minus)


def _superposition(params, modes):
    """Normalized weights of |alpha..> + sign |-alpha..> over the given mode
    pairs, one tensor axis per mode."""
    forward = functools.reduce(np.multiply.outer, [mode.plus_coords for mode in modes])
    backward = functools.reduce(np.multiply.outer, [mode.minus_coords for mode in modes])
    raw = forward + params.sign * backward
    norm = math.sqrt(float(np.sum(np.abs(raw) ** 2)))
    if norm < 1e-9:
        raise ValueError("superposition vector vanishes at this parameter point")
    return raw / norm


def _projector(weights):
    vec = weights.reshape(-1)
    return DensityMatrix(np.outer(vec, vec.conj()), (2,) * weights.ndim)


def build_tripartite(params, nmax=None):
    """Pure-state projector of the GHZ-type superposition on the 2x2x2
    subspace spanned by the per-mode cat pairs."""
    excited, plain = _mode_pairs(params, nmax)
    return _projector(_superposition(params, (excited, plain, plain)))


def build_bell_pair(params, nmax=None):
    """Quasi-Bell pure pair (excited mode 1 with a plain mode 2) as a 4x4
    projector in the cat-basis subspace."""
    return _projector(_superposition(params, _mode_pairs(params, nmax)))


_THETA_POINTS = 64
_PHI_POINTS = 64
# Zoom refinement: each round evaluates a 9x9 stencil spanning +- the
# round's (theta, phi) half-widths.  They start at one grid step and shrink
# 4x per round, so each stencil spans the neighbouring cells of the previous
# round's best point; the last round is the first with both <= 1e-10 rad.
_STENCIL = np.arange(-4, 5) / 4.0
_HALF_WIDTHS = np.array([math.pi / (_THETA_POINTS - 1), 2.0 * math.pi / _PHI_POINTS])
_HALF_WIDTHS = _HALF_WIDTHS / 4.0 ** np.arange(1 + math.ceil(math.log(_HALF_WIDTHS.max() / 1e-10, 4)))[:, None]

_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _directions(theta, phi):
    """Unit Bloch vectors on each row's (theta, phi) product grid: theta of
    shape (B, a) and phi of shape (B, b) give (B, a * b, 3), theta-major."""
    sin_t, cos_t = np.sin(theta)[:, :, None], np.cos(theta)[:, :, None]
    n = np.stack(np.broadcast_arrays(sin_t * np.cos(phi)[:, None, :], sin_t * np.sin(phi)[:, None, :], cos_t), axis=-1)
    return n.reshape(len(theta), theta.shape[1] * phi.shape[1], 3)


# The grid's rows theta and pi - theta, with phi and phi + pi, hold the
# directions n and -n: one measurement with its two outcomes swapped.  Only
# the rows theta < pi/2 are evaluated.
_GRID_PHI = np.linspace(0.0, 2.0 * math.pi, _PHI_POINTS, endpoint=False)
_GRID_DIRECTIONS = _directions(np.linspace(0.0, math.pi, _THETA_POINTS)[None, : _THETA_POINTS // 2], _GRID_PHI[None])


def _xlog2x(values):
    return np.where(values > 1e-300, values * np.log2(np.maximum(values, 1e-300)), 0.0)


def _conditional_entropy(corr, n):
    """Post-measurement conditional entropy sum_+- p S(rho_+-) of the
    unmeasured qubit for the projective measurement along each direction.

    ``corr`` is a (B, 4, 4) stack of Pauli correlation matrices (measured
    qubit first, see `discord_numeric`) and ``n`` holds unit directions of
    shape (B, K, 3) or (1, K, 3); the result has shape (B, K).  Outcome +-
    occurs with weight p = (1 +- n.r)/2 and leaves the conditional Bloch
    vector v = (s +- T^T n)/2, whose unnormalized state has eigenvalues
    (p +- |v|)/2.  Dot products are written out term by term so that every
    entry is computed the same way whatever the stack size.
    """
    local = corr[:, None, 0, :]
    shift = n[..., 0, None] * corr[:, None, 1, :] + n[..., 1, None] * corr[:, None, 2, :]
    shift = shift + n[..., 2, None] * corr[:, None, 3, :]
    total = 0.0
    for w in (local + shift, local - shift):
        p = 0.5 * w[..., 0]
        v = 0.5 * np.sqrt(w[..., 1] * w[..., 1] + w[..., 2] * w[..., 2] + w[..., 3] * w[..., 3])
        # p S(rho/p) = p log2 p - sum_i lam_i log2 lam_i  (lam unnormalized)
        total = total + _xlog2x(p) - _xlog2x(0.5 * (p + v)) - _xlog2x(0.5 * (p - v))
    return total


def _min_conditional_entropy(corr):
    """Minimum conditional entropy over measurement directions for each
    density of the (B, 4, 4) stack ``corr``.

    Each density's grid pass runs on its own (stacking it would multiply
    peak memory).  Its minimum is then rotated onto the equator of a local
    chart, so that no stencil has to work across a chart pole, where phi
    steps shrink to nothing and a minimum a little off the pole is out of
    reach.  The zoom rounds run on the whole stack in those charts; a centre
    moves only when its stencil improves on it, so the result never exceeds
    the grid minimum.
    """
    best = np.empty(len(corr))
    local = corr.copy()
    for i in range(len(corr)):
        values = _conditional_entropy(corr[i : i + 1], _GRID_DIRECTIONS)[0]
        pick = int(np.argmin(values))
        best[i] = values[pick]
        # R = [n, phi-hat, n x phi-hat = -theta-hat] carries the chart point
        # (pi/2, 0) onto n, with chart steps along theta-hat and phi-hat;
        # n = R n' turns n.r into n'.(R^T r) and T^T n into (R^T T)^T n'
        n, phi = _GRID_DIRECTIONS[0, pick], _GRID_PHI[pick % _PHI_POINTS]
        phi_hat = np.array([-math.sin(phi), math.cos(phi), 0.0])
        local[i, 1:] = np.column_stack([n, phi_hat, np.cross(n, phi_hat)]).T @ corr[i, 1:]
    rows = np.arange(len(corr))
    centre = np.tile([0.5 * math.pi, 0.0], (len(corr), 1))
    for half_theta, half_phi in _HALF_WIDTHS:
        theta = centre[:, 0, None] + half_theta * _STENCIL
        phi = centre[:, 1, None] + half_phi * _STENCIL
        values = _conditional_entropy(local, _directions(theta, phi))
        pick = np.argmin(values, axis=1)
        low = values[rows, pick]
        better = low < best
        best = np.where(better, low, best)
        moved = np.column_stack([theta[rows, pick // _STENCIL.size], phi[rows, pick % _STENCIL.size]])
        centre = np.where(better[:, None], moved, centre)
    return best


def discord_numeric(rho, measured=0):
    """Measurement-based quantum discord with a rank-1 projective measurement
    on the ``measured`` qubit (0 = left factor, 1 = right factor).

    ``rho`` is one two-qubit DensityMatrix, giving a float, or a sequence of
    them, giving a list of floats from one stacked minimization.  The
    conditional entropy is minimized on a 64x64 (theta, phi) grid, refined
    by zoom rounds of a 9x9 stencil down to 1e-10 rad; the result is
    S_measured - S_joint + min conditional entropy.
    """
    single = isinstance(rho, DensityMatrix)
    densities = [rho] if single else list(rho)
    if measured not in (0, 1):
        raise ValueError("measured side must be 0 or 1")
    corr = np.empty((len(densities), 4, 4))
    base = []
    for i, density in enumerate(densities):
        if tuple(density.dims) != (2, 2):
            raise ValueError("discord is computed for two-qubit densities")
        tensor = density.data.reshape(2, 2, 2, 2)
        if measured == 1:
            tensor = tensor.transpose(1, 0, 3, 2)
        # R[mu, nu] = Tr[rho (sigma_mu x sigma_nu)] with sigma_0 = 1: R[i, 0] = r_i
        # and R[0, j] = s_j are the local Bloch vectors, R[i, j] = T_ij
        corr[i] = np.einsum("ajbl,mba,nlj->mn", tensor, _PAULI, _PAULI).real
        base.append(von_neumann_entropy(np.einsum("ajbj->ab", tensor)) - von_neumann_entropy(density))
    values = [float(s + c) for s, c in zip(base, _min_conditional_entropy(corr))]
    return values[0] if single else values


# Closed-form-vs-oracle tolerance per report field: entropy, concurrence and
# EoF values agree through eigenvalue arithmetic; the measurement-optimized
# discords carry the grid/refinement tolerance; the deficit inherits twice
# the discord bound.
FIELD_BOUNDS = {
    "S1": 1e-8,
    "S2": 1e-8,
    "S12": 1e-8,
    "S23": 1e-8,
    "C12_conc": 1e-8,
    "C23_conc": 1e-8,
    "C13_conc": 1e-8,
    "C1_23_conc": 1e-8,
    "E12": 1e-8,
    "E23": 1e-8,
    "E13": 1e-8,
    "E1_23": 1e-8,
    "D1_23": 1e-8,
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

    def worst(self):
        """(field, signed deviation) with the largest bound-relative excess."""
        name = max(self.deviations, key=lambda f: abs(self.deviations[f]) / self.bounds[f])
        return name, self.deviations[name]

    def passes(self, bound_override=None):
        """True when every deviation sits within its bound (or within the
        single override bound when one is given)."""
        for name, dev in self.deviations.items():
            bound = self.bounds[name] if bound_override is None else bound_override
            if abs(dev) > bound:
                return False
        return True


def _eof(concurrence):
    c = min(max(float(concurrence), 0.0), 1.0)
    return binary_entropy(0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - c * c)))


def verify_points(points, nmax=None):
    """Compare every closed-form report field against its brute-force value
    at each parameter point, in order; the discords of all points come from
    one stacked minimization."""
    points = list(points)
    fields, reduced = [], []
    for params in points:
        excited, plain = _mode_pairs(params, nmax)
        rho123 = _projector(_superposition(params, (excited, plain, plain)))
        rho12 = partial_trace(rho123, (0, 1))
        rho23 = partial_trace(rho123, (1, 2))
        rho1 = partial_trace(rho123, (0,))
        s1 = von_neumann_entropy(rho1)
        c12 = wootters_concurrence(_projector(_superposition(params, (excited, plain))))
        c23 = wootters_concurrence(rho23)
        c13 = wootters_concurrence(rho12)
        lam1 = np.clip(rho1.eigenvalues(), 0.0, None)
        fields.append({
            "S1": s1,
            "S2": von_neumann_entropy(partial_trace(rho123, (1,))),
            "S12": von_neumann_entropy(rho12),
            "S23": von_neumann_entropy(rho23),
            "C12_conc": c12,
            "C23_conc": c23,
            "C13_conc": c13,
            "C1_23_conc": 2.0 * math.sqrt(float(lam1[0] * lam1[1])),
            "E12": _eof(c12),
            "E23": _eof(c23),
            "E13": _eof(c13),
            "E1_23": s1,
        })
        reduced += [rho12, rho23]
    discords = discord_numeric(reduced, measured=0)
    records = []
    for params, oracle, d12, d23 in zip(points, fields, discords[0::2], discords[1::2]):
        oracle.update({"D12": d12, "D23": d23, "D1_23": oracle["S1"], "Delta123": oracle["S1"] - 2.0 * d12})
        closed = report(params).as_dict()
        deviations = {name: closed[name] - value for name, value in oracle.items()}
        records.append(VerificationRecord(params, deviations, dict(FIELD_BOUNDS)))
    return records


def verify(params, nmax=None):
    """Compare every closed-form report field against its brute-force value."""
    return verify_points([params], nmax)[0]


def verification_grid(alpha2_start=0.1, alpha2_stop=4.0, alpha2_steps=40, m_values=(0, 1, 2, 3, 4), k_values=(0, 1)):
    """Default verification grid: 40 strengths x 5 orders x 2 parities."""
    if alpha2_steps < 1:
        raise ValueError("need at least one grid point")
    if alpha2_steps == 1:
        strengths = [alpha2_start]
    else:
        strengths = [
            alpha2_start + i * (alpha2_stop - alpha2_start) / (alpha2_steps - 1) for i in range(alpha2_steps)
        ]
    points = []
    for k in sorted(k_values):
        for m in sorted(m_values):
            for alpha2 in strengths:
                points.append(ModelParams(alpha2, m, k))
    return points
