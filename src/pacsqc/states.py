"""Encoded X-state reductions of the GHZ-type coherent-state superposition.

Opposite-phase Glauber states |alpha>, |-alpha> (the first mode optionally
excited by m actions of the creation operator) are mapped onto logical qubits
in the orthogonal even/odd cat-state basis.  In that basis the reduced
densities rho_12 = rho_13 and rho_23 of the three-mode superposition are
X-shaped; this module builds them from the cat amplitudes alone, as a check
on the closed forms of :mod:`pacsqc.correlations` that shares none of their
formulas.  It also holds the parameter point `ModelParams` that every layer
takes, with the parity check and the degenerate-point rule they all share.

Conventions: the qubit basis is ordered |00>, |01>, |10>, |11> with the
lower-numbered mode as the left tensor factor, all cat amplitudes are real
non-negative, and the relative phase exp(i k pi) is reduced to the sign
cos(k pi) = +-1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .special import _check_alpha2, _check_order, kappa

__all__ = [
    "DEGENERATE_ALPHA2",
    "LimitRegimeError",
    "ModelParams",
    "XStateDensity",
    "ghz_rho12",
    "ghz_rho23",
]

# Below this strength the odd-parity family degenerates (0/0 normalization).
DEGENERATE_ALPHA2 = 1e-8


class LimitRegimeError(ValueError):
    """Raised at the odd-parity small-amplitude point where the superposition
    norm vanishes and direct construction is a 0/0.  Callers should use the
    analytic small-amplitude limits in :mod:`pacsqc.correlations` instead."""


@dataclass(frozen=True)
class ModelParams:
    """Parameter point: coherent strength |alpha|^2, excitation order m, parity k.

    k = 0 selects the symmetric (even) superposition, k = 1 the antisymmetric
    (odd) one; only the parity of k is physical.
    """

    alpha2: float
    m: int = 0
    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha2", _check_alpha2(self.alpha2))
        object.__setattr__(self, "m", _check_order(self.m))
        object.__setattr__(self, "k", _check_parity(self.k))

    @property
    def p(self):
        """Coherent-state overlap p = exp(-2 |alpha|^2)."""
        return math.exp(-2.0 * self.alpha2)

    @property
    def sign(self):
        """cos(k pi) as an exact integer, +1 for even k and -1 for odd k."""
        return 1 if self.k == 0 else -1

    @property
    def kappa_m(self):
        """Overlap ratio kappa_m(|alpha|^2) of the excited mode."""
        return kappa(self.m, self.alpha2)

    @property
    def is_degenerate(self):
        """True on the odd-parity degenerate point alpha2 < DEGENERATE_ALPHA2."""
        return _degenerate(self.alpha2, self.k)


def _check_parity(k):
    if k not in (0, 1):
        raise ValueError(f"parity flag k must be 0 (even) or 1 (odd), got {k!r}")
    return int(k)


def _degenerate(alpha2, k):
    # the degenerate point, at a checked float alpha2 or elementwise an array
    return (k == 1) & (alpha2 < DEGENERATE_ALPHA2)


def _require_regular(alpha2, k):
    if np.any(_degenerate(alpha2, k)):
        raise LimitRegimeError(
            "odd-parity state degenerates for |alpha|^2 < "
            f"{DEGENERATE_ALPHA2}; use the analytic small-amplitude limits "
            "(correlations.w_limit_report) instead"
        )


def _cat_amplitudes(overlap):
    """Cat-basis amplitudes (c_plus, c_minus) = sqrt((1 +- overlap) / 2) of a
    mode whose phase-flipped pair has the given overlap."""
    r_plus = 0.5 * (1.0 + overlap)
    r_minus = 0.5 * (1.0 - overlap)
    if min(r_plus, r_minus) < -1e-12:
        raise ArithmeticError(f"overlap bound violated: {overlap!r}")
    return math.sqrt(max(r_plus, 0.0)), math.sqrt(max(r_minus, 0.0))


@dataclass(frozen=True)
class XStateDensity:
    """Two-qubit density matrix supported on the diagonal and anti-diagonal.

    Stored as the four real diagonal entries plus the two independent
    anti-diagonal entries (1,4) and (2,3); Hermiticity and the zero pattern
    then hold by construction.
    """

    diag: np.ndarray
    off_outer: complex
    off_inner: complex

    def __post_init__(self):
        diag = np.array(self.diag, dtype=float).reshape(4)
        diag.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "off_outer", complex(self.off_outer))
        object.__setattr__(self, "off_inner", complex(self.off_inner))
        if abs(float(diag.sum()) - 1.0) > 1e-12:
            raise ValueError(f"trace must be 1, got {float(diag.sum())!r}")
        low = min(self.eigenvalues())
        if low < -1e-10:
            raise ValueError(f"matrix not positive semidefinite: min eigenvalue {low}")

    def eigenvalues(self):
        """All four eigenvalues, from the (1,4) and (2,3) 2x2 blocks, ascending."""
        out = []
        for i, j, off in ((0, 3, self.off_outer), (1, 2, self.off_inner)):
            mid = 0.5 * (self.diag[i] + self.diag[j])
            rad = math.hypot(0.5 * (self.diag[i] - self.diag[j]), abs(off))
            out += [mid - rad, mid + rad]
        return sorted(out)

    def to_matrix(self):
        """Dense 4x4 complex matrix in the |00>,|01>,|10>,|11> basis."""
        rho = np.zeros((4, 4), dtype=complex)
        rho[np.diag_indices(4)] = self.diag
        rho[0, 3] = self.off_outer
        rho[3, 0] = np.conj(self.off_outer)
        rho[1, 2] = self.off_inner
        rho[2, 1] = np.conj(self.off_inner)
        return rho

    def purity(self):
        """Tr(rho^2), between 1/4 and 1 for two qubits."""
        return float(sum(lam * lam for lam in self.eigenvalues()))


def _ghz_reduction(params, left, right, traced):
    # X-shaped reduction of the GHZ-type state to two modes, from the phase-flip
    # overlaps of those modes and of the traced-out one (parity weights 1 +- traced
    # cos k pi), divided by its own trace, the GHZ norm, so it stays 1 where that cancels
    _require_regular(params.alpha2, params.k)
    amp = np.outer(_cat_amplitudes(left), _cat_amplitudes(right)).ravel()  # on |00>, |01>, |10>, |11>
    w = 1.0 + np.array([1.0, -1.0, -1.0, 1.0]) * (traced * params.sign)
    diag = amp * amp * w
    trace = diag.sum()
    return XStateDensity(diag / trace, amp[0] * amp[3] * w[0] / trace, amp[1] * amp[2] * w[1] / trace)


def ghz_rho12(params):
    """Reduced density of modes (1,2) of the GHZ-type state; modes (1,3) give
    the identical matrix because only mode 1 carries the excitation.

    Equal to the quasi-Bell projector and its phase flip mixed with weights
    (1 ± e^{-2|alpha|^2})/2 and rescaled into the encoded product basis,
    which is where the X shape appears.
    """
    return _ghz_reduction(params, params.kappa_m * params.p, params.p, params.p)


def ghz_rho23(params):
    """Reduced density of modes (2,3) of the GHZ-type state.

    Same structure as :func:`ghz_rho12` built on the unexcited quasi-Bell
    pair, with the mixing weights (1 ± kappa_m e^{-2|alpha|^2})/2 carrying
    the excitation order; for m = 0 the two reductions coincide entrywise.
    """
    return _ghz_reduction(params, params.p, params.p, params.kappa_m * params.p)
