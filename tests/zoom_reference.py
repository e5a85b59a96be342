"""Frozen reference: the zoom-stencil discord minimizer that `fock_oracle`
ran before its Newton refinement, kept as it was (it now also reports
where it landed) so regression tests can compare the two.  It imports
nothing from `pacsqc`, so changes there cannot move it.

`zoom_minima(corr)` takes a (B, 4, 4) stack of Pauli correlation matrices
(measured qubit first, as `fock_oracle._bloch` builds them) and returns
each density's minimum conditional entropy and the Bloch direction (B, 3)
the zoom landed on.
"""

import math

import numpy as np

THETA_POINTS = 32
PHI_POINTS = 32
STENCIL = np.arange(-4, 5) / 4.0
EDGE = ((np.abs(STENCIL[:, None]) == 1.0) | (np.abs(STENCIL) == 1.0)).ravel()
FIRST_HALF_WIDTHS = np.array([math.pi / (THETA_POINTS - 1), 2.0 * math.pi / PHI_POINTS])
STOP_HALF_WIDTH = 1.5e-8
MAX_ROUNDS = 500
GRID_CHUNK = 16


def features(theta, phi):
    sin_t, size = np.sin(theta)[:, :, None], (len(theta), theta.shape[1] * phi.shape[1])
    x = (sin_t * np.cos(phi)[:, None, :]).reshape(size)
    y = (sin_t * np.sin(phi)[:, None, :]).reshape(size)
    z = np.repeat(np.cos(theta), phi.shape[1], axis=1)
    return np.stack([np.ones(size), x, y, z, x * x, y * y, z * z, 2.0 * x * y, 2.0 * x * z, 2.0 * y * z], axis=1)


GRID_PHI = np.linspace(0.0, 2.0 * math.pi, PHI_POINTS, endpoint=False)
GRID_FEATURES = features(np.linspace(0.0, math.pi, THETA_POINTS)[None, : THETA_POINTS // 2], GRID_PHI[None])[0]


def coefficients(corr):
    r, s, tensor = corr[:, 1:, 0], corr[:, 0, 1:], corr[:, 1:, 1:]
    coeffs = np.zeros((len(corr), 3, 10))
    coeffs[:, 0, 1:4] = r
    coeffs[:, 1, 1:4] = (tensor @ s[:, :, None])[:, :, 0]
    coeffs[:, 2, 0] = s[:, 0] * s[:, 0] + s[:, 1] * s[:, 1] + s[:, 2] * s[:, 2]
    coeffs[:, 2, 4:] = (tensor @ np.swapaxes(tensor, 1, 2))[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]
    return coeffs


def xlog2x(values):
    return values * np.log2(values, out=np.zeros_like(values), where=values > 1e-300)


def conditional_entropy(abu):
    signs = np.array([1.0, -1.0])[:, None, None]
    p = 0.5 + 0.5 * signs * abu[:, 0]
    v = 0.5 * np.sqrt(np.maximum(abu[:, 2] + 2.0 * signs * abu[:, 1], 0.0))
    total = xlog2x(p) - xlog2x(0.5 * (p + v)) - xlog2x(0.5 * (p - v))
    return total[0] + total[1]


def zoom_minima(corr):
    coeffs, rows = coefficients(corr), np.arange(len(corr))
    pick, best = np.empty(len(corr), dtype=int), np.empty(len(corr))
    for start in range(0, len(corr), GRID_CHUNK):
        chunk = slice(start, start + GRID_CHUNK)
        values = conditional_entropy(np.matmul(coeffs[chunk], GRID_FEATURES))
        pick[chunk] = np.argmin(values, axis=1)
        best[chunk] = values[rows[: len(values)], pick[chunk]]
    n, phi = GRID_FEATURES[1:4, pick].T, GRID_PHI[pick % PHI_POINTS]
    phi_hat = np.column_stack([-np.sin(phi), np.cos(phi), np.zeros(len(phi))])
    frames = np.stack([n, phi_hat, np.cross(n, phi_hat)], axis=1)
    rotated = corr.copy()
    rotated[:, 1:] = frames @ corr[:, 1:]
    local, centre = coefficients(rotated), np.tile([0.5 * math.pi, 0.0], (len(corr), 1))
    half, index, least = np.tile(FIRST_HALF_WIDTHS, (len(corr), 1)), rows, best.copy()
    landed = centre.copy()
    for _ in range(MAX_ROUNDS):
        grid = centre[:, :, None] + half[:, :, None] * STENCIL
        values = conditional_entropy(np.matmul(local, features(grid[:, 0], grid[:, 1])))
        pick, here = np.argmin(values, axis=1), rows[: len(index)]
        low = values[here, pick]
        better = low < least
        least = np.where(better, low, least)
        i, j = np.divmod(pick, STENCIL.size)
        centre = np.where(better[:, None], np.column_stack([grid[here, 0, i], grid[here, 1, j]]), centre)
        half = half * np.where(better & EDGE[pick], 1.0, 0.25)[:, None]
        best[index], landed[index], going = least, centre, np.max(half, axis=1) > STOP_HALF_WIDTH
        if not going.all():
            index, least, centre, half, local = index[going], least[going], centre[going], half[going], local[going]
            if not index.size:
                break
    theta, phi = landed[:, 0], landed[:, 1]
    chart = np.column_stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    return best, (np.swapaxes(frames, 1, 2) @ chart[:, :, None])[:, :, 0]
