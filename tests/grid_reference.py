"""Frozen reference: the 497-direction basin grid that `fock_oracle`'s
discord minimizer searched before its grid was coarsened to 121 directions,
kept as it was so regression tests can run the same minimizer from both
grids.  It imports nothing from `pacsqc`, so changes there cannot move it.

`basin_grid_497()` returns the direction features (1, n_i, n_i^2,
2 n_i n_j) of theta = i pi/32 (i = 0..16) by phi = j pi/16 (j = 0..31),
the pole once, the rows 0 < theta < pi/2 whole and the equator for
phi < pi, shape (10, 497), in the layout of `fock_oracle._GRID_FEATURES`.
"""

import math

import numpy as np


def basin_grid_497():
    quarter = np.sin(np.arange(17) * math.pi / 32.0)
    sines = np.concatenate([quarter, quarter[15:0:-1], -quarter, -quarter[15:0:-1]])  # k = 0..63
    theta = np.concatenate([[0], np.repeat(np.arange(1, 16), 32), np.full(16, 16)])
    phi = np.concatenate([[0], np.tile(np.arange(0, 64, 2), 15), np.arange(0, 32, 2)])
    sin_t, z, sin_p, cos_p = sines[theta], sines[theta + 16], sines[phi], sines[(phi + 16) % 64]
    x, y = sin_t * cos_p, sin_t * sin_p
    return np.stack([np.ones_like(x), x, y, z, x * x, y * y, z * z, 2.0 * x * y, 2.0 * x * z, 2.0 * y * z])
