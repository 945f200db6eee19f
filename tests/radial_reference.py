"""Reference copies of the three band solves that radial.solve_rows replaced.

Each solves one band of Lambda_l w = f on the row-scaled matrix with its own
ring rows: the neck annulus, the site exterior and the interior ball.
u0_multipliers reads the U_0 multipliers one band at a time from unit ring
data, as SimpleMaps did before it read them in one call.  The tests require
the shared solve to reproduce these bit for bit.
"""

import numpy as np

from minsurflab.cylinder import row_bands
from minsurflab.radial import BandOperator, RadialGrid


def band_mixed(op, ell, f, outer_value):
    """Neck annulus: Dirichlet data at the outer ring; at the inner ring
    zero Dirichlet data (l >= 2) or the regular row w_rho = l w (l <= 1)."""
    A = op.matrix_scaled(ell).copy()
    rhs = np.array(f, dtype=float) * op.row_scale
    A[-1, :] = 0.0
    A[-1, -1] = 1.0
    rhs[-1] = outer_value
    if ell >= 2:
        A[0, :] = 0.0
        A[0, 0] = 1.0
    else:
        A[0, :] = op.grid.D[0]
        A[0, 0] -= float(ell)
    rhs[0] = 0.0
    return np.linalg.solve(A, rhs)


def band_exterior(op, ell, f, ring_value, n):
    """Site exterior: Dirichlet data at the ring, the decaying multipole
    row w_rho = (2 - n - l) w at the outer truncation."""
    A = op.matrix_scaled(ell).copy()
    rhs = np.asarray(f, dtype=float) * op.row_scale
    A[0, :] = 0.0
    A[0, 0] = 1.0
    rhs[0] = ring_value
    A[-1, :] = op.grid.D[-1]
    A[-1, -1] -= float(2 - n - ell)
    rhs[-1] = 0.0
    return np.linalg.solve(A, rhs)


def band_interior(op, ell, ring_value):
    """Interior ball: the regular row w_rho = l w at the inner ring,
    Dirichlet data at the ring, zero source."""
    A = op.matrix_scaled(ell).copy()
    rhs = np.zeros(op.grid.m)
    A[-1, :] = 0.0
    A[-1, -1] = 1.0
    rhs[-1] = ring_value
    A[0, :] = op.grid.D[0]
    A[0, 0] -= float(ell)
    rhs[0] = 0.0
    return np.linalg.solve(A, rhs)


def u0_multipliers(site):
    """U_0 multiplier of each band l at a Site: the l-coefficient of the ring
    slope difference of the exterior and interior-ball solves with unit
    band-l ring data, each solve on its own operator build."""
    spec = site.exterior.spectrum
    n = spec.n
    bands = row_bands(spec)
    ext_grid = site.exterior.grid
    ub = site.exterior.u
    ext_op = BandOperator(spec, ext_grid, (ext_grid.D @ ub.values[0]) / ext_grid.r)
    patch = site.patch
    ball = RadialGrid(1e-3 * site.r0, site.r0, patch.grid.m)
    slope = (patch.grid.D @ patch.u.values[0]) / patch.grid.r
    ball_op = BandOperator(spec, ball, patch.grid.interp_matrix(ball.r) @ slope)
    first_row = {0: 0, 1: 1, **{ell: n - 1 + ell for ell in range(2, spec.L + 1)}}
    mult = np.zeros(spec.L + 1)
    for ell in range(spec.L + 1):
        ring = np.zeros(spec.row_count())
        ring[first_row[ell]] = 1.0
        w0 = np.array([
            band_exterior(ext_op, int(b), np.zeros(ext_grid.m), float(ring[i]), n)
            for i, b in enumerate(bands)
        ])
        wt0 = np.array([band_interior(ball_op, int(b), float(ring[i])) for i, b in enumerate(bands)])
        resp = w0 @ ext_grid.D[0] - wt0 @ ball.D[-1]
        mult[ell] = resp[first_row[ell]]
    return mult
