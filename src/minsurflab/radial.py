"""Band-spectral radial solvers on annuli and punctured balls.

Fields over a polar domain are stored as band rows on a Chebyshev grid in
rho = log r, where the graph operators are band-diagonal for a radially
symmetric background.  The linearized graph operator about a radial height
profile b(r) acts on band l as

    Lambda_l w = e^{-n rho} d_rho[ e^{(n-2) rho} w_rho / W^3 ] - lam_l e^{-2 rho} w / W,

with W = sqrt(1 + b'(r)^2).  Bands l >= 2 take Dirichlet data at the inner
ring; bands l <= 1 take the regular-selection Robin row w_rho = l w, which
pins the flat-model regular behavior r^l and keeps the solve uniformly
bounded as the inner radius shrinks.
"""

from __future__ import annotations

import numpy as np

from .cylinder import BandField, GridError, row_bands
from .diffops import bary_interp_matrix, cheb_nodes_matrix
from .spectral import BandSpectrum, SphereField


def clencurt_weights(x: np.ndarray) -> np.ndarray:
    """Clenshaw-Curtis quadrature weights for Chebyshev points on [a, b]."""
    m = x.size
    N = m - 1
    theta = np.pi * np.arange(m) / N
    w = np.zeros(m)
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[-1] = 1.0 / (N**2 - 1)
        for k in range(1, N // 2):
            v -= 2.0 * np.cos(2 * k * theta[1:-1]) / (4 * k**2 - 1)
        v -= np.cos(N * theta[1:-1]) / (N**2 - 1)
    else:
        w[0] = w[-1] = 1.0 / N**2
        for k in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * k * theta[1:-1]) / (4 * k**2 - 1)
    w[1:-1] = 2.0 * v / N
    return w[::-1] * (x[-1] - x[0]) / 2.0


class RadialGrid:
    """Chebyshev collocation in log r on [r_in, r_out]."""

    def __init__(self, r_in: float, r_out: float, m: int):
        if not (0 < r_in < r_out):
            raise GridError("need 0 < r_in < r_out")
        self.rho, self.D = cheb_nodes_matrix(m, np.log(r_in), np.log(r_out))
        self.D2 = self.D @ self.D
        self.r = np.exp(self.rho)
        self.r_in = r_in
        self.r_out = r_out
        self.m = m
        self.quad_rho = clencurt_weights(self.rho)
        self.nodes = self.rho

    def d_rows(self, values: np.ndarray, index: int) -> np.ndarray:
        """r d/dr ( = d/d rho ) of the rows at a node, spectrally accurate."""
        return values @ self.D[index]

    def interp_matrix(self, r_new: np.ndarray) -> np.ndarray:
        return bary_interp_matrix(self.rho, np.log(np.asarray(r_new, dtype=float)))


class BandOperator:
    """Band-diagonal linearized graph operator about a radial background."""

    def __init__(self, spectrum: BandSpectrum, grid: RadialGrid, db_dr: np.ndarray | None = None):
        self.spectrum = spectrum
        self.grid = grid
        n = spectrum.n
        rho, D = grid.rho, grid.D
        if db_dr is None:
            db_dr = np.zeros(grid.m)
        W = np.sqrt(1.0 + db_dr**2)
        self.W = W
        front = np.exp(-n * rho)
        mid = np.exp((n - 2) * rho) / W**3
        # scaled form e^{n rho} Lambda keeps the collocation matrix
        # well-conditioned over the annulus's large radial dynamic range
        self._second_scaled = D @ np.diag(mid) @ D
        self._zero_scaled = np.exp((n - 2) * rho) / W
        self.row_scale = np.exp(n * rho)
        self._front = front
        self._matrices: dict[int, np.ndarray] = {}

    def matrix_scaled(self, ell: int) -> np.ndarray:
        """Collocation matrix of e^{n rho} Lambda on band ell."""
        if ell not in self._matrices:
            lam = self.spectrum.lam[ell]
            self._matrices[ell] = self._second_scaled - lam * np.diag(self._zero_scaled)
        return self._matrices[ell]

    def matrix(self, ell: int) -> np.ndarray:
        return np.diag(self._front) @ self.matrix_scaled(ell)

    def apply(self, w: BandField) -> BandField:
        bands = row_bands(self.spectrum)
        out = np.empty_like(w.values)
        for i, ell in enumerate(bands):
            out[i] = self._front * (self.matrix_scaled(ell) @ w.values[i])
        return BandField(self.spectrum, self.grid, out, w.pole)


def solve_band_mixed(op: BandOperator, ell: int, f: np.ndarray, outer_value: float) -> np.ndarray:
    """Single-band mixed solve of Lambda_l w = f: Dirichlet data outer_value
    at the outer ring; at the inner ring zero Dirichlet data (bands l >= 2)
    or the regular-selection Robin row w_rho = l w (bands l <= 1)."""
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


def solve_mixed(op: BandOperator, f: BandField, outer: SphereField | None = None) -> BandField:
    """Row-wise mixed solve.

    Bands l >= 2 take zero Dirichlet data at the inner ring, bands l <= 1
    the regular-selection row; outer supplies Dirichlet data for every band
    at the outer ring, None meaning zero data.
    """
    spec = f.spectrum
    bands = row_bands(spec)
    out = np.empty_like(f.values)
    outer_cols = np.zeros(spec.row_count())
    if outer is not None:
        outer_cols = np.concatenate([outer.low, outer.zonal])
    for i, ell in enumerate(bands):
        out[i] = solve_band_mixed(op, int(ell), f.values[i], float(outer_cols[i]))
    return BandField(spec, f.grid, out, f.pole)


def weighted_norm(w: BandField, k: int, alpha: float, nu: float) -> float:
    """Surrogate of the power-weighted Hoelder norm sup r^{-nu} [w]_{k,a,[r,2r]}.

    Dyadic windows [r, 2r] over the grid; derivative factors r^j d^j/dr^j
    realized as d/d rho powers, plus a Hoelder quotient of the top
    derivative in rho over adjacent nodes.  Raises ValueError on non-finite
    values.
    """
    if not np.all(np.isfinite(w.values)):
        raise ValueError("weighted_norm of a field with non-finite values")
    grid = w.grid
    rho = grid.rho
    vals = [w.values]
    for _ in range(k):
        vals.append(vals[-1] @ grid.D.T)
    quot = np.zeros_like(vals[k])
    d = np.abs(np.diff(rho))
    q = np.abs(np.diff(vals[k], axis=1)) / d**alpha
    quot[:, :-1] = q
    best = 0.0
    for i0 in range(grid.m):
        upper = rho[i0] + np.log(2.0)
        i1 = int(np.searchsorted(rho, upper, side="right"))
        i1 = max(i1, i0 + 2)
        i1 = min(i1, grid.m)
        window = 0.0
        for v in vals:
            window += float(np.max(np.abs(v[:, i0:i1])))
        window += float(np.max(quot[:, i0 : max(i0 + 1, i1 - 1)]))
        best = max(best, float(np.exp(-nu * rho[i0])) * window)
        if i1 == grid.m:
            break
    return best
