"""Band-spectral radial solves on annuli and punctured balls.

Fields over a polar domain are stored as band rows on a Chebyshev grid in
rho = log r, row l holding band l, where the graph operators are
band-diagonal for a radially symmetric background.  Every grid of m nodes
reads the one read-only Chebyshev matrix on [-1, 1] of that count, so the
three grids each glued level keeps (site patch, site exterior, neck chart)
hold no m x m matrix.  The linearized graph operator about a radial height
profile b(r) acts on band l as

    Lambda_l w = e^{-n rho} d_rho[ e^{(n-2) rho} w_rho / W^3 ] - lam_l e^{-2 rho} w / W,

with W = sqrt(1 + b'(r)^2).  Every radial problem of the glue is one
row-wise solve of Lambda_l w = f (solve_rows) with one condition per ring:

- Dirichlet data from a SphereField, entry l on row l;
- a rule giving each band l a Robin exponent p of w_rho = p w, or None for
  zero Dirichlet data: the regular selection p = l (regular), which pins
  the flat-model regular solution r^l and keeps the solve uniformly
  bounded as the inner radius shrinks; the decaying multipole
  p = 2 - n - l (decaying), the flat-model exterior solution r^{2-n-l};
  or the regular selection on bands l <= 1 and zero data on l >= 2
  (regular_low).

The neck annulus (solve_mixed) takes the regular selection on bands l <= 1
and zero Dirichlet data on bands l >= 2 at its inner ring, and Dirichlet
data at its outer ring.  The site exterior takes Dirichlet data at its
inner ring and the decaying multipole at its outer truncation.  The
interior ball takes the regular selection at its inner ring and Dirichlet
data at its outer ring.
"""

from __future__ import annotations

import numpy as np

from .cylinder import BandField, GridError
from .diffops import bary_interp_matrix, cheb_unit
from .spectral import BandSpectrum, SphereField


class RadialGrid:
    """Chebyshev collocation in log r on [r_in, r_out].

    A grid keeps its m nodes and the scale 2 / (rho_out - rho_in) of its
    interval; the d/d rho matrix is the shared m-node matrix on [-1, 1]
    (diffops.cheb_unit) times that scale, made on each read of D, and
    d_row makes one row of it alone.
    """

    def __init__(self, r_in: float, r_out: float, m: int):
        if not (0 < r_in < r_out):
            raise GridError("need 0 < r_in < r_out")
        a, b = np.log(r_in), np.log(r_out)
        self.rho = a + (cheb_unit(m)[0] + 1.0) * (b - a) / 2.0
        self.scale = 2.0 / (b - a)
        self.r = np.exp(self.rho)
        self.r_in = r_in
        self.r_out = r_out
        self.m = m
        self.nodes = self.rho

    @property
    def D(self) -> np.ndarray:
        """The d/d rho collocation matrix, a new (m, m) array."""
        return cheb_unit(self.m)[1] * self.scale

    def d_row(self, index: int) -> np.ndarray:
        """The row of D at a node, made without the rest of D."""
        return cheb_unit(self.m)[1][index] * self.scale

    def d_rows(self, values: np.ndarray, index: int) -> np.ndarray:
        """r d/dr ( = d/d rho ) of the rows at a node, spectrally accurate."""
        return values @ self.d_row(index)

    def interp_matrix(self, r_new: np.ndarray) -> np.ndarray:
        return bary_interp_matrix(self.rho, np.log(np.asarray(r_new, dtype=float)))


class BandOperator:
    """Band-diagonal linearized graph operator about a radial background."""

    def __init__(self, spectrum: BandSpectrum, grid: RadialGrid, db_dr: np.ndarray):
        self.spectrum = spectrum
        self.grid = grid
        n = spectrum.n
        rho, D = grid.rho, grid.D
        W = np.sqrt(1.0 + db_dr**2)
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
        out = np.empty_like(w.values)
        for ell in range(self.spectrum.L + 1):
            out[ell] = self._front * (self.matrix_scaled(ell) @ w.values[ell])
        return BandField(self.spectrum, self.grid, out)


def regular(spec: BandSpectrum) -> list:
    """Robin exponent p = l of the regular selection w_rho = l w, by band."""
    return list(range(spec.L + 1))


def decaying(spec: BandSpectrum) -> list:
    """Robin exponent p = 2 - n - l of the decaying multipole, by band."""
    return [2 - spec.n - ell for ell in range(spec.L + 1)]


def regular_low(spec: BandSpectrum) -> list:
    """The regular selection on bands l <= 1; None, zero Dirichlet data,
    on bands l >= 2."""
    return [ell if ell <= 1 else None for ell in range(spec.L + 1)]


def solve_rows(op: BandOperator, f: BandField | None, inner, outer) -> np.ndarray:
    """Rows of the band-wise solve of Lambda_l w = f, None meaning f = 0.

    inner and outer are the conditions at the first and the last node:
    Dirichlet data (a SphereField, None meaning zero data), or a rule
    (regular, decaying, regular_low) giving each band's Robin exponent p of
    w_rho = p w, None meaning zero Dirichlet data.
    """
    spec = op.spectrum
    rows = spec.L + 1
    rings = []
    for k, cond in ((0, inner), (-1, outer)):
        if callable(cond):
            rings.append((k, cond(spec), np.zeros(rows), op.grid.d_row(k)))
        else:
            rings.append((k, [None] * rows, np.zeros(rows) if cond is None else cond.c, None))
    out = np.empty((rows, op.grid.m))
    for ell in range(rows):
        A = op.matrix_scaled(ell).copy()
        rhs = np.zeros(op.grid.m) if f is None else f.values[ell] * op.row_scale
        for k, robin, data, d_row in rings:
            if robin[ell] is None:
                A[k, :] = 0.0
                A[k, k] = 1.0
            else:
                A[k, :] = d_row
                A[k, k] -= float(robin[ell])
            rhs[k] = data[ell]
        out[ell] = np.linalg.solve(A, rhs)
    return out


def solve_mixed(op: BandOperator, f: BandField, outer: SphereField | None = None) -> BandField:
    """The neck annulus solve: the regular selection on bands l <= 1 and
    zero Dirichlet data on bands l >= 2 at the inner ring, Dirichlet data
    outer (None meaning zero) at the outer ring."""
    return BandField(f.spectrum, f.grid, solve_rows(op, f, regular_low, outer))

