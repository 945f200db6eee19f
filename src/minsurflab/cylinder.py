"""Band-coefficient fields on 1-D grids and the band two-point solvers.

A BandField stores one real value per band and grid node: row l holds the
zonal coefficient of band l, l = 0..L, in the SphereField layout (row 0 the
constant band, row 1 the axial linear band, row l >= 2 the coefficient of
Z_l).  The grid is a UniformGrid in s on the half-cylinder or a RadialGrid
in log r on an annulus; all band solvers act row by row since the operators
on both are band-diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import BandSpectrum, SphereField, ZonalGrid


class GridError(ValueError):
    """Raised on incompatible grids."""


class UniformGrid:
    """Uniform s-grid [S, S_max] of the half-cylinder."""

    def __init__(self, s: np.ndarray):
        s = np.asarray(s, dtype=float)
        steps = np.diff(s)
        if s.size < 4 or np.any(steps <= 0):
            raise GridError("s-grid must be increasing with at least 4 nodes")
        if not np.allclose(steps, steps[0], rtol=1e-10, atol=1e-14):
            raise GridError("s-grid must be uniform")
        self.s = s
        self.nodes = s
        self.m = s.size
        self.step = float(s[1] - s[0])

    def d_rows(self, values: np.ndarray, index: int) -> np.ndarray:
        """d/ds of the rows at a node by the forward one-sided 2nd-order
        stencil, which needs the two nodes above it."""
        if not 0 <= index <= self.m - 3:
            raise GridError(f"no forward stencil at node {index} of {self.m}")
        v = values[:, index : index + 3]
        return (-3.0 * v[:, 0] + 4.0 * v[:, 1] - v[:, 2]) / (2 * self.step)


@dataclass
class BandField:
    """Band rows l = 0..L over a grid that provides m, nodes and d_rows."""

    spectrum: BandSpectrum
    grid: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        rows = self.spectrum.L + 1
        if self.values.shape != (rows, self.grid.m):
            raise GridError(f"values shape {self.values.shape} != ({rows}, {self.grid.m})")

    @classmethod
    def zeros(cls, spectrum: BandSpectrum, grid) -> "BandField":
        return cls(spectrum, grid, np.zeros((spectrum.L + 1, grid.m)))

    def _check(self, other: "BandField"):
        if self.spectrum is not other.spectrum and (
            self.spectrum.n != other.spectrum.n or self.spectrum.L != other.spectrum.L
        ):
            raise GridError("band fields live on different spectra")
        g, h = self.grid, other.grid
        if g is not h and (g.m != h.m or not np.allclose(g.nodes, h.nodes, atol=1e-12)):
            raise GridError("band fields live on different grids")

    def __add__(self, other: "BandField") -> "BandField":
        self._check(other)
        return BandField(self.spectrum, self.grid, self.values + other.values)

    def __sub__(self, other: "BandField") -> "BandField":
        self._check(other)
        return BandField(self.spectrum, self.grid, self.values - other.values)

    def trace(self, index: int) -> SphereField:
        """SphereField of the coefficient column at node `index`."""
        return SphereField(self.spectrum, self.values[:, index].copy())

    def d_trace(self, index: int) -> SphereField:
        """SphereField of the grid derivative of the rows at node `index`
        (d/ds on a UniformGrid, r d/dr = d/d rho on a RadialGrid).

        The rows are differentiated in the layout that spread band 1 over n
        rows: band 0, band 1, n - 1 zero rows, bands 2..L.  RadialGrid's
        matrix-vector product sums each row with a BLAS kernel chosen by
        the row's position, so this layout keeps every derivative
        bit-identical to the stored benchmark reference.
        """
        n, L = self.spectrum.n, self.spectrum.L
        spread = np.zeros((n + L, self.grid.m))
        spread[:2] = self.values[:2]
        spread[n + 1 :] = self.values[2:]
        d = self.grid.d_rows(spread, index)
        return SphereField(self.spectrum, np.r_[d[:2], d[n + 1 :]])


def collocation_from_rows(rows: np.ndarray, grid: ZonalGrid) -> np.ndarray:
    """Band rows on (band, node) -> values on (node, beta), the counterpart
    of rows_from_collocation.  Each node's values read only that node's rows."""
    vals = rows[0][:, None] + rows[1][:, None] * grid.t[None, :]
    if np.any(rows[2:]):
        vals = vals + rows[2:].T @ grid.Z[2:]
    return vals


def collocation_bound(rows: np.ndarray, grid: ZonalGrid) -> float:
    """An upper bound on max |collocation_from_rows(rows, grid)| read from
    the band rows alone: the largest over the nodes of sum_l |row_l| times
    the largest |Z_l| on the beta nodes (|t| for band 1, which
    collocation_from_rows multiplies by t), raised by a relative 1e-12 for
    the rounding of both sums.  A NaN row makes it NaN."""
    zmax = np.max(np.abs(grid.Z), axis=1)
    zmax[0] = 1.0
    zmax[1] = np.max(np.abs(grid.t))
    return float(np.max(zmax @ np.abs(rows))) * (1 + 1e-12)


def rows_from_collocation(vals: np.ndarray, grid: ZonalGrid) -> np.ndarray:
    """Collocation values on (node, beta) -> band rows on (band, node), by
    the grid's least-squares projector (ZonalGrid.proj)."""
    return (np.asarray(vals) @ grid.proj.T).T


# -- band two-point solvers ------------------------------------------------------


def solve_band_dirichlet_robin(
    vpot: np.ndarray, h: float, f: np.ndarray, robin_gamma: float
) -> np.ndarray:
    """Solve w'' + vpot w = f with w(S) = 0, w' = -robin_gamma w at S_max.

    The outgoing Robin condition selects the decaying indicial behavior at
    the truncated far end; eliminated with a ghost node at 2nd order.  The
    three diagonals go to LAPACK's dgtsv directly, the routine that scipy's
    solve_banded((1, 1), ...) runs on them, so the bits are its bits; its
    failures are kept too: a non-finite potential or f raises ValueError
    before the solve, and a singular system raises LinAlgError.
    """
    from scipy.linalg.lapack import dgtsv

    m = vpot.size
    rhs = np.array(f, dtype=float)
    rhs[0] = 0.0
    d = -2.0 / h**2 + vpot
    d[0] = 1.0
    # ghost elimination: w_{m} = w_{m-2} - 2 h g w_{m-1}
    d[-1] = (-2.0 - 2.0 * h * robin_gamma) / h**2 + vpot[-1]
    if not (np.isfinite(rhs).all() and np.isfinite(d).all()):
        raise ValueError("band rows or right-hand side not finite")
    du = np.full(m - 1, 1.0 / h**2)
    du[0] = 0.0
    dl = np.full(m - 1, 1.0 / h**2)
    dl[-1] = 2.0 / h**2
    _, _, _, w, info = dgtsv(dl, d, du, rhs, 1, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return w


def homogeneous_pair(vpot: np.ndarray, h: float, gamma: float):
    """Discrete homogeneous solutions (u_plus growing, u_minus decaying).

    u_minus is seeded at the top, where the decaying indicial behavior
    e^{-gamma s} is exact to the potential's truncation level, and recursed
    downward (the stable direction).  u_plus is generated from u_minus by
    the discrete reduction of order, which satisfies the same three-term
    recurrence with an exactly conserved Wronskian; seeding it directly can
    degenerate against u_minus when the seed rate matches a both-ways
    decaying Jacobi field.
    """
    m = vpot.size
    a = 2.0 - h**2 * vpot
    um = np.empty(m)
    um[-1] = 1.0
    um[-2] = np.exp(gamma * h)
    for i in range(m - 2, 0, -1):
        um[i - 1] = a[i] * um[i] - um[i + 1]
    um = um / np.max(np.abs(um))
    if np.min(np.abs(um)) == 0.0:
        raise ArithmeticError("decaying homogeneous solution has a node")
    W = max(2.0 * gamma, 1.0)
    up = np.empty(m)
    up[0] = 1.0
    for i in range(m - 1):
        up[i + 1] = (W * h + up[i] * um[i + 1]) / um[i]
    return up, um, W


def solve_band_decaying_kernel(pair: tuple, h: float, f: np.ndarray) -> np.ndarray:
    """Low-band solve by the double-decaying variation-of-parameters kernel.

    w_i = (h/W) sum_{j >= i} (u-_i u+_j - u+_i u-_j) f_j, the discrete
    analogue of integrating the sinh kernel from above, with
    pair = (u+, u-, W) from homogeneous_pair on the band's potential.  No
    trace may be imposed at S; the admissible decay excludes both
    homogeneous solutions.
    """
    up, um, W = pair
    # suffix sums of u+ f and u- f
    sp = np.cumsum((up * f)[::-1])[::-1] * h
    sm = np.cumsum((um * f)[::-1])[::-1] * h
    return (um * sp - up * sm) / W
