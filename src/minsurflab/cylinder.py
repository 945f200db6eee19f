"""Band-coefficient fields on 1-D grids and their weighted norms.

A BandField stores one real value per coefficient row and grid node.  Rows
follow the SphereField layout: row 0 is the constant band, rows 1..n the n
components of the linear band, rows n+1..n+L-1 the zonal bands 2..L.  The
grid is a UniformGrid in s on the half-cylinder or a RadialGrid in log r on
an annulus; all band solvers act row by row since the operators on both are
band-diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import BandSpectrum, SphereField, ZonalGrid


class GridError(ValueError):
    """Raised on incompatible grids."""


def row_bands(spectrum: BandSpectrum) -> np.ndarray:
    """Band index l of each coefficient row."""
    n, L = spectrum.n, spectrum.L
    return np.concatenate([[0], np.full(n, 1), np.arange(2, L + 1)])


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
        self.S = float(s[0])

    def d_rows(self, values: np.ndarray, index: int) -> np.ndarray:
        """d/ds of the rows at a node by the forward one-sided 2nd-order
        stencil, which needs the two nodes above it."""
        if not 0 <= index <= self.m - 3:
            raise GridError(f"no forward stencil at node {index} of {self.m}")
        v = values[:, index : index + 3]
        return (-3.0 * v[:, 0] + 4.0 * v[:, 1] - v[:, 2]) / (2 * self.step)


@dataclass
class BandField:
    """Band rows over a grid that provides m, nodes and d_rows."""

    spectrum: BandSpectrum
    grid: object
    values: np.ndarray
    pole: np.ndarray = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        rows = self.spectrum.row_count()
        if self.values.shape != (rows, self.grid.m):
            raise GridError(f"values shape {self.values.shape} != ({rows}, {self.grid.m})")
        if self.pole is None:
            pole = np.zeros(self.spectrum.n)
            pole[0] = 1.0
            self.pole = pole
        else:
            self.pole = np.asarray(self.pole, dtype=float)

    @classmethod
    def zeros(cls, spectrum: BandSpectrum, grid, pole=None) -> "BandField":
        return cls(spectrum, grid, np.zeros((spectrum.row_count(), grid.m)), pole=pole)

    def copy(self) -> "BandField":
        return BandField(self.spectrum, self.grid, self.values.copy(), self.pole.copy())

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
        return BandField(self.spectrum, self.grid, self.values + other.values, self.pole)

    def __sub__(self, other: "BandField") -> "BandField":
        self._check(other)
        return BandField(self.spectrum, self.grid, self.values - other.values, self.pole)

    def __mul__(self, a: float) -> "BandField":
        return BandField(self.spectrum, self.grid, a * self.values, self.pole)

    __rmul__ = __mul__

    def _sphere(self, col: np.ndarray) -> SphereField:
        n = self.spectrum.n
        return SphereField(self.spectrum, col[: n + 1].copy(), col[n + 1 :].copy(), self.pole)

    def trace(self, index: int = 0) -> SphereField:
        """SphereField of the coefficient column at node `index`."""
        return self._sphere(self.values[:, index])

    def d_trace(self, index: int = 0) -> SphereField:
        """SphereField of the grid derivative of the rows at node `index`
        (d/ds on a UniformGrid, r d/dr = d/d rho on a RadialGrid)."""
        return self._sphere(self.grid.d_rows(self.values, index))


def axial_collocation(f, grid: ZonalGrid) -> np.ndarray:
    """Point values of the zonal plus axial-linear content of band rows.

    f is any BandField; returns values on (node, beta).
    """
    return collocation_from_rows(f.values, f.pole, grid)


def collocation_from_rows(rows: np.ndarray, pole: np.ndarray, grid: ZonalGrid) -> np.ndarray:
    """Band rows on (row, node) -> values on (node, beta), the counterpart of
    rows_from_collocation.  Each node's values read only that node's rows."""
    n = grid.n
    axial = rows[1 : n + 1].T @ pole
    vals = rows[0][:, None] + axial[:, None] * grid.t[None, :]
    if np.any(rows[n + 1 :]):
        vals = vals + rows[n + 1 :].T @ grid.Z[2:]
    return vals


def rows_from_collocation(vals: np.ndarray, pole: np.ndarray, grid: ZonalGrid) -> np.ndarray:
    """Collocation values on (node, beta) -> band rows (axial band 1 only)."""
    n = grid.n
    coeffs = grid.to_bands(vals)  # (nodes, L+1)
    rows = np.zeros((1 + n + (grid.L - 1), vals.shape[0]))
    rows[0] = coeffs[:, 0]
    rows[1 : n + 1] = np.outer(pole, coeffs[:, 1])
    rows[n + 1 :] = coeffs[:, 2:].T
    return rows


def norm_exp(w: BandField, k: int, alpha: float, delta: float, S: float | None = None) -> float:
    """Discrete surrogate of the exponentially weighted Hoelder norm.

    Supremum over unit s-windows of e^{-delta s} times the sum of maxima of
    finite-difference derivatives up to order k plus a pairwise Hoelder
    quotient of the k-th derivative over node pairs at distance in
    [step, 3*step].  The weight uses the window start.  Windows
    [i0, min(m, i0+win+1)), win = max(2, round(1/step)), start at every node
    at or beyond S, and the sweep ends at the first window that reaches the
    end of the grid; the quotient window is one node shorter.  The norm is
    0.0 when no node lies at or beyond S.

    A maximum over rows and nodes may be taken in either order, so each term
    is reduced to its column maximum over rows first and then to a running
    maximum over the window starts: O(rows * m), and bit-identical to
    slicing every window.  Raises ValueError on non-finite values and on a
    non-finite norm (the weight overflows when -delta s exceeds about 709.78).
    """
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1, or 2")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    s = w.grid.s
    h = w.grid.step
    if S is None:
        S = float(s[0])
    vals = w.values
    if not np.all(np.isfinite(vals)):
        raise ValueError("norm_exp of a field with non-finite values")
    derivs = [vals]
    cur = vals
    for _ in range(k):
        d = np.gradient(cur, h, axis=1)
        derivs.append(d)
        cur = d
    win = max(2, int(round(1.0 / h)))
    top = derivs[k]
    # pairwise quotients at index offsets 1..3 (distances h..3h)
    quot = np.zeros_like(top)
    for off in (1, 2, 3):
        if top.shape[1] > off:
            q = np.abs(top[:, off:] - top[:, :-off]) / (off * h) ** alpha
            quot[:, : q.shape[1]] = np.maximum(quot[:, : q.shape[1]], q)
    m = s.size
    first = int(np.searchsorted(s, S - 1e-12))
    if first >= m:
        return 0.0
    cols = [np.max(np.abs(d), axis=0) for d in derivs]
    qcol = np.max(quot, axis=0)
    if first + win + 1 > m:
        # a single window, cut short by the end of the grid
        starts = s[first : first + 1]
        terms = [c[first:].max(keepdims=True) for c in cols]
        terms.append(qcol[first : max(first + 1, m - 1)].max(keepdims=True))
    else:
        starts = s[first : m - win]
        terms = [_forward_max(c[first:], win + 1, starts.size) for c in cols]
        terms.append(_forward_max(qcol[first:], win, starts.size))
    # added in one fixed order: 0.0 + values (+ first and second
    # derivative) + quotient
    window_val = 0.0
    for t in terms:
        window_val = window_val + t
    with np.errstate(over="ignore", invalid="ignore"):
        best = float(np.max(np.exp(-delta * starts) * window_val))
    if not np.isfinite(best):
        raise ValueError(
            f"norm_exp is not finite for delta={delta}, largest window start "
            f"s={float(starts[-1])}; the weight e^(-delta s) overflows once -delta s "
            "exceeds about 709.78"
        )
    return best


def _forward_max(col: np.ndarray, size: int, count: int) -> np.ndarray:
    """max(col[i : i + size]) for i = 0..count-1; every window lies inside col.

    Running maxima forward and backward within blocks of `size` nodes (van
    Herk, Gil & Werman): a window spans at most two blocks, so its maximum
    is the backward maximum at its start and the forward one at its end.
    """
    blocks = np.full(-(-col.size // size) * size, -np.inf)
    blocks[: col.size] = col
    blocks = blocks.reshape(-1, size)
    fwd = np.maximum.accumulate(blocks, axis=1).ravel()
    bwd = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(bwd[:count], fwd[size - 1 : size - 1 + count])


# -- band two-point solvers ------------------------------------------------------


def solve_band_dirichlet_robin(
    vpot: np.ndarray, h: float, f: np.ndarray, left_value: float, robin_gamma: float
) -> np.ndarray:
    """Solve w'' + vpot w = f with w(S)=left_value, w' = -robin_gamma w at S_max.

    The outgoing Robin condition selects the decaying indicial behavior at
    the truncated far end; eliminated with a ghost node at 2nd order.
    """
    from scipy.linalg import solve_banded

    m = vpot.size
    ab = np.zeros((3, m))
    rhs = np.array(f, dtype=float)
    ab[1, 0] = 1.0
    ab[0, 1] = 0.0
    rhs[0] = left_value
    ab[0, 2:] = 1.0 / h**2
    ab[1, 1:-1] = -2.0 / h**2 + vpot[1:-1]
    ab[2, :-2] = 1.0 / h**2
    # ghost elimination: w_{m} = w_{m-2} - 2 h g w_{m-1}
    g = robin_gamma
    ab[1, -1] = (-2.0 - 2.0 * h * g) / h**2 + vpot[-1]
    ab[2, -2] = 2.0 / h**2
    return solve_banded((1, 1), ab, rhs)


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
