"""Mean curvature and second fundamental form of zonally symmetric charts.

Every chart in this laboratory is invariant under the rotations of R^n that
fix the chart's pole axis, so it is generated by a 2-surface in the flat
orbit space (x_q, rho, x_v): x_q along the pole, rho the distance to the
pole axis within the horizontal R^n, x_v the vertical.  For such a
hypersurface

    H = (G L - 2 F M + E NN)/(E G - F^2) - (n - 2) (N . e_rho) / rho,

the first group being the curvature trace of the generating 2-surface in
R^3 and the second the n-2 rotational principal curvatures.  The overall
sign follows the parametrization orientation; minimal charts are
orientation-free since H = 0.

Angular derivatives are exact (trig differentiation in the colatitude on
the ZonalGrid); the profile direction uses finite differences, so the
engine's only discretization error is the profile-direction truncation.

The engine walks a chart in blocks of BLOCK rows, so its temporaries stay
the size of one block rather than of the whole chart.  A uniform-grid chart
is differenced block by block: each block fetches its own rows plus a halo
as wide as the stencil reaches (widened at the chart's ends to the fewest
rows a one-sided stencil takes) and makes one fd_derivative call per
derivative order over all three components, so neither P_a nor P_aa is held
for the whole chart.  Such a chart may be given as a row function
points(lo, hi), so that not even P is held whole.  A dense-collocation chart
(D1 @ F couples every row) takes P_a and P_aa once over all rows and walks
their blocks.  A block then takes two batched d_beta calls, each over all
three components: one forward FFT of P gives P_b and P_bb, one of P_a gives
P_ab, and each derivative takes one inverse FFT.  Each row's stencil, FFT
and elementwise form is independent of the block it is computed in, so the
blocked result is bit-identical to a whole-chart evaluation with one d_beta
call per component and derivative.

Every block's forms are written with out= into the BlockBuffers of its
grid's size m, the number of beta nodes: one set per m, made by the first
walk on such a grid and kept in _BUFFERS.  A block's beta derivatives and
unit normal are then views into the set, valid until the next block of any
walk on a grid of that size.  The engine reads them before it asks its walk
for the next block, so walks may interleave block by block and a row
function may walk a chart of its own; any other caller of fundamental_forms
must read them as soon.  No code in the package starts a thread.

The unit normal is held component-first, (3, rows, m), each component
contiguous as _cross writes it.  Its sums over the components are written
out in the orders numpy 2.4.6's einsum takes on the component-last normal
that np.cross stores: |N|^2 = (N0^2 + N2^2) + N1^2, and L, M and NN are
(a0 N0 + a1 N1) + a2 N2 (_dot).  The stored bench reference was recorded in
those orders; einsum over a contiguous component-first normal sums
(x0 + x1) + x2, which moves the last bits of |N| and, through the glue's
fixed points, the outputs (tests/test_geometry.py pins both orders).  E, F
and G stay einsums of component-first operands.

mean_curvature and second_fundamental_sq return the whole chart's values.
The oracles need only sup |H| away from the chart's ends, and block_peaks
yields it block by block from the same per-block H, so an oracle on a
row-function chart holds nothing the size of the chart.  A row's H reads
the chart only on the rows its stencils reach (at most 5 rows away, by the
order-4 one-sided stencils at the chart's ends), so two charts that agree
on those rows give it the same bits.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .diffops import fd_derivative
from .spectral import ZonalGrid

# rows per block of the derivatives, forms and curvatures
BLOCK = 128

# fewest rows fd_derivative's one-sided stencils take, by order
_FD_LEAST = {2: 4, 4: 7}

# parities of (x_q, rho, x_v) under reflection through the pole axis, shaped
# to broadcast over a (3, rows, Nb) block
_ORBIT_PARITY = np.array([1.0, -1.0, 1.0]).reshape(3, 1, 1)


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a x b over axis 0, written into out component-first, each component
    contiguous."""
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(a[i], b[j], out=out[c])
        out[c] -= a[j] * b[i]
    return out


def _dot(a: np.ndarray, N: np.ndarray) -> np.ndarray:
    """(a0 N0 + a1 N1) + a2 N2, the order einsum took with the normal
    component-last."""
    s = a[0] * N[0]
    s += a[1] * N[1]
    s += a[2] * N[2]
    return s


def _chart(P, grid: ZonalGrid) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 3 or P.shape[0] != 3 or P.shape[2] != grid.t.size:
        raise ValueError("P must have shape (3, Na, len(grid.beta))")
    return P


def _fd_blocks(points, rows: int, h: float, order: int):
    """(rows, P, P_a, P_aa) per block of a uniform-grid chart, each block
    differenced on its own rows plus a halo of order // 2 rows, widened at
    the chart's ends to the _FD_LEAST rows a one-sided stencil takes: every
    row then meets the stencil it meets in the whole chart."""
    reach, least = order // 2, _FD_LEAST[order]
    for lo in range(0, rows, BLOCK):
        hi = min(lo + BLOCK, rows)
        a, b = max(0, lo - reach), min(rows, hi + reach)
        a, b = min(a, max(0, b - least)), max(b, min(rows, a + least))
        W = points(a, b)
        cut = slice(lo - a, hi - a)
        yield (slice(lo, hi), W[:, cut], fd_derivative(W, h, -2, 1, order)[:, cut],
               fd_derivative(W, h, -2, 2, order)[:, cut])


def _matrix_blocks(P: np.ndarray, D1: np.ndarray, DD: np.ndarray):
    """(rows, P, P_a, P_aa) per block of a collocation chart, P_a and P_aa
    taken once over all rows."""
    Pa = np.stack([D1 @ P[i] for i in range(3)])
    Paa = np.stack([DD @ P[i] for i in range(3)])
    for lo in range(0, P.shape[1], BLOCK):
        rows = slice(lo, lo + BLOCK)
        yield rows, P[:, rows], Pa[:, rows], Paa[:, rows]


class BlockBuffers:
    """Scratch for the forms of one block of at most BLOCK rows on a grid
    of m beta nodes: d_beta's 2m-point extension and its two spectra, the
    beta derivatives P_b, P_bb and P_ab (2m points each, the forms reading
    [..., :m]), and the unit normal, component-first with each component
    contiguous, as _cross writes it: 1.9 MB at m = 48.

    _BUFFERS holds one set per m, shared by every walk on a grid of that
    size: a block's forms stay valid until the next block of any of them."""

    def __init__(self, m: int):
        self.ext = np.empty((3, BLOCK, 2 * m))
        self.spec = np.empty((3, BLOCK, m + 1), dtype=complex)
        self.spec_d = np.empty((3, BLOCK, m + 1), dtype=complex)
        self.derivs = np.empty((3, 3, BLOCK, 2 * m))
        self.normal = np.empty((3, BLOCK, m))

    def first_rows(self, r: int) -> tuple:
        """(d_beta's buffers for P_b and P_bb, its buffers for P_ab, the
        normal's) on the first r rows of a block."""
        work = (self.ext[:, :r], self.spec[:, :r], self.spec_d[:, :r])
        Pb, Pbb, Pab = self.derivs[:, :, :r]
        return work + (Pb, Pbb), work + (Pab,), self.normal[:, :r]


# the BlockBuffers of each grid size m, made by the first walk on such a grid
_BUFFERS: dict = {}


class OrbitSurface:
    """2-parameter orbit generator P(a, beta) -> (x_q, rho, x_v) on `rows`
    values of a and the beta nodes of grid.

    walk() yields (rows, P, P_a, P_aa) for each block of BLOCK rows, the
    first-parameter derivatives taken by the chart's own stencil or matrix;
    solver and oracle paths pass different ones, keeping verification
    independent.  uniform_surface and matrix_surface build the walk; the
    beta derivatives, the forms and the curvatures follow block by block,
    in the BlockBuffers of the grid's size.
    """

    def __init__(self, rows: int, grid: ZonalGrid, walk):
        self.rows = rows
        self.grid = grid
        self.walk = walk

    def _blocks(self):
        """Yield (rows, P of those rows, det = E G - F^2, the curvature trace
        (G L - 2 F M + E NN) / det of the generating 2-surface, L, M, NN and
        the unit normal) block by block."""
        for rows, P, Pa, Paa in self.walk():
            E, F, G, L, M, NN, Nvec = self.fundamental_forms(P, Pa, Paa)
            det = E * G - F * F
            yield rows, P, det, (G * L - 2 * F * M + E * NN) / det, L, M, NN, Nvec

    def fundamental_forms(self, P, Pa, Paa):
        """E, F, G, L, M, NN and the unit normal of the rows of one block;
        the normal is a view into _BUFFERS, valid until the next block of
        any walk on a grid of this size."""
        m = self.grid.t.size
        if m not in _BUFFERS:
            _BUFFERS[m] = BlockBuffers(m)
        into_P, into_Pa, normal = _BUFFERS[m].first_rows(P.shape[1])
        Pb, Pbb = self.grid.d_beta(P, _ORBIT_PARITY, (1, 2), buffers=into_P)
        Pab, = self.grid.d_beta(Pa, _ORBIT_PARITY, (1,), buffers=into_Pa)
        Nvec = _cross(Pa, Pb, normal)
        E = np.einsum("kij,kij->ij", Pa, Pa)
        F = np.einsum("kij,kij->ij", Pa, Pb)
        G = np.einsum("kij,kij->ij", Pb, Pb)
        # (N0^2 + N2^2) + N1^2, einsum's order on a component-last normal
        norm = Nvec[0] * Nvec[0]
        norm += Nvec[2] * Nvec[2]
        norm += Nvec[1] * Nvec[1]
        np.divide(Nvec, np.sqrt(norm, out=norm), out=Nvec)
        L, M, NN = _dot(Paa, Nvec), _dot(Pab, Nvec), _dot(Pbb, Nvec)
        return E, F, G, L, M, NN, Nvec

    def _mean_curvature_blocks(self, n: int):
        """Yield (rows, H of those rows) block by block."""
        for rows, P, _, h2, _, _, _, Nvec in self._blocks():
            yield rows, h2 - (n - 2) * Nvec[1] / P[1]

    def mean_curvature(self, n: int) -> np.ndarray:
        H = np.empty((self.rows, self.grid.t.size))
        for rows, Hb in self._mean_curvature_blocks(n):
            H[rows] = Hb
        return H

    def block_peaks(self, n: int, margin: int):
        """Yield (rows, sup |H| over those of the block's rows that lie in
        margin <= i < rows - margin) for each block that has such rows, as
        np.max((Hb.max(), -Hb.min())), so a NaN in the block is its peak.
        An empty interior raises ValueError, as np.max does."""
        lo, hi = margin, self.rows - margin
        if lo >= hi:
            raise ValueError(f"no rows inside the margin {margin} of {self.rows} rows")
        for rows, Hb in self._mean_curvature_blocks(n):
            a, b = max(lo, rows.start), min(hi, rows.stop)
            if a < b:
                Hb = Hb[a - rows.start:b - rows.start]
                yield rows, np.max((Hb.max(), -Hb.min()))

    def max_abs_mean_curvature(self, n: int, margin: int) -> float:
        """sup |H| over the rows margin <= i < rows - margin: the bits of
        np.max(np.abs(H[margin:rows - margin])) without holding H.  np.max
        keeps the running maximum of the block peaks, so a NaN stays NaN."""
        top = -np.inf
        for _, peak in self.block_peaks(n, margin):
            top = np.max((top, peak))
        return float(top)

    def second_fundamental_sq(self, n: int) -> np.ndarray:
        """|A|^2 = kappa_1^2 + kappa_2^2 + (n - 2) kappa_rot^2."""
        A2 = np.empty((self.rows, self.grid.t.size))
        for rows, P, det, tr, L, M, NN, Nvec in self._blocks():
            dt = (L * NN - M * M) / det
            disc = np.clip(tr * tr - 4 * dt, 0.0, None)
            k1 = 0.5 * (tr + np.sqrt(disc))
            k2 = 0.5 * (tr - np.sqrt(disc))
            krot = -Nvec[1] / P[1]
            A2[rows] = k1 * k1 + k2 * k2 + (n - 2) * krot * krot
        return A2


def _array_rows(P: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return P[:, lo:hi]


def uniform_surface(P, grid: ZonalGrid, h: float, order: int = 2,
                    rows: int | None = None) -> OrbitSurface:
    """OrbitSurface whose first parameter lives on a uniform grid of step h,
    differenced by fd_derivative's stencils of the given order block by block.

    P is the chart as an array (3, Na, len(grid.beta)), or as a row function
    points(lo, hi) that returns the chart's rows lo:hi, with Na given as rows;
    a row function is called once per block, so the whole chart is never
    held.
    """
    if not callable(P):
        P = _chart(P, grid)
        rows = P.shape[1]
        P = partial(_array_rows, P)
    return OrbitSurface(rows, grid, partial(_fd_blocks, P, rows, h, order))


def matrix_surface(P, grid: ZonalGrid, D1: np.ndarray) -> OrbitSurface:
    """OrbitSurface differentiated by a dense collocation matrix (axis 0)."""
    P = _chart(P, grid)
    return OrbitSurface(P.shape[1], grid, partial(_matrix_blocks, P, D1, D1 @ D1))


def graph_orbit_points(r: np.ndarray, grid: ZonalGrid, height: np.ndarray) -> np.ndarray:
    """Orbit generator of a height graph over polar coordinates x = r theta."""
    R = r[:, None]
    return np.stack([R * grid.t[None, :], R * grid.sinb[None, :], height])
