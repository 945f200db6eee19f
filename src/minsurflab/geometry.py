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

The profile-direction derivatives are taken once over all rows, since their
stencils (or collocation matrix) couple neighbouring rows.  Everything else
is row-local, so the angular derivatives, the forms and the curvatures are
evaluated over blocks of BLOCK rows, and the temporaries stay the size of
one block rather than of the whole chart.  A block takes two batched d_beta
calls, each over all three components: one forward FFT of P gives P_b and
P_bb, one of P_a gives P_ab, and each derivative takes one inverse FFT.
Each row's FFT and each elementwise form is independent of the batch it is
computed in, so the blocked result is bit-identical to a whole-chart
evaluation with one d_beta call per component and derivative.
"""

from __future__ import annotations

import numpy as np

from .diffops import fd_derivative
from .spectral import ZonalGrid

# rows per block of the angular derivatives and forms
BLOCK = 128

# parities of (x_q, rho, x_v) under reflection through the pole axis, shaped
# to broadcast over a (3, rows, Nb) block
_ORBIT_PARITY = np.array([1.0, -1.0, 1.0]).reshape(3, 1, 1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over axis 0, stored component-last as np.cross(a, b, axis=0)
    stores it: the layout fixes the order in which einsum sums over the
    components, and with it the last bits of the forms."""
    out = np.empty(a.shape[1:] + (3,))
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(a[i], b[j], out=out[..., c])
        out[..., c] -= a[j] * b[i]
    return out.transpose(2, 0, 1)


class OrbitSurface:
    """2-parameter orbit generator P(a, beta) -> (x_q, rho, x_v).

    P has shape (3, Na, Nb) with the beta axis last, sampled on grid.beta.
    d_a / d_aa differentiate along the first parameter; solver and oracle
    paths pass different stencils, keeping verification independent.  They
    are applied once to the whole chart; the beta derivatives, the forms and
    the curvatures follow block by block over BLOCK rows.
    """

    def __init__(self, P, grid: ZonalGrid, d_a, d_aa):
        self.P = np.asarray(P, dtype=float)
        if self.P.shape[0] != 3 or self.P.shape[2] != grid.t.size:
            raise ValueError("P must have shape (3, Na, len(grid.beta))")
        self.grid = grid
        self.d_a = d_a
        self.d_aa = d_aa

    def _blocks(self):
        """Yield (rows, forms of those rows) over blocks of BLOCK rows."""
        P = self.P
        Pa = np.stack([self.d_a(P[i]) for i in range(3)])
        Paa = np.stack([self.d_aa(P[i]) for i in range(3)])
        for start in range(0, P.shape[1], BLOCK):
            rows = slice(start, start + BLOCK)
            yield rows, self.fundamental_forms(P[:, rows], Pa[:, rows], Paa[:, rows])

    def fundamental_forms(self, P, Pa, Paa):
        """E, F, G, L, M, NN and the unit normal of the rows of one block."""
        Pb, Pbb = self.grid.d_beta(P, _ORBIT_PARITY, (1, 2))
        Pab = self.grid.d_beta(Pa, _ORBIT_PARITY)
        E = np.einsum("kij,kij->ij", Pa, Pa)
        F = np.einsum("kij,kij->ij", Pa, Pb)
        G = np.einsum("kij,kij->ij", Pb, Pb)
        Nvec = _cross(Pa, Pb)
        norm = np.sqrt(np.einsum("kij,kij->ij", Nvec, Nvec))
        Nvec = Nvec / norm
        L = np.einsum("kij,kij->ij", Paa, Nvec)
        M = np.einsum("kij,kij->ij", Pab, Nvec)
        NN = np.einsum("kij,kij->ij", Pbb, Nvec)
        return E, F, G, L, M, NN, Nvec

    def mean_curvature(self, n: int) -> np.ndarray:
        H = np.empty(self.P.shape[1:])
        for rows, (E, F, G, L, M, NN, Nvec) in self._blocks():
            det = E * G - F * F
            h2 = (G * L - 2 * F * M + E * NN) / det
            H[rows] = h2 - (n - 2) * Nvec[1] / self.P[1, rows]
        return H

    def second_fundamental_sq(self, n: int) -> np.ndarray:
        """|A|^2 = kappa_1^2 + kappa_2^2 + (n - 2) kappa_rot^2."""
        A2 = np.empty(self.P.shape[1:])
        for rows, (E, F, G, L, M, NN, Nvec) in self._blocks():
            det = E * G - F * F
            tr = (G * L - 2 * F * M + E * NN) / det
            dt = (L * NN - M * M) / det
            disc = np.clip(tr * tr - 4 * dt, 0.0, None)
            k1 = 0.5 * (tr + np.sqrt(disc))
            k2 = 0.5 * (tr - np.sqrt(disc))
            krot = -Nvec[1] / self.P[1, rows]
            A2[rows] = k1 * k1 + k2 * k2 + (n - 2) * krot * krot
        return A2


def uniform_surface(P, grid: ZonalGrid, h: float, order: int = 2) -> OrbitSurface:
    """OrbitSurface whose first parameter lives on a uniform grid."""
    return OrbitSurface(
        P,
        grid,
        d_a=lambda F: fd_derivative(F, h, 0, 1, order),
        d_aa=lambda F: fd_derivative(F, h, 0, 2, order),
    )


def matrix_surface(P, grid: ZonalGrid, D1: np.ndarray) -> OrbitSurface:
    """OrbitSurface differentiated by a dense collocation matrix (axis 0)."""
    DD = D1 @ D1
    return OrbitSurface(
        P,
        grid,
        d_a=lambda F: D1 @ F,
        d_aa=lambda F: DD @ F,
    )


def graph_orbit_points(r: np.ndarray, grid: ZonalGrid, height: np.ndarray) -> np.ndarray:
    """Orbit generator of a height graph over polar coordinates x = r theta."""
    R = r[:, None]
    return np.stack([R * grid.t[None, :], R * grid.sinb[None, :], height])
