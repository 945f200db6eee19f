"""Differentiation operators shared by the solvers and their oracles.

Uniform-grid finite differences at orders 2 and 4, Chebyshev collocation
nodes with their differentiation matrix (one read-only pair on [-1, 1] per
node count, which every grid of that count maps to its own interval),
barycentric differentiation on arbitrary node sets (used for the Gauss
colatitude grid), and the not-a-knot cubic spline that resamples profile
tables and band rows.
"""

from __future__ import annotations

import numpy as np

# order-4 one-sided stencils of the first two rows, times 12 h (first
# derivative) or 12 h^2 (second); the last two rows take them mirrored
_D1_ORDER4_ENDS = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                            [-3.0, -10.0, 18.0, -6.0, 1.0]])
_D2_ORDER4_ENDS = np.array([[45.0, -154.0, 214.0, -156.0, 61.0, -10.0],
                            [10.0, -15.0, -4.0, 14.0, -6.0, 1.0]])


def _order4_ends(F: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The one-sided rows of both ends at once: [r, 0] is sum_k C[r, k] F[k]
    and [r, 1] is sum_k C[r, k] F[-1 - k], each summed term by term from 0
    in k, the order sum() takes."""
    K = C.shape[1]
    rows = np.stack((F[:K], F[:-K - 1:-1]), axis=1)
    C = C.reshape(C.shape + (1,) * F.ndim)
    acc = 0
    for k in range(K):
        acc = acc + C[:, k] * rows[k]
    return acc


def fd_derivative(F: np.ndarray, h: float, axis: int, deriv: int, order: int) -> np.ndarray:
    """Finite-difference derivative along an axis of a uniform grid.

    Interior stencils are centered; boundary nodes use one-sided stencils of
    the same order.  order 2 needs >= deriv+2 nodes, order 4 needs >= 6.
    The stencils run along axis 0 of F.swapaxes(axis, 0): for a 2-D array
    and for the middle axis of a 3-D one that is moveaxis's view at a
    twentieth of its cost.
    """
    F = np.asarray(F, dtype=float).swapaxes(axis, 0)
    m = F.shape[0]
    out = np.empty_like(F)
    if deriv == 1 and order == 2:
        out[1:-1] = (F[2:] - F[:-2]) / (2 * h)
        out[0] = (-3 * F[0] + 4 * F[1] - F[2]) / (2 * h)
        out[-1] = (3 * F[-1] - 4 * F[-2] + F[-3]) / (2 * h)
    elif deriv == 2 and order == 2:
        out[1:-1] = (F[2:] - 2 * F[1:-1] + F[:-2]) / h**2
        out[0] = (2 * F[0] - 5 * F[1] + 4 * F[2] - F[3]) / h**2
        out[-1] = (2 * F[-1] - 5 * F[-2] + 4 * F[-3] - F[-4]) / h**2
    elif deriv == 1 and order == 4:
        if m < 6:
            raise ValueError("order-4 stencils need at least 6 nodes")
        out[2:-2] = (F[:-4] - 8 * F[1:-3] + 8 * F[3:-1] - F[4:]) / (12 * h)
        ends = _order4_ends(F, _D1_ORDER4_ENDS / (12 * h))
        out[:2] = ends[:, 0]
        out[:-3:-1] = -ends[:, 1]
    elif deriv == 2 and order == 4:
        if m < 7:
            raise ValueError("order-4 second derivatives need at least 7 nodes")
        out[2:-2] = (-F[:-4] + 16 * F[1:-3] - 30 * F[2:-2] + 16 * F[3:-1] - F[4:]) / (12 * h**2)
        ends = _order4_ends(F, _D2_ORDER4_ENDS / (12 * h**2))
        out[:2] = ends[:, 0]
        out[:-3:-1] = ends[:, 1]
    else:
        raise ValueError(f"unsupported deriv={deriv}, order={order}")
    return out.swapaxes(0, axis)


# the Chebyshev nodes and d/dx matrix on [-1, 1] of each node count m,
# made by the first grid of m nodes and read-only
_CHEBYSHEV: dict = {}


def cheb_unit(m: int) -> tuple:
    """Chebyshev collocation nodes, ascending on [-1, 1], and the d/dx
    matrix on them: one read-only pair per m, which a grid on [a, b] maps
    by a + (x + 1) (b - a) / 2 and scales by 2 / (b - a)."""
    if m not in _CHEBYSHEV:
        if m < 2:
            raise ValueError("need at least 2 Chebyshev nodes")
        N = m - 1
        k = np.arange(m)
        x = np.cos(np.pi * k / N)  # descending on [-1, 1]
        c = np.ones(m)
        c[0] = 2.0
        c[-1] = 2.0
        c = c * (-1.0) ** k
        X = np.tile(x, (m, 1)).T
        dX = X - X.T
        D = np.outer(c, 1.0 / c) / (dX + np.eye(m))
        D -= np.diag(D.sum(axis=1))
        # flip to ascending
        pair = (x[::-1].copy(), D[::-1, ::-1].copy())
        for a in pair:
            a.flags.writeable = False
        _CHEBYSHEV[m] = pair
    return _CHEBYSHEV[m]


def bary_weights(x: np.ndarray) -> np.ndarray:
    """Barycentric weights 1 / prod_{k != j} (x_j - x_k), each difference
    scaled by 4 / (max x - min x) for stability."""
    x = np.asarray(x, dtype=float)
    m = x.size
    rng = x.max() - x.min()
    d = (x[:, None] - x[None, :])[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    return 1.0 / np.prod(d * 4.0 / rng, axis=1)


def bary_interp_matrix(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Interpolation matrix from values on nodes x to points xi."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    w = bary_weights(x)
    d = xi[:, None] - x[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = w / d
        P = q / q.sum(axis=1)[:, None]
    # a point within 1e-14 of a node takes that node's value: the first such
    # node's one-hot row
    near = np.abs(d) < 1e-14
    hit = near.any(axis=1)
    P[hit] = 0.0
    P[hit, near[hit].argmax(axis=1)] = 1.0
    return P


class NotAKnotSpline:
    """Not-a-knot cubic spline through (x, y), interpolating along y's last
    axis; calling it at points xi returns y.shape[:-1] + xi.shape values.

    The construction repeats scipy 1.17.1's ``CubicSpline(x, y, axis=-1)``
    step by step, with the same banded solve, and the evaluation repeats
    ``PPoly``'s interval rule and summation order, so the values are the
    same bits.  Points outside [x[0], x[-1]] extrapolate the end pieces.
    """

    def __init__(self, x, y):
        from scipy.linalg import solve_banded

        x = np.asarray(x, dtype=float)
        y = np.moveaxis(np.asarray(y, dtype=float), -1, 0)
        if x.ndim != 1 or x.size < 4 or y.shape[0] != x.size:
            raise ValueError("a not-a-knot spline needs at least 4 knots, one per value")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("spline knots and values must be finite")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("spline knots must be strictly increasing")
        n = x.size
        dxr = dx.reshape([dx.shape[0]] + [1] * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr

        # slopes s at the knots: the tridiagonal system in band storage
        A = np.zeros((3, n))
        b = np.empty((n,) + y.shape[1:])
        A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        A[0, 2:] = dx[:-1]
        A[-1, :-2] = dx[1:]
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        # not-a-knot: the third derivative is continuous at x[1] and x[-2]
        d = x[2] - x[0]
        A[1, 0] = dx[1]
        A[0, 1] = d
        b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        A[1, -1] = dx[-2]
        A[-1, -2] = d
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        s = solve_banded((1, 1), A, b.reshape(n, -1), overwrite_ab=True,
                         overwrite_b=True, check_finite=False).reshape(b.shape)

        # Hermite coefficients per piece, highest power first
        t = (s[:-1] + s[1:] - 2 * slope) / dxr
        self.x = x
        self.c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))

    def __call__(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        x, c = self.x, self.c
        flat = xi.ravel()
        # piece i holds x[i] <= xi < x[i+1]; the last piece also takes x[-1]
        i = np.clip(np.searchsorted(x, flat, side="right") - 1, 0, x.size - 2)
        s = (flat - x[i]).reshape(flat.shape + (1,) * (c.ndim - 2))
        # Horner's rule the way PPoly sums it: powers of s built up in z
        res = 0.0
        z = 1.0
        for k in (3, 2, 1, 0):
            res = res + c[k, i] * z
            if k:
                z = z * s
        trail = c.shape[2:]
        res = res.reshape(xi.shape + trail)
        return np.moveaxis(res, tuple(range(xi.ndim, res.ndim)), tuple(range(len(trail))))
