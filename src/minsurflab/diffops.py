"""Differentiation operators shared by the solvers and their oracles.

Uniform-grid finite differences at orders 2 and 4, Chebyshev collocation
nodes with differentiation matrices, and barycentric differentiation on
arbitrary node sets (used for the Gauss colatitude grid).
"""

from __future__ import annotations

import numpy as np


def fd_derivative(F: np.ndarray, h: float, axis: int, deriv: int, order: int) -> np.ndarray:
    """Finite-difference derivative along an axis of a uniform grid.

    Interior stencils are centered; boundary nodes use one-sided stencils of
    the same order.  order 2 needs >= deriv+2 nodes, order 4 needs >= 6.
    """
    F = np.moveaxis(np.asarray(F, dtype=float), axis, 0)
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
        c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
        out[0] = sum(c[k] * F[k] for k in range(5))
        out[1] = sum(np.array([-3.0, -10.0, 18.0, -6.0, 1.0])[k] / (12 * h) * F[k] for k in range(5))
        out[-1] = -sum(c[k] * F[-1 - k] for k in range(5))
        out[-2] = -sum(np.array([-3.0, -10.0, 18.0, -6.0, 1.0])[k] / (12 * h) * F[-1 - k] for k in range(5))
    elif deriv == 2 and order == 4:
        if m < 7:
            raise ValueError("order-4 second derivatives need at least 7 nodes")
        out[2:-2] = (-F[:-4] + 16 * F[1:-3] - 30 * F[2:-2] + 16 * F[3:-1] - F[4:]) / (12 * h**2)
        c0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / (12 * h**2)
        c1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / (12 * h**2)
        out[0] = sum(c0[k] * F[k] for k in range(6))
        out[1] = sum(c1[k] * F[k] for k in range(6))
        out[-1] = sum(c0[k] * F[-1 - k] for k in range(6))
        out[-2] = sum(c1[k] * F[-1 - k] for k in range(6))
    else:
        raise ValueError(f"unsupported deriv={deriv}, order={order}")
    return np.moveaxis(out, 0, axis)


def cheb_nodes_matrix(m: int, a: float, b: float):
    """Chebyshev collocation nodes (ascending on [a, b]) and D d/dx matrix."""
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
    # flip to ascending and map to [a, b]
    x = x[::-1]
    D = D[::-1, ::-1]
    scale = 2.0 / (b - a)
    return a + (x + 1.0) * (b - a) / 2.0, D * scale


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
    P = np.zeros((xi.size, x.size))
    for i, p in enumerate(xi):
        d = p - x
        hit = np.where(np.abs(d) < 1e-14)[0]
        if hit.size:
            P[i, hit[0]] = 1.0
        else:
            q = w / d
            P[i] = q / q.sum()
    return P
