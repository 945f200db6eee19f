"""Dense reference for the banded two-point band solve.

The tests compare cylinder.solve_band_dirichlet_robin against this dense
factorization of the same discrete rows.
"""

import numpy as np


def dense_band_dirichlet_robin(
    vpot: np.ndarray, h: float, f: np.ndarray, left_value: float, robin_gamma: float
) -> np.ndarray:
    """Same discrete rows as solve_band_dirichlet_robin via dense factorization."""
    m = vpot.size
    A = np.zeros((m, m))
    rhs = np.array(f, dtype=float)
    A[0, 0] = 1.0
    rhs[0] = left_value
    for i in range(1, m - 1):
        A[i, i - 1] = 1.0 / h**2
        A[i, i] = -2.0 / h**2 + vpot[i]
        A[i, i + 1] = 1.0 / h**2
    g = robin_gamma
    A[m - 1, m - 2] = 2.0 / h**2
    A[m - 1, m - 1] = (-2.0 - 2.0 * h * g) / h**2 + vpot[m - 1]
    return np.linalg.solve(A, rhs)
