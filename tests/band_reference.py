"""Reference copies the band code is checked against.

dense_band_dirichlet_robin: the tests compare
cylinder.solve_band_dirichlet_robin against this dense factorization of the
same discrete rows.

holder_norm: SphereField.holder_norm as it was when a field carried a pole
direction and all n components of its linear band.  It takes the maximum of
two passes along the meridian through the transverse linear part; on a
zonal field the passes agree, and the one-pass method must equal it bit for
bit.
"""

import numpy as np

from minsurflab.spectral import angular_grid, zonal_eval


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


def _eval_meridian(spec, low, zonal, pole, t, transverse):
    """The field along the meridian theta(t) = t q + sqrt(1-t^2) m, with
    transverse the component low[1:] . m of the linear band."""
    axial = float(low[1:] @ pole)
    vals = low[0] + axial * t + np.sqrt(np.clip(1 - t * t, 0, None)) * transverse
    for k, c in enumerate(zonal):
        if c != 0.0:
            vals = vals + c * zonal_eval(spec.n, k + 2, t)
    return vals


def holder_norm(spec, low, zonal, pole) -> float:
    """The surrogate C^{2,1/2} norm of the field with constant low[0],
    linear part low[1:] . theta and zonal coefficients zonal[k] of
    Z_{k+2}(pole . theta)."""
    grid = angular_grid(spec)
    t = grid.t
    a = low[1:]
    q = pole
    a_perp = a - (a @ q) * q
    pa = np.linalg.norm(a_perp)
    total = 0.0
    for sgn in (1.0, -1.0):
        f = _eval_meridian(spec, low, zonal, pole, t, sgn * pa)
        gp = np.zeros_like(t)
        for k, c in enumerate(zonal):
            if c != 0.0:
                gp += c * grid.Zp[k + 2]
        a_dot_th = (a @ q) * t + sgn * pa * np.sqrt(np.clip(1 - t * t, 0, None))
        pa2 = float(a @ a) - a_dot_th**2
        grad2 = np.clip(pa2, 0, None) + 2 * gp * ((a @ q) - a_dot_th * t) + gp * gp * (1 - t * t)
        lap = -spec.lam[1] * a_dot_th
        for k, c in enumerate(zonal):
            if c != 0.0:
                lap = lap - spec.lam[k + 2] * c * grid.Z[k + 2]
        arc = np.abs(np.arccos(np.clip(t[1:], -1, 1)) - np.arccos(np.clip(t[:-1], -1, 1)))
        quot = np.abs(np.diff(lap)) / np.maximum(arc, 1e-300) ** 0.5
        total = max(
            total,
            float(np.max(np.abs(f)) + np.max(np.sqrt(np.clip(grad2, 0, None))) + np.max(np.abs(lap))
                  + (np.max(quot) if len(quot) else 0.0)),
        )
    return total
