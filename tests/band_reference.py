"""Reference copies the band code is checked against, and the weighted
norm the tests measure cylinder fields in.

dense_band_dirichlet_robin: the tests compare
cylinder.solve_band_dirichlet_robin against this dense factorization of the
same discrete rows.

banded_band_dirichlet_robin: the band solve as it was before it called
LAPACK's dgtsv directly: the rows in scipy's band storage, solved by
solve_banded.  The direct call must give the same bits and fail alike.

norm_exp: the exponentially weighted Hoelder norm of a band field on a
UniformGrid, window by window.  The solver tests state their bounds in it;
no pipeline code reads it.

holder_norm: SphereField.holder_norm as it was when a field carried a pole
direction and all n components of its linear band.  It takes the maximum of
two passes along the meridian through the transverse linear part; on a
zonal field the passes agree, and the one-pass method must equal it bit for
bit.
"""

import numpy as np
from scipy.linalg import solve_banded

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


def banded_band_dirichlet_robin(
    vpot: np.ndarray, h: float, f: np.ndarray, robin_gamma: float
) -> np.ndarray:
    """The rows of solve_band_dirichlet_robin in band storage, solved by
    scipy's solve_banded."""
    m = vpot.size
    ab = np.zeros((3, m))
    rhs = np.array(f, dtype=float)
    ab[1, 0] = 1.0
    ab[0, 1] = 0.0
    rhs[0] = 0.0
    ab[0, 2:] = 1.0 / h**2
    ab[1, 1:-1] = -2.0 / h**2 + vpot[1:-1]
    ab[2, :-2] = 1.0 / h**2
    g = robin_gamma
    ab[1, -1] = (-2.0 - 2.0 * h * g) / h**2 + vpot[-1]
    ab[2, -2] = 2.0 / h**2
    return solve_banded((1, 1), ab, rhs)


def norm_exp(w, k: int, alpha: float, delta: float) -> float:
    """Discrete surrogate of the exponentially weighted C^{k,alpha} norm.

    Supremum over unit s-windows [i0, min(m, i0 + win + 1)),
    win = max(2, round(1/step)), of e^{-delta s_i0} times the sum of the
    maxima of the finite-difference derivatives of orders 0..k and of a
    Hoelder quotient of the k-th derivative over node pairs at distance
    step to 3 step; the quotient window is one node shorter.  Windows start
    at every node, and the sweep ends at the first window that reaches the
    end of the grid.  Refuses non-finite values, which the running maximum
    would skip.
    """
    vals = w.values
    if not np.all(np.isfinite(vals)):
        raise ValueError("norm_exp of a field with non-finite values")
    s = w.grid.s
    h = w.grid.step
    derivs = [vals]
    for _ in range(k):
        derivs.append(np.gradient(derivs[-1], h, axis=1))
    win = max(2, int(round(1.0 / h)))
    top = derivs[k]
    quot = np.zeros_like(top)
    for off in (1, 2, 3):
        if top.shape[1] > off:
            q = np.abs(top[:, off:] - top[:, :-off]) / (off * h) ** alpha
            quot[:, : q.shape[1]] = np.maximum(quot[:, : q.shape[1]], q)
    best = 0.0
    for i0 in range(s.size):
        i1 = min(s.size, i0 + win + 1)
        window_val = 0.0
        for d in derivs:
            window_val += float(np.max(np.abs(d[:, i0:i1])))
        window_val += float(np.max(quot[:, i0 : max(i0 + 1, i1 - 1)]))
        with np.errstate(over="ignore"):
            best = max(best, float(np.exp(-delta * s[i0])) * window_val)
        if i1 == s.size:
            break
    return best


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
