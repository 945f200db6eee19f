"""Uniform-grid finite differences against their former form.

The order-4 first-derivative boundary rows once built their coefficient
vector anew for every term of each sum; reference_fd_derivative keeps that
form, and fd_derivative must give the same bits at both orders and both
derivatives.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from minsurflab.diffops import fd_derivative

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def reference_fd_derivative(F, h, axis, deriv, order):
    F = np.moveaxis(np.asarray(F, dtype=float), axis, 0)
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
        out[2:-2] = (F[:-4] - 8 * F[1:-3] + 8 * F[3:-1] - F[4:]) / (12 * h)
        c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
        out[0] = sum(c[k] * F[k] for k in range(5))
        out[1] = sum(np.array([-3.0, -10.0, 18.0, -6.0, 1.0])[k] / (12 * h) * F[k] for k in range(5))
        out[-1] = -sum(c[k] * F[-1 - k] for k in range(5))
        out[-2] = -sum(np.array([-3.0, -10.0, 18.0, -6.0, 1.0])[k] / (12 * h) * F[-1 - k] for k in range(5))
    else:
        out[2:-2] = (-F[:-4] + 16 * F[1:-3] - 30 * F[2:-2] + 16 * F[3:-1] - F[4:]) / (12 * h**2)
        c0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / (12 * h**2)
        c1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / (12 * h**2)
        out[0] = sum(c0[k] * F[k] for k in range(6))
        out[1] = sum(c1[k] * F[k] for k in range(6))
        out[-1] = sum(c0[k] * F[-1 - k] for k in range(6))
        out[-2] = sum(c1[k] * F[-1 - k] for k in range(6))
    return np.moveaxis(out, 0, axis)


class TestFdDerivative:
    @PROPERTY
    @given(
        rows=st.integers(7, 40),
        cols=st.integers(1, 6),
        axis=st.sampled_from([0, 1]),
        h=st.floats(1e-3, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_reference(self, rows, cols, axis, h, seed):
        F = np.random.default_rng(seed).standard_normal((rows, cols))
        if axis == 1:
            F = F.T
        for order in (2, 4):
            for deriv in (1, 2):
                assert np.array_equal(fd_derivative(F, h, axis, deriv, order),
                                      reference_fd_derivative(F, h, axis, deriv, order))
