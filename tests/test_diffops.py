"""diffops against reference forms.

- fd_derivative: the order-4 first-derivative boundary rows once built their
  coefficient vector anew for every term of each sum, and every order-4
  boundary row was its own sum() over the terms; reference_fd_derivative
  keeps that form, and fd_derivative, which sums the four boundary rows at
  once, must give the same bits at both orders and both derivatives.
- bary_interp_matrix: reference_bary_interp_matrix is its former per-point
  loop, and the vectorised matrix must give the same bits.
- NotAKnotSpline: scipy's CubicSpline is the reference it ports, and the
  values must be the same bits on and off the knots.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from minsurflab.diffops import (
    NotAKnotSpline,
    bary_interp_matrix,
    bary_weights,
    fd_derivative,
)
from radial_reference import cheb_nodes_matrix

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
        axis=st.sampled_from([0, 1, -2]),
        h=st.floats(1e-3, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_reference(self, rows, cols, axis, h, seed):
        # axis -2 is the curvature engine's call: the rows of all three
        # components of a chart block at once.  On these arrays swapaxes
        # gives moveaxis's views, so the result has the reference's strides
        # too
        F = np.random.default_rng(seed).standard_normal((rows, cols))
        if axis == 1:
            F = F.T
        elif axis == -2:
            F = np.random.default_rng(seed).standard_normal((3, rows, cols))
        for order in (2, 4):
            for deriv in (1, 2):
                got = fd_derivative(F, h, axis, deriv, order)
                want = reference_fd_derivative(F, h, axis, deriv, order)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert got.strides == want.strides


def reference_bary_interp_matrix(x, xi):
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


class TestBaryInterpMatrix:
    @PROPERTY
    @given(
        m=st.integers(2, 24),
        chebyshev=st.booleans(),
        points=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_loop(self, m, chebyshev, points, seed):
        rng = np.random.default_rng(seed)
        if chebyshev:
            x = cheb_nodes_matrix(m, -1.0, rng.uniform(0.1, 3.0))[0]
        else:
            x = np.sort(rng.uniform(-1.0, 1.0, m))
        # points between the nodes, on them, and within 1e-14 of them
        xi = np.concatenate([rng.uniform(x[0], x[-1], points), x[::2], x[1::3] + 5e-15])
        rng.shuffle(xi)
        assert np.array_equal(bary_interp_matrix(x, xi), reference_bary_interp_matrix(x, xi))

    def test_a_point_near_two_nodes_takes_the_first(self):
        x = np.array([0.0, 1e-15, 1.0])
        assert np.array_equal(bary_interp_matrix(x, np.array([5e-16])), [[1.0, 0.0, 0.0]])


def spline_points(x, rng, inside):
    """Points inside the knot range, every knot, both ends and points
    outside it on either side."""
    span = x[-1] - x[0]
    return np.concatenate([
        rng.uniform(x[0], x[-1], inside), x, [x[0], x[-1]],
        x[0] - span * rng.uniform(0.0, 0.5, 3), x[-1] + span * rng.uniform(0.0, 0.5, 3),
    ])


class TestNotAKnotSpline:
    @PROPERTY
    @given(
        n=st.integers(4, 60),
        uniform=st.booleans(),
        rows=st.sampled_from([None, 1, 3, 7]),
        scale=st.floats(1e-6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_scipy(self, n, uniform, rows, scale, seed):
        rng = np.random.default_rng(seed)
        if uniform:
            x = np.linspace(rng.uniform(-3.0, 0.0), rng.uniform(0.5, 30.0), n)
        else:
            x = np.cumsum(rng.uniform(0.01, 1.0, n)) + rng.uniform(-3.0, 3.0)
        shape = (n,) if rows is None else (rows, n)
        y = scale * rng.standard_normal(shape)
        spline = NotAKnotSpline(x, y)
        reference = CubicSpline(x, y, axis=len(shape) - 1)
        xi = spline_points(x, rng, 40)
        for points in (xi, xi[:40].reshape(5, 8), xi[7]):
            got, want = spline(points), reference(points)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_reproduces_a_cubic(self):
        x = np.array([0.0, 0.3, 1.1, 1.5, 2.0, 3.2])
        cubic = lambda t: 2.0 * t**3 - t**2 + 0.5 * t - 4.0  # noqa: E731
        xi = np.linspace(-1.0, 4.0, 41)
        assert np.allclose(NotAKnotSpline(x, cubic(x))(xi), cubic(xi), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("x, y, message", [
        ([0.0, 1.0, 2.0], [1.0, 2.0, 0.0], "at least 4 knots"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.0], "at least 4 knots"),
        ([0.0, 1.0, 1.0, 3.0], [1.0, 2.0, 0.0, 1.0], "strictly increasing"),
        ([0.0, 2.0, 1.0, 3.0], [1.0, 2.0, 0.0, 1.0], "strictly increasing"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, np.nan, 0.0, 1.0], "finite"),
        ([0.0, 1.0, 2.0, np.inf], [1.0, 2.0, 0.0, 1.0], "finite"),
        ([0.0, 1.0, 2.0, 3.0], [[1.0, 2.0, 0.0, np.inf]], "finite"),
    ], ids=["three knots", "lengths differ", "repeated knot", "decreasing knot",
            "NaN value", "infinite knot", "infinite row value"])
    def test_refuses(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            NotAKnotSpline(np.array(x), np.array(y))
