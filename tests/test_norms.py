"""Property tests of the weighted norms norm_exp and weighted_norm.

norm_exp is checked for equality against the window-by-window loop it
replaced, kept here as the reference.  weighted_norm is a test reference
(tests/radial_reference.py) that the neck and acceptance tests measure
radial fields in; no pipeline code reads it.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minsurflab.cylinder import BandField, UniformGrid, norm_exp
from minsurflab.radial import RadialGrid
from radial_reference import weighted_norm
from minsurflab.spectral import band_spectrum

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def norm_exp_loop(w, k, alpha, delta, S=None):
    """Reference norm_exp: slices every unit window and takes its maxima."""
    s = w.grid.s
    h = w.grid.step
    if S is None:
        S = float(s[0])
    vals = w.values
    derivs = [vals]
    cur = vals
    for _ in range(k):
        d = np.gradient(cur, h, axis=1)
        derivs.append(d)
        cur = d
    win = max(2, int(round(1.0 / h)))
    top = derivs[k]
    quot = np.zeros_like(top)
    for off in (1, 2, 3):
        if top.shape[1] > off:
            q = np.abs(top[:, off:] - top[:, :-off]) / (off * h) ** alpha
            quot[:, : q.shape[1]] = np.maximum(quot[:, : q.shape[1]], q)
    start0 = int(np.searchsorted(s, S - 1e-12))
    best = 0.0
    for i0 in range(start0, s.size):
        i1 = min(s.size, i0 + win + 1)
        window_val = 0.0
        for d in derivs[: k + 1]:
            window_val += float(np.max(np.abs(d[:, i0:i1])))
        window_val += float(np.max(quot[:, i0 : max(i0 + 1, i1 - 1)]))
        with np.errstate(over="ignore"):
            best = max(best, float(np.exp(-delta * s[i0])) * window_val)
        if i1 == s.size:
            break
    return best


spectra = lru_cache(maxsize=None)(band_spectrum)


@st.composite
def cylinder_fields(draw, m_max=800):
    """Random band fields: n 3-5, L 2-8, steps 5e-3 to 0.6, 4 to m_max nodes."""
    spec = spectra(draw(st.integers(3, 5)), draw(st.integers(2, 8)))
    h = draw(st.one_of(st.floats(5e-3, 0.6), st.sampled_from([0.45, 0.6])))
    m = draw(st.integers(4, m_max))
    s = draw(st.floats(-3.0, 3.0)) + h * np.arange(m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.normal(size=(spec.L + 1, m))
    if draw(st.booleans()):
        vals = vals.cumsum(axis=1)
    vals *= np.exp(rng.uniform(-3.0, 3.0, size=(spec.L + 1, 1)))
    return BandField(spec, UniformGrid(s), vals)


orders = st.integers(0, 2)
deltas = st.floats(-4.0, 1.0)
scales = st.one_of(st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3))


class TestNormExpAgainstLoop:
    @PROPERTY
    @given(w=cylinder_fields(), k=orders, delta=deltas)
    def test_equal_to_window_loop(self, w, k, delta):
        ref = norm_exp_loop(w, k, 0.5, delta)
        if np.isfinite(ref):
            assert norm_exp(w, k, 0.5, delta) == ref
        else:
            with pytest.raises(ValueError, match="not finite"):
                norm_exp(w, k, 0.5, delta)

    def test_coarse_grid_shorter_than_one_window(self, spectrum):
        # four nodes with windows of 2, 3 and 4 steps: two windows, one, and one cut short
        for h in (0.6, 0.3, 0.25):
            w = BandField(spectrum, UniformGrid(h * np.arange(4)), np.arange((spectrum.L + 1) * 4.0).reshape(-1, 4))
            for k in (0, 1, 2):
                assert norm_exp(w, k, 0.5, -2.0) == norm_exp_loop(w, k, 0.5, -2.0)


class TestNormExpProperties:
    @PROPERTY
    @given(w=cylinder_fields(m_max=400), k=orders, delta=deltas, a=scales)
    def test_absolute_homogeneity(self, w, k, delta, a):
        if not np.isfinite(norm_exp_loop(w, k, 0.5, delta)):
            for field in (w, a * w):
                with pytest.raises(ValueError, match="not finite"):
                    norm_exp(field, k, 0.5, delta)
            return
        assert norm_exp(a * w, k, 0.5, delta) == pytest.approx(
            abs(a) * norm_exp(w, k, 0.5, delta), rel=1e-12
        )

    @PROPERTY
    @given(data=st.data(), u=cylinder_fields(m_max=400), k=orders, delta=deltas)
    def test_triangle_inequality(self, data, u, k, delta):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = BandField(u.spectrum, u.grid, rng.normal(size=u.values.shape).cumsum(axis=1))
        if not np.isfinite(norm_exp_loop(u, k, 0.5, delta)):
            for field in (u, v, u + v):
                with pytest.raises(ValueError, match="not finite"):
                    norm_exp(field, k, 0.5, delta)
            return
        total = norm_exp(u, k, 0.5, delta) + norm_exp(v, k, 0.5, delta)
        assert norm_exp(u + v, k, 0.5, delta) <= total * (1.0 + 1e-12)


@st.composite
def radial_fields(draw):
    """Random band fields on Chebyshev grids in log r."""
    spec = spectra(draw(st.integers(3, 5)), draw(st.integers(2, 8)))
    r_in = draw(st.floats(1e-3, 1.0))
    grid = RadialGrid(r_in, r_in * draw(st.floats(1.5, 100.0)), draw(st.integers(8, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.normal(size=(spec.L + 1, grid.m))
    vals *= np.exp(rng.uniform(-3.0, 3.0, size=(spec.L + 1, 1)))
    return BandField(spec, grid, vals)


nus = st.floats(-3.0, 1.0)


class TestWeightedNormProperties:
    @PROPERTY
    @given(w=radial_fields(), k=orders, nu=nus, a=scales)
    def test_absolute_homogeneity(self, w, k, nu, a):
        assert weighted_norm(a * w, k, 0.5, nu) == pytest.approx(
            abs(a) * weighted_norm(w, k, 0.5, nu), rel=1e-10
        )

    @PROPERTY
    @given(data=st.data(), u=radial_fields(), k=orders, nu=nus)
    def test_triangle_inequality(self, data, u, k, nu):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = BandField(u.spectrum, u.grid, rng.normal(size=u.values.shape))
        total = weighted_norm(u, k, 0.5, nu) + weighted_norm(v, k, 0.5, nu)
        assert weighted_norm(u + v, k, 0.5, nu) <= total * (1.0 + 1e-10)


def _spoiled(spectrum, x, how):
    """Smooth band rows over the nodes x, made non-finite as `how` says."""
    values = np.sin(np.outer(np.arange(1, spectrum.L + 2), x))
    if how == "all_nan":
        values[:] = np.nan
    elif how == "one_nan":
        values[0, values.shape[1] // 2] = np.nan
    else:
        values[-1, 1] = np.inf
    return values


SPOILS = ["all_nan", "one_nan", "inf"]


class TestNonFinite:
    @pytest.mark.parametrize("how", SPOILS)
    def test_norm_exp_raises(self, spectrum, how):
        s = -1.0 + 5e-3 * np.arange(600)
        w = BandField(spectrum, UniformGrid(s), _spoiled(spectrum, s, how))
        for k in (0, 1, 2):
            with pytest.raises(ValueError, match="non-finite"):
                norm_exp(w, k, 0.5, -2.0)

    def test_norm_exp_raises_when_the_weight_overflows(self, spectrum):
        s = 700.0 + 0.05 * np.arange(100)
        w = BandField(spectrum, UniformGrid(s), np.ones((spectrum.L + 1, s.size)))
        assert np.isfinite(norm_exp(w, 0, 0.5, -1.0))
        with pytest.raises(ValueError, match=r"delta=-1\.05, largest window start s=703\.95"):
            norm_exp(w, 0, 0.5, -1.05)

    @pytest.mark.parametrize("how", SPOILS)
    def test_weighted_norm_raises(self, spectrum, how):
        grid = RadialGrid(0.05, 1.0, 24)
        w = BandField(spectrum, grid, _spoiled(spectrum, grid.rho, how))
        for k in (0, 1, 2):
            with pytest.raises(ValueError, match="non-finite"):
                weighted_norm(w, k, 0.5, -1.0)
