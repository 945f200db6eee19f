"""Property tests of the weighted norms the tests measure band fields in.

norm_exp (tests/band_reference.py) weights cylinder fields by e^{-delta s}
and weighted_norm (tests/radial_reference.py) weights radial fields by a
power of r.  The solver, catenoid, neck and acceptance tests state their
bounds in these norms, and no pipeline code reads them.  Each must be
absolutely homogeneous, satisfy the triangle inequality and refuse a field
with non-finite values.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from band_reference import norm_exp
from minsurflab.cylinder import BandField, UniformGrid
from minsurflab.radial import RadialGrid
from radial_reference import weighted_norm
from minsurflab.spectral import band_spectrum

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


spectra = lru_cache(maxsize=None)(band_spectrum)


@st.composite
def cylinder_fields(draw):
    """Random band fields: n 3-5, L 2-8, steps 5e-3 to 0.6, 4 to 400 nodes."""
    spec = spectra(draw(st.integers(3, 5)), draw(st.integers(2, 8)))
    h = draw(st.one_of(st.floats(5e-3, 0.6), st.sampled_from([0.45, 0.6])))
    m = draw(st.integers(4, 400))
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


class TestNormExpProperties:
    # at large -delta s the weight overflows, and both sides read inf
    @PROPERTY
    @given(w=cylinder_fields(), k=orders, delta=deltas, a=scales)
    def test_absolute_homogeneity(self, w, k, delta, a):
        aw = BandField(w.spectrum, w.grid, a * w.values)
        assert norm_exp(aw, k, 0.5, delta) == pytest.approx(
            abs(a) * norm_exp(w, k, 0.5, delta), rel=1e-12
        )

    @PROPERTY
    @given(data=st.data(), u=cylinder_fields(), k=orders, delta=deltas)
    def test_triangle_inequality(self, data, u, k, delta):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = BandField(u.spectrum, u.grid, rng.normal(size=u.values.shape).cumsum(axis=1))
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
        aw = BandField(w.spectrum, w.grid, a * w.values)
        assert weighted_norm(aw, k, 0.5, nu) == pytest.approx(
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

    @pytest.mark.parametrize("how", SPOILS)
    def test_weighted_norm_raises(self, spectrum, how):
        grid = RadialGrid(0.05, 1.0, 24)
        w = BandField(spectrum, grid, _spoiled(spectrum, grid.rho, how))
        for k in (0, 1, 2):
            with pytest.raises(ValueError, match="non-finite"):
                weighted_norm(w, k, 0.5, -1.0)
