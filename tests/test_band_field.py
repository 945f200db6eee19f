"""The band-field type on its two grids: grid checks, algebra, traces."""

import numpy as np
import pytest

from minsurflab.cylinder import BandField, GridError, UniformGrid
from minsurflab.radial import RadialGrid


def uniform(S=-1.0, h=0.01, m=50):
    return UniformGrid(S + h * np.arange(m))


class TestUniformGrid:
    @pytest.mark.parametrize(
        "s",
        [np.arange(3.0), np.array([0.0, 2.0, 1.0, 3.0]), np.array([0.0, 1.0, 2.0, 3.5])],
        ids=["three nodes", "not increasing", "not uniform"],
    )
    def test_rejects(self, s):
        with pytest.raises(GridError):
            UniformGrid(s)

    def test_exposes_the_grid(self):
        g = uniform()
        assert (g.m, g.s[0]) == (50, -1.0)
        assert g.step == pytest.approx(0.01, rel=1e-12)


class TestAlgebra:
    def test_equal_nodes_on_distinct_grids_add(self, spectrum):
        a = BandField.zeros(spectrum, uniform())
        b = BandField.zeros(spectrum, uniform())
        a.values[0] = 1.0
        b.values[0] = 2.0
        assert np.array_equal((a - b).values[0], np.full(50, -1.0))

    @pytest.mark.parametrize(
        "other",
        [lambda: uniform(S=-0.5), lambda: uniform(m=51), lambda: RadialGrid(0.1, 1.0, 50)],
        ids=["shifted", "longer", "radial"],
    )
    def test_rejects_other_grids(self, spectrum, other):
        a = BandField.zeros(spectrum, uniform())
        with pytest.raises(GridError, match="grids"):
            a + BandField.zeros(spectrum, other())

    def test_rejects_shape(self, spectrum):
        with pytest.raises(GridError, match="shape"):
            BandField(spectrum, uniform(), np.zeros((spectrum.L + 1, 49)))


class TestDerivativeTrace:
    def test_uniform_forward_stencil(self, spectrum):
        g = uniform()
        f = BandField.zeros(spectrum, g)
        f.values[:] = (g.s**2)[None, :]  # the 2nd-order stencil is exact on quadratics
        slope = f.d_trace(0)
        assert slope.c == pytest.approx(np.full(spectrum.L + 1, 2 * g.s[0]), abs=1e-12)
        with pytest.raises(GridError):
            f.d_trace(g.m - 2)

    def test_radial_spectral_derivative(self, spectrum):
        g = RadialGrid(0.1, 1.0, 24)
        f = BandField.zeros(spectrum, g)
        f.values[:] = (g.rho**3)[None, :]
        for index in (0, -1):
            slope = f.d_trace(index)
            assert slope.c[2:] == pytest.approx(3 * g.rho[index] ** 2, rel=1e-10)
