"""Property test of the row-wise mixed solve radial.solve_mixed.

Each drawn problem is checked against the equations the solve is meant to
satisfy: the band operator at every interior node, the outer Dirichlet
data, zero inner data for bands l >= 2 and the regular-selection row
w_rho = l w at the inner ring for bands l <= 1.  Every residual is measured
against the size of the terms it balances, to the relative tolerance RTOL.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from minsurflab.cylinder import BandField, row_bands
from minsurflab.radial import BandOperator, RadialGrid, solve_mixed
from minsurflab.spectral import SphereField, band_spectrum

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
RTOL = 1e-9

spectra = lru_cache(maxsize=None)(band_spectrum)


@st.composite
def mixed_problems(draw):
    """(operator, source, outer data): n 3-5, L 2-6, 12 to 80 Chebyshev
    nodes, r_out in [0.05, 3], r_out / r_in up to 1e5, a radial background
    of slope up to 2, and sources and outer data over six decades."""
    spec = spectra(draw(st.integers(3, 5)), draw(st.integers(2, 6)))
    m = draw(st.integers(12, 80))
    r_out = draw(st.floats(0.05, 3.0))
    r_in = r_out * 10.0 ** -draw(st.floats(0.3, 5.0))
    grid = RadialGrid(r_in, r_out, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slope = draw(st.floats(0.0, 2.0)) * rng.uniform(-1.0, 1.0) * grid.r / r_out
    op = BandOperator(spec, grid, slope)
    rows = spec.row_count()
    f = BandField(spec, grid, rng.normal(size=(rows, m)) * 10.0 ** rng.uniform(-3.0, 3.0))
    outer = SphereField(spec, rng.normal(size=spec.n + 1), rng.normal(size=spec.L - 1))
    return op, f, outer * 10.0 ** rng.uniform(-3.0, 3.0)


@PROPERTY
@given(mixed_problems())
def test_solution_satisfies_the_mixed_problem(problem):
    op, f, outer = problem
    w = solve_mixed(op, f, outer)
    grid = op.grid
    bands = row_bands(f.spectrum)
    # interior collocation rows: Lambda_l w = f, against |Lambda_l| |w| + |f|
    residual = op.apply(w).values - f.values
    for i, ell in enumerate(bands):
        terms = np.abs(op.matrix(int(ell))) @ np.abs(w.values[i]) + np.abs(f.values[i])
        assert np.all(np.abs(residual[i, 1:-1]) <= RTOL * terms[1:-1])
    scale = np.max(np.abs(w.values), axis=1)
    # outer Dirichlet data for every band
    data = np.concatenate([outer.low, outer.zonal])
    assert np.all(np.abs(w.values[:, -1] - data) <= RTOL * scale)
    high = bands >= 2
    # zero inner data for bands l >= 2
    assert np.all(np.abs(w.values[high, 0]) <= RTOL * scale[high])
    # regular selection w_rho = l w at the inner ring for bands l <= 1
    d_rho = w.values[~high] @ grid.D[0]
    row_terms = np.abs(w.values[~high]) @ np.abs(grid.D[0]) + bands[~high] * np.abs(w.values[~high, 0])
    assert np.all(np.abs(d_rho - bands[~high] * w.values[~high, 0]) <= RTOL * row_terms)
