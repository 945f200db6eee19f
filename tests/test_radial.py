"""Property tests of the row-wise band solve radial.solve_rows.

Each drawn problem is solved with the ring conditions of one of the three
radial problems: the neck annulus (solve_mixed), the site exterior and the
interior ball.  The solution is checked against the equations it is meant
to satisfy: the band operator at every interior node, Dirichlet data, the
regular selection w_rho = l w and the decaying multipole
w_rho = (2 - n - l) w at the rings that take them.  Every residual is
measured against the size of the terms it balances, to the relative
tolerance RTOL.  A second test requires the rows to equal, bit for bit,
the three band solves that solve_rows replaced (tests/radial_reference.py).

The grids of one node count share one read-only Chebyshev pair on [-1, 1]:
a grid's nodes, D, d_row and d_rows must give the bits of the nodes and
matrix built afresh for its interval (cheb_nodes_matrix), and the grid
itself may hold no array larger than its m nodes.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minsurflab.cylinder import BandField
from minsurflab.diffops import cheb_unit
from minsurflab.radial import (
    BandOperator,
    RadialGrid,
    decaying,
    regular,
    regular_low,
    solve_mixed,
    solve_rows,
)
from minsurflab.spectral import SphereField, band_spectrum
from radial_reference import band_exterior, band_interior, band_mixed, cheb_nodes_matrix

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
RTOL = 1e-9

spectra = lru_cache(maxsize=None)(band_spectrum)

# (inner, outer) conditions of each radial problem with ring data h
PROBLEMS = {
    "annulus": lambda h: (regular_low, h),
    "exterior": lambda h: (h, decaying),
    "ball": lambda h: (regular, h),
}


@st.composite
def band_problems(draw):
    """(operator, source, ring data): n 3-5, L 2-6, 12 to 80 Chebyshev
    nodes, r_out in [0.05, 3], r_out / r_in up to 1e5, a radial background
    of slope up to 2, and sources and ring data over six decades."""
    spec = spectra(draw(st.integers(3, 5)), draw(st.integers(2, 6)))
    m = draw(st.integers(12, 80))
    r_out = draw(st.floats(0.05, 3.0))
    r_in = r_out * 10.0 ** -draw(st.floats(0.3, 5.0))
    grid = RadialGrid(r_in, r_out, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slope = draw(st.floats(0.0, 2.0)) * rng.uniform(-1.0, 1.0) * grid.r / r_out
    op = BandOperator(spec, grid, slope)
    rows = spec.L + 1
    f = BandField(spec, grid, rng.normal(size=(rows, m)) * 10.0 ** rng.uniform(-3.0, 3.0))
    data = SphereField(spec, rng.normal(size=rows))
    return op, f, data * 10.0 ** rng.uniform(-3.0, 3.0)


def expected_rings(kind, spec, data):
    """Per ring (node index, Robin exponent of each row with nan where the
    row takes Dirichlet data, Dirichlet data of each row)."""
    bands = np.arange(spec.L + 1.0)
    cols = data.c
    none = np.full(bands.size, np.nan)
    zero = np.zeros(bands.size)
    if kind == "annulus":
        inner = (np.where(bands <= 1, bands, np.nan), zero)
        outer = (none, cols)
    elif kind == "exterior":
        inner = (none, cols)
        outer = (2.0 - spec.n - bands, zero)
    else:
        inner = (bands, zero)
        outer = (none, cols)
    return [(0, *inner), (-1, *outer)]


@PROPERTY
@given(band_problems(), st.sampled_from(sorted(PROBLEMS)))
def test_solution_satisfies_the_mixed_problem(problem, kind):
    op, f, data = problem
    spec, grid = f.spectrum, op.grid
    w = BandField(spec, grid, solve_rows(op, f, *PROBLEMS[kind](data)))
    bands = range(spec.L + 1)
    # interior collocation rows: Lambda_l w = f, against |Lambda_l| |w| + |f|
    residual = op.apply(w).values - f.values
    for i, ell in enumerate(bands):
        terms = np.abs(op.matrix(ell)) @ np.abs(w.values[i]) + np.abs(f.values[i])
        assert np.all(np.abs(residual[i, 1:-1]) <= RTOL * terms[1:-1])
    scale = np.max(np.abs(w.values), axis=1)
    for k, p, values in expected_rings(kind, spec, data):
        dirichlet = np.isnan(p)
        assert np.all(
            np.abs(w.values[dirichlet, k] - values[dirichlet]) <= RTOL * scale[dirichlet]
        )
        # Robin rows w_rho = p w at the ring
        robin = ~dirichlet
        d_rho = w.values[robin] @ grid.D[k]
        row_terms = np.abs(w.values[robin]) @ np.abs(grid.D[k]) + np.abs(p[robin] * w.values[robin, k])
        assert np.all(np.abs(d_rho - p[robin] * w.values[robin, k]) <= RTOL * row_terms)


@PROPERTY
@given(band_problems())
def test_rows_equal_the_reference_band_solves(problem):
    op, f, data = problem
    spec = f.spectrum
    cols = data.c
    bands = range(spec.L + 1)
    annulus = [band_mixed(op, ell, f.values[i], float(cols[i])) for i, ell in enumerate(bands)]
    exterior = [band_exterior(op, ell, f.values[i], float(cols[i]), spec.n) for i, ell in enumerate(bands)]
    ball = [band_interior(op, ell, float(cols[i])) for i, ell in enumerate(bands)]
    assert np.array_equal(solve_mixed(op, f, data).values, np.array(annulus))
    assert np.array_equal(solve_rows(op, f, data, decaying), np.array(exterior))
    assert np.array_equal(solve_rows(op, None, regular, data), np.array(ball))


@pytest.mark.parametrize("m", [2, 3, 17, 150])
def test_grids_share_one_matrix_per_node_count(m):
    rng = np.random.default_rng(m)
    for _ in range(8):
        r_in = 10.0 ** rng.uniform(-8.0, 1.0)
        r_out = r_in * 10.0 ** rng.uniform(0.01, 6.0)
        grid = RadialGrid(r_in, r_out, m)
        rho, D = cheb_nodes_matrix(m, np.log(r_in), np.log(r_out))
        assert np.array_equal(grid.rho, rho) and np.array_equal(grid.r, np.exp(rho))
        assert np.array_equal(grid.D, D)
        values = rng.normal(size=(5, m))
        for index in (0, m // 2, m - 1, -1):
            assert np.array_equal(grid.d_row(index), D[index])
            assert np.array_equal(grid.d_rows(values, index), values @ D[index])
        held = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
        assert held and max(v.size for v in held) <= m
    x, D = cheb_unit(m)
    assert cheb_unit(m)[1] is D
    for shared in (x, D):
        assert not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0
