"""Derandomized property tests of the band representation.

- SphereField.holder_norm equals, bit for bit, the two-pass norm of the
  representation with a pole and n linear-band components
  (tests/band_reference.py) on zonal fields, so a reordering of its
  arithmetic that moves the last bit of some norm fails this.
- The SphereField algebra is exact: projections, band multipliers, sums and
  differences act entry by entry on the band coefficients.
- Band rows survive collocation on the angular grid and back, and a
  BandField's trace at a node is its coefficient column there.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from band_reference import holder_norm as reference_holder_norm
from minsurflab.cylinder import BandField, UniformGrid, collocation_from_rows, rows_from_collocation
from minsurflab.spectral import SphereField, angular_grid, band_spectrum, project_high

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

spectra = lru_cache(maxsize=None)(band_spectrum)

# coefficients over twelve decades, with exact zeros, which the norm skips
coefficient = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-6, 6)),
)


@st.composite
def fields(draw, count=1):
    """A spectrum (n 3-5, L 2-10) and `count` SphereFields on it."""
    spec = spectra(draw(st.integers(3, 5)), draw(st.integers(2, 10)))
    size = spec.L + 1
    out = [SphereField(spec, draw(st.lists(coefficient, min_size=size, max_size=size)))
           for _ in range(count)]
    return (spec, *out)


# a reordering moves the norm's last bit on a few fields in a hundred
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(fields())
def test_holder_norm_equals_the_pole_reference(drawn):
    spec, f = drawn
    n = spec.n
    low = np.r_[f.c[:2], np.zeros(n - 1)]
    pole = np.eye(n)[0]
    assert f.holder_norm() == reference_holder_norm(spec, low, f.c[2:], pole)


@PROPERTY
@given(fields(count=2), st.floats(-1e3, 1e3))
def test_algebra_is_exact(drawn, a):
    _, f, g = drawn
    assert np.array_equal(project_high(f).c[2:], f.c[2:])
    assert np.array_equal(project_high(f).c[:2], np.zeros(2))
    mult = g.c + 1.5
    assert np.array_equal(f.band_multiply(mult).c, f.c * mult)
    assert np.array_equal((f + g).c, f.c + g.c)
    assert np.array_equal((f - g).c, f.c - g.c)
    assert np.array_equal((a * f).c, a * f.c)


@PROPERTY
@given(fields(), st.integers(4, 12), st.integers(0, 2**32 - 1))
def test_rows_survive_collocation_and_trace_is_the_column(drawn, m, seed):
    spec, _ = drawn
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(spec.L + 1, m)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(spec.L + 1, 1))
    grid = angular_grid(spec)
    back = rows_from_collocation(collocation_from_rows(rows, grid), grid)
    scale = np.max(np.abs(rows), axis=0)
    assert np.all(np.abs(back - rows) <= 1e-12 * scale)
    w = BandField(spec, UniformGrid(0.1 * np.arange(m)), rows)
    for i in range(m):
        assert np.array_equal(w.trace(i).c, rows[:, i])
