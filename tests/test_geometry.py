"""The blocked curvature engine of OrbitSurface.

mean_curvature and second_fundamental_sq are checked for bit equality
against the whole-chart evaluation they replaced, kept here as the
reference: on array charts of every kind, and on uniform-grid charts given
as row functions, whose blocks are differenced on their own rows plus a
halo.  max_abs_mean_curvature is checked against sup |H| of the same
reference between the margins.  The engine's peak memory is bounded by a
fraction of the chart's own size, the reduction's by one block's
temporaries, and a row-function chart is fetched one block at a time.
Charts on one grid share its size's BlockBuffers: walked one after the
other, block by block in turn, or one inside the row function of the
other, each gives its own reference's bits.  A row's H does not read rows
more than the stencils' reach away.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beta_reference import d_beta
from minsurflab.diffops import cheb_nodes_matrix, fd_derivative
from minsurflab.geometry import (
    BLOCK,
    graph_orbit_points,
    matrix_surface,
    uniform_surface,
)
from minsurflab.spectral import ZonalGrid

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

PARITY = (+1, -1, +1)


def reference_forms(P, grid, d_a, d_aa):
    """Whole-chart forms: nine per-component d_beta calls on all rows."""
    Pa = np.stack([d_a(P[i]) for i in range(3)])
    Pb = np.stack([d_beta(grid, P[i], PARITY[i]) for i in range(3)])
    Paa = np.stack([d_aa(P[i]) for i in range(3)])
    Pab = np.stack([d_beta(grid, d_a(P[i]), PARITY[i]) for i in range(3)])
    Pbb = np.stack([d_beta(grid, P[i], PARITY[i], 2) for i in range(3)])
    E = np.einsum("kij,kij->ij", Pa, Pa)
    F = np.einsum("kij,kij->ij", Pa, Pb)
    G = np.einsum("kij,kij->ij", Pb, Pb)
    Nvec = np.cross(Pa, Pb, axis=0)
    norm = np.sqrt(np.einsum("kij,kij->ij", Nvec, Nvec))
    Nvec = Nvec / norm
    L = np.einsum("kij,kij->ij", Paa, Nvec)
    M = np.einsum("kij,kij->ij", Pab, Nvec)
    NN = np.einsum("kij,kij->ij", Pbb, Nvec)
    return E, F, G, L, M, NN, Nvec


def reference_mean_curvature(P, forms, n):
    E, F, G, L, M, NN, Nvec = forms
    det = E * G - F * F
    h2 = (G * L - 2 * F * M + E * NN) / det
    return h2 - (n - 2) * Nvec[1] / P[1]


def reference_second_fundamental_sq(P, forms, n):
    E, F, G, L, M, NN, Nvec = forms
    det = E * G - F * F
    tr = (G * L - 2 * F * M + E * NN) / det
    dt = (L * NN - M * M) / det
    disc = np.clip(tr * tr - 4 * dt, 0.0, None)
    k1 = 0.5 * (tr + np.sqrt(disc))
    k2 = 0.5 * (tr - np.sqrt(disc))
    krot = -Nvec[1] / P[1]
    return k1 * k1 + k2 * k2 + (n - 2) * krot * krot


def uniform_reference(P, grid, h, order, n):
    """Whole-chart H and |A|^2 of a uniform-grid chart."""
    forms = reference_forms(P, grid, lambda F: fd_derivative(F, h, 0, 1, order),
                            lambda F: fd_derivative(F, h, 0, 2, order))
    return reference_mean_curvature(P, forms, n), reference_second_fundamental_sq(P, forms, n)


def smooth_chart(r, grid, rng):
    """A perturbed height graph over r: smooth in r, parity-correct in beta."""
    b = grid.beta
    x = (r - r[0]) / (r[-1] - r[0])
    P = graph_orbit_points(r, grid, np.zeros((r.size, b.size)))
    for comp, trig in ((0, np.cos), (1, np.sin), (2, np.cos)):
        for _ in range(3):
            ka, kb = rng.integers(1, 4, size=2)
            amp = 0.1 * rng.standard_normal()
            P[comp] += amp * np.cos(ka * np.pi * x + rng.uniform(0, np.pi))[:, None] * trig(kb * b)
    return P


def uniform_chart(Na, grid, rng):
    r = np.linspace(1.0, 2.0, Na)
    return smooth_chart(r, grid, rng), r[1] - r[0]


class RowFunction:
    """The rows of an array chart, fetched as a row function; records each
    (lo, hi) asked for."""

    def __init__(self, P):
        self.P = P
        self.calls = []

    def __call__(self, lo, hi):
        self.calls.append((lo, hi))
        return self.P[:, lo:hi].copy()


def check_uniform(P, grid, h, order, n):
    """The array chart, the row-function chart and the whole-chart
    reference give the same bits; the row function is asked for every row
    and for at most one block plus its halo at a time."""
    H_ref, A2_ref = uniform_reference(P, grid, h, order, n)
    Na = P.shape[1]
    rows = RowFunction(P)
    for surf in (uniform_surface(P, grid, h, order=order),
                 uniform_surface(rows, grid, h, order=order, rows=Na)):
        H = surf.mean_curvature(n)
        A2 = surf.second_fundamental_sq(n)
        assert H.shape == A2.shape == (Na, grid.t.size)
        assert np.array_equal(H, H_ref)
        assert np.array_equal(A2, A2_ref)
    blocks = -(-Na // BLOCK)
    assert len(rows.calls) == 2 * blocks
    assert rows.calls[0][0] == 0 and rows.calls[blocks - 1][1] == Na
    assert all(0 < hi - lo <= max(BLOCK + order, order + 3) for lo, hi in rows.calls)


ROWS = st.one_of(st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1]), st.integers(7, 3 * BLOCK + 7))


class TestBlockedEngine:
    @PROPERTY
    @given(
        kind=st.sampled_from(["uniform2", "uniform4", "matrix"]),
        Na=ROWS,
        n=st.integers(3, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_whole_chart_reference(self, kind, Na, n, seed):
        grid = ZonalGrid(n, 8, 48)
        rng = np.random.default_rng(seed)
        if kind != "matrix":
            P, h = uniform_chart(Na, grid, rng)
            check_uniform(P, grid, h, 2 if kind == "uniform2" else 4, n)
            return
        r, D1 = cheb_nodes_matrix(Na, 1.0, 2.0)
        P = smooth_chart(r, grid, rng)
        surf = matrix_surface(P, grid, D1)
        DD = D1 @ D1
        forms = reference_forms(P, grid, lambda F: D1 @ F, lambda F: DD @ F)
        assert np.array_equal(surf.mean_curvature(n), reference_mean_curvature(P, forms, n))
        assert np.array_equal(surf.second_fundamental_sq(n),
                              reference_second_fundamental_sq(P, forms, n))

    @PROPERTY
    @given(
        order=st.sampled_from([2, 4]),
        sizes=st.tuples(ROWS, ROWS),
        n=st.integers(3, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_two_charts_through_one_buffer_set(self, order, sizes, n, seed):
        # a block's forms are views into the buffers of the grid's size
        # until the next block of any walk: two charts on one grid, walked
        # one after the other and then block by block in turn, each give
        # their own whole-chart reference
        grid = ZonalGrid(n, 8, 48)
        rng = np.random.default_rng(seed)
        surfaces, refs = [], []
        for Na in sizes:
            P, h = uniform_chart(Na, grid, rng)
            refs.append(uniform_reference(P, grid, h, order, n))
            surfaces.append(uniform_surface(RowFunction(P), grid, h, order=order, rows=Na))
        for surf, (H, A2) in zip(surfaces, refs):
            assert np.array_equal(surf.mean_curvature(n), H)
            assert np.array_equal(surf.second_fundamental_sq(n), A2)
        walks = [surf.block_peaks(n, 0) for surf in surfaces]
        for pair in itertools.zip_longest(*walks):
            for got, (H, _) in zip(pair, refs):
                if got is not None:
                    rows, peak = got
                    assert peak == np.max(np.abs(H[rows]))

    @PROPERTY
    @given(
        order=st.sampled_from([2, 4]),
        sizes=st.tuples(ROWS, ROWS),
        n=st.integers(3, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_row_function_may_walk_a_chart_of_its_own(self, order, sizes, n, seed):
        # the outer chart's row function walks a second chart on the same
        # grid, through the same buffers, before each of its blocks; the
        # engine reads a block's forms before it fetches the next block's
        # rows, so both charts keep their whole-chart reference's bits
        grid = ZonalGrid(n, 8, 48)
        rng = np.random.default_rng(seed)
        (P, h), (Q, k) = (uniform_chart(Na, grid, rng) for Na in sizes)
        H_P, A2_P = uniform_reference(P, grid, h, order, n)
        H_Q, _ = uniform_reference(Q, grid, k, order, n)
        inner = uniform_surface(RowFunction(Q), grid, k, order=order, rows=Q.shape[1])
        walks = []

        def points(lo, hi):
            walks.append(inner.mean_curvature(n))
            return P[:, lo:hi].copy()

        outer = uniform_surface(points, grid, h, order=order, rows=P.shape[1])
        assert np.array_equal(outer.mean_curvature(n), H_P)
        assert np.array_equal(outer.second_fundamental_sq(n), A2_P)
        assert len(walks) == 2 * -(-P.shape[1] // BLOCK)
        assert all(np.array_equal(H, H_Q) for H in walks)

    @PROPERTY
    @given(
        order=st.sampled_from([2, 4]),
        Na=ROWS,
        cut=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_past_a_change_keep_their_bits(self, order, Na, cut, seed):
        # two charts that differ only in rows < p give the same H bits on
        # every row >= p + 8: the catenoid oracle's cache of the bare
        # catenoid's block peaks rests on this
        grid = ZonalGrid(3, 8, 48)
        rng = np.random.default_rng(seed)
        P, h = uniform_chart(Na, grid, rng)
        p = 1 + int(cut * (Na - 1))
        Q = P.copy()
        Q[:, :p] *= 1.0 + 1e-3 * rng.standard_normal((3, p, 1))
        H_P = uniform_surface(P, grid, h, order=order).mean_curvature(3)
        H_Q = uniform_surface(RowFunction(Q), grid, h, order=order, rows=Na).mean_curvature(3)
        assert np.array_equal(H_P[p + 8:], H_Q[p + 8:])
        assert not np.array_equal(H_P[:p], H_Q[:p])

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("tail", range(1, 7))
    def test_tail_blocks_of_few_rows(self, order, tail):
        # the last block is shorter than the one-sided stencils; its halo
        # widens to the rows they take
        grid = ZonalGrid(3, 8, 48)
        P, h = uniform_chart(2 * BLOCK + tail, grid, np.random.default_rng(tail))
        check_uniform(P, grid, h, order, 3)

    @PROPERTY
    @given(
        kind=st.sampled_from(["array", "rows"]),
        order=st.sampled_from([2, 4]),
        margin=st.integers(0, 5),
        Na=st.one_of(ROWS, st.integers(3 * BLOCK + 1, 4 * BLOCK - 1)),
        n=st.integers(3, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_max_abs_equals_whole_chart_reference(self, kind, order, margin, Na, n, seed):
        # sup |H| between the margins, block by block, is the whole H's to the bit
        grid = ZonalGrid(n, 8, 48)
        P, h = uniform_chart(Na, grid, np.random.default_rng(seed))
        H_ref, _ = uniform_reference(P, grid, h, order, n)
        chart = P if kind == "array" else RowFunction(P)
        surf = uniform_surface(chart, grid, h, order=order, rows=Na)
        interior = H_ref[margin:Na - margin]
        if interior.size == 0:
            with pytest.raises(ValueError):
                surf.max_abs_mean_curvature(n, margin)
            return
        assert surf.max_abs_mean_curvature(n, margin) == np.max(np.abs(interior))

    def test_max_abs_on_a_collocation_chart_and_its_edge_cases(self):
        grid = ZonalGrid(3, 8, 48)
        r, D1 = cheb_nodes_matrix(BLOCK + 9, 1.0, 2.0)
        P = smooth_chart(r, grid, np.random.default_rng(3))
        surf = matrix_surface(P, grid, D1)
        H = surf.mean_curvature(3)
        for margin in (0, 1, 9, 10, 64):
            interior = H[margin:H.shape[0] - margin]
            assert surf.max_abs_mean_curvature(3, margin) == np.max(np.abs(interior))
        # an empty interior raises, as np.max of an empty array does
        for margin in ((BLOCK + 9) // 2 + 1, BLOCK + 9):
            with pytest.raises(ValueError, match="no rows inside the margin"):
                surf.max_abs_mean_curvature(3, margin)
        # a NaN anywhere between the margins is the result, not skipped
        bad = P.copy()
        bad[2, BLOCK + 2, 5] = np.nan
        assert np.isnan(matrix_surface(bad, grid, D1).max_abs_mean_curvature(3, 1))

    def test_max_abs_peak_is_one_block_not_the_chart(self):
        # the reduction holds no H: its peak is one block's temporaries
        # (about 61 block-sized arrays, with the FFTs' complex ones), the
        # same for a row-function chart of 3 blocks and of 48; mean_curvature
        # on 48 blocks peaks at about 109, H taking 48 of them
        grid = ZonalGrid(3, 8, 48)
        block_bytes = BLOCK * grid.t.size * 8
        peaks = []
        for blocks in (3, 48):
            P, h = uniform_chart(blocks * BLOCK, grid, np.random.default_rng(0))
            surf = uniform_surface(RowFunction(P), grid, h, order=4, rows=blocks * BLOCK)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                surf.max_abs_mean_curvature(3, 4)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + block_bytes
        assert peaks[1] <= 64 * block_bytes

    def test_peak_memory_bounded_by_chart_size(self):
        grid = ZonalGrid(3, 8, 48)
        P, h = uniform_chart(6000, grid, np.random.default_rng(0))
        surf = uniform_surface(P, grid, h, order=4)
        # the first walk on a grid of this size makes the buffer set that
        # every later walk on such a grid writes its forms into
        uniform_surface(P[:, :BLOCK], grid, h, order=4).mean_curvature(3)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            surf.mean_curvature(3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output, a third of the chart, and one block's temporaries
        # (about 0.55x in all; 0.72x when every block allocated its forms);
        # P_a and P_aa over all rows took the peak to about 3.3x, and the
        # whole-chart evaluation to about 9x
        assert peak <= 0.6 * P.nbytes
