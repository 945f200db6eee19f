"""The blocked curvature engine of OrbitSurface.

mean_curvature and second_fundamental_sq are checked for bit equality
against the whole-chart evaluation they replaced, kept here as the
reference: on array charts of every kind, and on uniform-grid charts given
as row functions, whose blocks are differenced on their own rows plus a
halo.  The engine's peak memory is bounded by a fraction of the chart's own
size, and a row-function chart is fetched one block at a time.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minsurflab.diffops import cheb_nodes_matrix, fd_derivative
from minsurflab.geometry import BLOCK, graph_orbit_points, matrix_surface, uniform_surface
from minsurflab.spectral import ZonalGrid

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

PARITY = (+1, -1, +1)


def reference_forms(P, grid, d_a, d_aa):
    """Whole-chart forms: nine per-component d_beta calls on all rows."""
    db = grid.d_beta
    Pa = np.stack([d_a(P[i]) for i in range(3)])
    Pb = np.stack([db(P[i], PARITY[i]) for i in range(3)])
    Paa = np.stack([d_aa(P[i]) for i in range(3)])
    Pab = np.stack([db(d_a(P[i]), PARITY[i]) for i in range(3)])
    Pbb = np.stack([db(P[i], PARITY[i], 2) for i in range(3)])
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
    d_a = lambda F: fd_derivative(F, h, 0, 1, order)  # noqa: E731
    d_aa = lambda F: fd_derivative(F, h, 0, 2, order)  # noqa: E731
    forms = reference_forms(P, grid, d_a, d_aa)
    H_ref = reference_mean_curvature(P, forms, n)
    A2_ref = reference_second_fundamental_sq(P, forms, n)
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

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("tail", range(1, 7))
    def test_tail_blocks_of_few_rows(self, order, tail):
        # the last block is shorter than the one-sided stencils; its halo
        # widens to the rows they take
        grid = ZonalGrid(3, 8, 48)
        P, h = uniform_chart(2 * BLOCK + tail, grid, np.random.default_rng(tail))
        check_uniform(P, grid, h, order, 3)

    def test_peak_memory_bounded_by_chart_size(self):
        grid = ZonalGrid(3, 8, 48)
        P, h = uniform_chart(6000, grid, np.random.default_rng(0))
        surf = uniform_surface(P, grid, h, order=4)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            surf.mean_curvature(3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output, a third of the chart, and one block's temporaries
        # (about 0.72x in all); P_a and P_aa over all rows took the peak to
        # about 3.3x, and the whole-chart evaluation to about 9x
        assert peak <= 0.8 * P.nbytes
