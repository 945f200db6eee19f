"""The blocked curvature engine of OrbitSurface.

mean_curvature and second_fundamental_sq are checked for bit equality
against the whole-chart evaluation they replaced, kept here as the
reference, and the engine's peak memory is bounded by a small multiple of
the chart's own size.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from minsurflab.diffops import cheb_nodes_matrix
from minsurflab.geometry import BLOCK, graph_orbit_points, matrix_surface, uniform_surface
from minsurflab.spectral import ZonalGrid

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

PARITY = (+1, -1, +1)


def reference_forms(surf):
    """Whole-chart forms: nine per-component d_beta calls on all rows."""
    P, db = surf.P, surf.grid.d_beta
    Pa = np.stack([surf.d_a(P[i]) for i in range(3)])
    Pb = np.stack([db(P[i], PARITY[i]) for i in range(3)])
    Paa = np.stack([surf.d_aa(P[i]) for i in range(3)])
    Pab = np.stack([db(surf.d_a(P[i]), PARITY[i]) for i in range(3)])
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


def reference_mean_curvature(surf, n):
    E, F, G, L, M, NN, Nvec = reference_forms(surf)
    det = E * G - F * F
    h2 = (G * L - 2 * F * M + E * NN) / det
    return h2 - (n - 2) * Nvec[1] / surf.P[1]


def reference_second_fundamental_sq(surf, n):
    E, F, G, L, M, NN, Nvec = reference_forms(surf)
    det = E * G - F * F
    tr = (G * L - 2 * F * M + E * NN) / det
    dt = (L * NN - M * M) / det
    disc = np.clip(tr * tr - 4 * dt, 0.0, None)
    k1 = 0.5 * (tr + np.sqrt(disc))
    k2 = 0.5 * (tr - np.sqrt(disc))
    krot = -Nvec[1] / surf.P[1]
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


def make_surface(kind, Na, grid, rng):
    if kind == "matrix":
        r, D1 = cheb_nodes_matrix(Na, 1.0, 2.0)
        return matrix_surface(smooth_chart(r, grid, rng), grid, D1)
    r = np.linspace(1.0, 2.0, Na)
    order = 2 if kind == "uniform2" else 4
    return uniform_surface(smooth_chart(r, grid, rng), grid, r[1] - r[0], order=order)


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
        surf = make_surface(kind, Na, grid, np.random.default_rng(seed))
        H = surf.mean_curvature(n)
        A2 = surf.second_fundamental_sq(n)
        assert H.shape == A2.shape == (Na, grid.t.size)
        assert np.array_equal(H, reference_mean_curvature(surf, n))
        assert np.array_equal(A2, reference_second_fundamental_sq(surf, n))

    def test_peak_memory_bounded_by_chart_size(self):
        grid = ZonalGrid(3, 8, 48)
        r = np.linspace(1.0, 2.0, 6000)
        surf = make_surface("uniform4", r.size, grid, np.random.default_rng(0))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            surf.mean_curvature(3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Pa and Paa over all rows, the output and one block's temporaries;
        # the whole-chart evaluation peaks at about 9x
        assert peak <= 4 * surf.P.nbytes
