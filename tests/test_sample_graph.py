"""The sample-graph oracles on adjacencies built from the grid.

The grid's adjacency, chord_arc and graphical_radius are checked for
equality against references that take their edges node by node from the
grid (tests/graph_reference.py), and the adjacency of a node subset against
the rows and columns of the grid's.  A graph holds only its points, and the
peak memory of a graph build, of an adjacency build and of the heaviest
chord_arc query is bounded by a small multiple of the arrays they hold.
"""

import dataclasses
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from graph_reference import (
    CATENOID_SHAPE,
    PLANE_SHAPE,
    chord_arc_dict_remap,
    graphical_radius_coo,
    orbit_edges,
)
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import coo_matrix

from minsurflab.verify import (
    GRAPH_BLOCK,
    _orbit_adjacency,
    catenoid_sample_graph,
    chord_arc,
    graphical_radius,
    plane_sample_graph,
)

PROPERTY = settings(max_examples=24, deadline=None, derandomize=True, database=None)

# (graph, its (profile, colatitude, orbit) grid shape); the orbit axis is
# periodic, the other two end in boundary nodes
GRAPHS = {
    "plane": (lambda n, size: plane_sample_graph(n, extent=4.0 * size), PLANE_SHAPE),
    "catenoid": (lambda n, size: catenoid_sample_graph(n, scale=size, s_window=3.0), CATENOID_SHAPE),
}


def csr_bytes(A):
    return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


def whole_adjacency(shape, pts):
    return _orbit_adjacency(shape, pts, np.ones(pts.shape[0], dtype=bool))


def traced_peak(call):
    """call's value and the peak of the memory it allocates."""
    tracemalloc.start()
    try:
        value = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


def assert_same_csr(A, B):
    assert A.shape == B.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(A, name).dtype == getattr(B, name).dtype
        assert np.array_equal(getattr(A, name), getattr(B, name))


@lru_cache(maxsize=1)
def sample_graph(kind, n, size):
    """The graph and its reference edges."""
    build, shape = GRAPHS[kind]
    g = build(n, size)
    assert g.points.shape[0] == np.prod(shape)
    return g, orbit_edges(shape, g.points)


@st.composite
def graph_points(draw, kind):
    """Any node, or a node on the first or last profile or colatitude row."""
    shape = GRAPHS[kind][1]
    node = [draw(st.integers(0, extent - 1)) for extent in shape]
    if draw(st.booleans()):
        axis = draw(st.sampled_from([0, 1]))
        node[axis] = draw(st.sampled_from([0, shape[axis] - 1]))
    return int(np.ravel_multi_index(node, shape))


class TestChordArc:
    @PROPERTY
    @given(
        kind=st.sampled_from(sorted(GRAPHS)),
        n=st.integers(3, 5),
        size=st.sampled_from([0.5, 1.0]),
        data=st.data(),
    )
    def test_equals_dict_remap_reference(self, kind, n, size, data):
        g, edges = sample_graph(kind, n, size)
        x = data.draw(graph_points(kind))
        d_ext = np.linalg.norm(g.points - g.points[x], axis=1)
        where = data.draw(st.sampled_from(["below spacing", "ball", "ball", "past window"]))
        if where == "below spacing":
            R = 0.5 * float(np.partition(d_ext, 1)[1])
        elif where == "ball":
            R = data.draw(st.floats(0.01, 0.5)) * float(d_ext.max())
        else:
            R = data.draw(st.floats(1.0, 1.5)) * float(d_ext.max())
        rep = chord_arc(g, x, R)
        assert rep == chord_arc_dict_remap(g.points, edges, x, R)
        if where == "below spacing":
            assert rep["component_size"] == 1 and rep["rho"] == 0.0
        if where == "past window":
            assert rep["window_boundary_touched"]
            assert rep["component_size"] == g.points.shape[0]


SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
# first axes over several blocks of the build, the last one partial
BLOCK_SHAPES = st.tuples(
    st.integers(GRAPH_BLOCK + 1, 3 * GRAPH_BLOCK - 1), st.integers(1, 4), st.integers(1, 5)
)


class TestGridEdges:
    @PROPERTY
    @given(shape=SHAPES, n=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
    # axes of extent 1 and 2, where the two-step moves along them are empty
    @example(shape=(1, 1, 1), n=3, seed=0)
    @example(shape=(2, 1, 2), n=4, seed=1)
    @example(shape=(3, 2, 1), n=5, seed=2)
    @example(shape=(1, 2, 2), n=3, seed=3)
    # first axes over several blocks of the build, the last one partial
    @example(shape=(2 * GRAPH_BLOCK + 3, 3, 4), n=3, seed=4)
    @example(shape=(3 * GRAPH_BLOCK + 1, 2, 1), n=4, seed=5)
    @example(shape=(GRAPH_BLOCK + 2, 1, 3), n=5, seed=6)
    # the shipped catenoid and plane graphs
    @example(shape=CATENOID_SHAPE, n=3, seed=7)
    @example(shape=PLANE_SHAPE, n=3, seed=8)
    def test_equals_node_by_node_reference(self, shape, n, seed):
        N = int(np.prod(shape))
        pts = np.random.default_rng(seed).normal(size=(N, n + 1))
        rows, cols, w = orbit_edges(shape, pts)
        assert_same_csr(whole_adjacency(shape, pts), coo_matrix((w, (rows, cols)), shape=(N, N)).tocsr())

    @PROPERTY
    @given(
        shape=st.one_of(SHAPES, BLOCK_SHAPES),
        n=st.integers(3, 5),
        mask=st.sampled_from(["node", "every", "subset", "ball"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(1, 1, 1), n=3, mask="node", seed=0)
    @example(shape=(2 * GRAPH_BLOCK + 3, 3, 4), n=3, mask="ball", seed=1)
    @example(shape=(3 * GRAPH_BLOCK + 1, 2, 1), n=4, mask="subset", seed=2)
    @example(shape=(GRAPH_BLOCK + 2, 1, 3), n=5, mask="node", seed=3)
    def test_subset_equals_rows_and_columns_of_the_grid(self, shape, n, mask, seed):
        N = int(np.prod(shape))
        rng = np.random.default_rng(seed)
        # points in grid order, so that an extrinsic ball is a contiguous patch
        index = np.stack(np.unravel_index(np.arange(N), shape), axis=1)
        pts = np.concatenate([index, np.zeros((N, n - 2))], axis=1) + 0.1 * rng.normal(size=(N, n + 1))
        x = int(rng.integers(N))
        if mask == "node":
            keep = np.arange(N) == x
        elif mask == "every":
            keep = np.ones(N, dtype=bool)
        elif mask == "subset":
            keep = rng.random(N) < rng.uniform(0.1, 0.9)
        else:
            keep = np.linalg.norm(pts - pts[x], axis=1) <= rng.uniform(0.5, 4.0)
        assert_same_csr(_orbit_adjacency(shape, pts, keep), whole_adjacency(shape, pts)[keep][:, keep])

    @pytest.mark.parametrize("shape", [(2, 2, 1), (1, 2, 2), (3, 1, 3)])
    def test_every_edge_is_stored_once_off_the_diagonal(self, shape):
        # with one orbit node the wrap would be a self-loop, with two a
        # second copy of the grid edge between them
        N = int(np.prod(shape))
        pts = np.random.default_rng(0).normal(size=(N, 4))
        A = whole_adjacency(shape, pts)
        rows = np.repeat(np.arange(N), np.diff(A.indptr))
        assert not np.any(A.indices == rows)
        assert A.multiply(A.T).nnz == 0
        if shape == (1, 2, 2):
            # the two orbit pairs, k = 0 to 1 at j = 0 and at j = 1, one entry each
            assert A[0, 1] > 0 and A[2, 3] > 0 and A[1, 0] == 0 and A[3, 2] == 0

    def test_holds_only_its_points(self):
        for kind, (build, shape) in GRAPHS.items():
            g, peak = traced_peak(lambda: build(3, 1.0))
            assert [f.name for f in dataclasses.fields(g)] == ["points", "shape"]
            assert g.shape == shape and all(type(e) is int for e in g.shape)
            # the points and the orbit lifts, about 1.34x; a graph build that
            # also held an adjacency would pass 6x
            assert peak <= 1.5 * g.points.nbytes, kind

    def test_build_peak_memory_bounded_by_edges(self):
        pts = catenoid_sample_graph(3, scale=1.0, s_window=3.0).points
        A, peak = traced_peak(lambda: whole_adjacency(CATENOID_SHAPE, pts))
        # the CSR arrays, the edge counts and one block's tables, about 1.2x;
        # a build that held a second copy of the edge arrays would pass 2x
        assert peak <= 1.5 * csr_bytes(A)


class TestQueries:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", sorted(GRAPHS))
    def test_graphical_radius_equals_edge_list_reference(self, kind, n):
        g, edges = sample_graph(kind, n, 1.0)
        near = np.zeros(n + 1) if kind == "plane" else np.eye(n + 1)[0]
        x = int(np.argmin(np.linalg.norm(g.points - near, axis=1)))
        C_A = float(np.sqrt(n * (n - 1.0)))
        assert graphical_radius(g, x, C_A) == graphical_radius_coo(g.points, edges, x, C_A)

    def test_chord_arc_peak_memory_bounded_by_adjacency(self):
        # the verify workload's heaviest query: the ball holds most nodes
        g = catenoid_sample_graph(3, scale=1.0, s_window=3.0)
        x = int(np.argmin(np.linalg.norm(g.points - np.eye(4)[0], axis=1)))
        _, peak = traced_peak(lambda: chord_arc(g, x, 8.0))
        inside = np.linalg.norm(g.points - g.points[x], axis=1) <= 8.0
        ball = csr_bytes(_orbit_adjacency(g.shape, g.points, inside))
        # the ball's CSR and dijkstra's transpose of it, about 2.1x the
        # ball's arrays and 1.7x the whole graph's; a query that cut the
        # ball from a whole adjacency would hold that too and pass 3x the
        # ball's, and one that built an edge list would pass 2x the graph's
        assert peak <= 2.25 * ball
        assert peak <= 2 * csr_bytes(whole_adjacency(g.shape, g.points))
