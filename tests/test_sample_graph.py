"""The sample-graph oracles on index arrays.

chord_arc and _grid_edges are checked for equality against the dict remap
and the whole-edge-list gather they replaced (tests/graph_reference.py),
and the peak memory of a graph build is bounded by a small multiple of its
edge arrays.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
from graph_reference import chord_arc_dict_remap, grid_edges_node_by_node
from hypothesis import example, given, settings, strategies as st

from minsurflab.verify import _grid_edges, catenoid_sample_graph, chord_arc, plane_sample_graph

PROPERTY = settings(max_examples=24, deadline=None, derandomize=True, database=None)

# (graph, its (profile, colatitude, orbit) grid shape); the orbit axis is
# periodic, the other two end in boundary nodes
GRAPHS = {
    "plane": (lambda n, size: plane_sample_graph(n, extent=4.0 * size), (60, 20, 48)),
    "catenoid": (lambda n, size: catenoid_sample_graph(n, scale=size), (90, 20, 40)),
}


@lru_cache(maxsize=1)
def sample_graph(kind, n, size):
    build, shape = GRAPHS[kind]
    g = build(n, size)
    assert g.points.shape[0] == np.prod(shape)
    return g


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
        g = sample_graph(kind, n, size)
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
        assert rep == chord_arc_dict_remap(g, x, R)
        if where == "below spacing":
            assert rep["component_size"] == 1 and rep["rho"] == 0.0
        if where == "past window":
            assert rep["window_boundary_touched"]
            assert rep["component_size"] == g.points.shape[0]


class TestGridEdges:
    @PROPERTY
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        n=st.integers(3, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    # axes of extent 1 and 2, where the two-step moves along them are empty
    @example(shape=(1, 1, 1), n=3, seed=0)
    @example(shape=(2, 1, 2), n=4, seed=1)
    @example(shape=(3, 2, 1), n=5, seed=2)
    @example(shape=(1, 2, 2), n=3, seed=3)
    def test_equals_node_by_node_reference(self, shape, n, seed):
        pts = np.random.default_rng(seed).normal(size=(int(np.prod(shape)), n + 1))
        rows, cols, w = _grid_edges(shape, pts)
        ref_rows, ref_cols, ref_w = grid_edges_node_by_node(shape, pts)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(cols, ref_cols)
        assert np.array_equal(w, ref_w)

    def test_build_peak_memory_bounded_by_edges(self):
        tracemalloc.start()
        try:
            g = catenoid_sample_graph(3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the points, the edge arrays and one move's temporaries; gathering
        # the lengths over the whole edge list peaks at about 4x
        assert peak <= 3 * sum(a.nbytes for a in g.edges)
