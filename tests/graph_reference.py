"""References for the sample-graph oracles of verify.

chord_arc_dict_remap is the chord_arc that remapped the ball's edge list
through a dict of Python ints; grid_edges_node_by_node lists every edge of
_grid_edges one node at a time and measures the lengths by the gather over
the whole edge list that the per-move slices replaced.  The tests compare
the shipped oracles against both for equality.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

MOVES = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1),
    (1, 2, 0), (2, 1, 0), (1, -2, 0), (2, -1, 0),
    (0, 1, 2), (0, 2, 1), (0, 1, -2), (0, 2, -1),
)


def chord_arc_dict_remap(graph, x_index, R):
    pts = graph.points
    n = pts.shape[1] - 1
    d_ext = np.linalg.norm(pts - pts[x_index], axis=1)
    inside = d_ext <= R
    sub = np.where(inside)[0]
    sub_index = {g: i for i, g in enumerate(sub)}
    rows, cols, w = graph.edges
    keep = inside[rows] & inside[cols]
    m = coo_matrix(
        (w[keep], ([sub_index[i] for i in rows[keep]], [sub_index[j] for j in cols[keep]])),
        shape=(sub.size, sub.size),
    )
    dist_in = dijkstra(m, directed=False, indices=sub_index[x_index])
    finite = np.isfinite(dist_in)
    rho = float(np.max(dist_in[finite]))
    boundary_touch = bool(R > 0.97 * np.max(d_ext))
    return {
        "rho": rho,
        "c_fit": rho / R**n,
        "ratio_R": rho / R,
        "component_size": int(finite.sum()),
        "window_boundary_touched": boundary_touch,
    }


def grid_edges_node_by_node(shape, pts_flat):
    """Edges move by move, each move's sources in C order; a move that
    leaves the grid from a node gives no edge."""
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    rows, cols = [], []
    for move in MOVES:
        for node in np.ndindex(*shape):
            other = tuple(int(i + d) for i, d in zip(node, move))
            if all(0 <= i < extent for i, extent in zip(other, shape)):
                rows.append(idx[node])
                cols.append(idx[other])
    rows = np.array(rows, dtype=idx.dtype)
    cols = np.array(cols, dtype=idx.dtype)
    w = np.linalg.norm(pts_flat[rows] - pts_flat[cols], axis=1)
    return rows, cols, w
