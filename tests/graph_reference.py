"""References for the sample-graph oracles of verify.

Every reference takes its edges from orbit_edges, never from the graph under
test: grid_edges_node_by_node lists every grid edge one node at a time, and
orbit_edges adds the wrap edges of the periodic orbit axis, one node at a
time too, and measures the lengths by a gather over the whole edge list.
chord_arc_dict_remap is the chord_arc that remapped the ball's edge list
through a dict of Python ints, and graphical_radius_coo is the
graphical_radius that ran dijkstra on the edge list.  The tests compare the
shipped oracles against them for equality.
"""

from functools import cache

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

MOVES = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1),
    (1, 2, 0), (2, 1, 0), (1, -2, 0), (2, -1, 0),
    (0, 1, 2), (0, 2, 1), (0, 1, -2), (0, 2, -1),
)

# (profile, colatitude, orbit) grid shapes of the plane and catenoid graphs
PLANE_SHAPE = (60, 20, 48)
CATENOID_SHAPE = (90, 20, 40)


def grid_edges_node_by_node(shape):
    """(rows, cols) of the grid edges, move by move, each move's sources in
    C order; a move that leaves the grid from a node gives no edge."""
    S0, S1, S2 = shape
    rows, cols = [], []
    for d0, d1, d2 in MOVES:
        for i in range(S0):
            for j in range(S1):
                for k in range(S2):
                    a, b, c = i + d0, j + d1, k + d2
                    if 0 <= a < S0 and 0 <= b < S1 and 0 <= c < S2:
                        rows.append((i * S1 + j) * S2 + k)
                        cols.append((a * S1 + b) * S2 + c)
    return rows, cols


@cache
def _orbit_edge_index(shape):
    rows, cols = grid_edges_node_by_node(shape)
    S0, S1, S2 = shape
    # one or two orbit nodes have no wrap: it would be a self-loop or a
    # second copy of the grid edge between the two
    if S2 >= 3:
        for i in range(S0):
            for j in range(S1):
                rows.append((i * S1 + j) * S2 + S2 - 1)
                cols.append((i * S1 + j) * S2)
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)


def orbit_edges(shape, pts_flat):
    """(rows, cols, lengths): the grid edges, then the wrap from each node at
    the last orbit angle to the node at the first, when there are at least
    three."""
    rows, cols = _orbit_edge_index(tuple(shape))
    return rows, cols, np.linalg.norm(pts_flat[rows] - pts_flat[cols], axis=1)


def chord_arc_dict_remap(points, edges, x_index, R):
    pts = points
    n = pts.shape[1] - 1
    d_ext = np.linalg.norm(pts - pts[x_index], axis=1)
    inside = d_ext <= R
    sub = np.where(inside)[0]
    sub_index = {g: i for i, g in enumerate(sub)}
    rows, cols, w = edges
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


def graphical_radius_coo(points, edges, x_index, C_A):
    pts = points
    rows, cols, w = edges
    m = coo_matrix((w, (rows, cols)), shape=(pts.shape[0], pts.shape[0]))
    dist = dijkstra(m, directed=False, indices=x_index)
    finite = np.isfinite(dist)
    near = np.argsort(dist + ~finite * 1e18)[:40]
    Q = pts[near] - pts[x_index]
    _, _, vt = np.linalg.svd(Q, full_matrices=False)
    normal = vt[-1]
    dmax = np.max(dist[finite])
    radii = np.geomspace(0.02 * dmax, 0.98 * dmax, 26)
    R_graph = 0.0
    for R in radii:
        ball = finite & (dist <= R)
        if ball.sum() < 8:
            continue
        Q = pts[ball] - pts[x_index]
        h = Q @ normal
        tang = Q - np.outer(h, normal)
        tnorm = np.linalg.norm(tang, axis=1)
        mask = tnorm > 1e-9
        slope = np.abs(h[mask]) / tnorm[mask]
        ok = np.max(slope) < 1.0 if slope.size else True
        if ok:
            R_graph = float(R)
        else:
            break
    d_ext = np.linalg.norm(pts - pts[x_index], axis=1)
    delta_c = 0.0
    if R_graph > 0:
        R = R_graph
        for fac in np.linspace(0.05, 1.0, 20):
            inside = d_ext <= fac * R
            if np.all(dist[inside & finite] <= R / 2.0 + 1e-12):
                delta_c = float(fac)
            else:
                break
    return {"R_graph": R_graph, "delta_c": delta_c, "R_times_CA": R_graph * C_A}
