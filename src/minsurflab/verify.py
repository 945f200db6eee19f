"""Independent verification: residual oracles, curvature, embeddedness,
chord-arc and graphical-radius measurements, stability, and the separation
PDE check.

Every evaluation here is structurally independent of the solver paths:
different stencil orders, offset resampled grids, analytic
surface-of-revolution formulas, and shortest paths on sampled graphs.  A
sampled graph holds only its points and grid shape: the grid implies the
edges, and each query builds the adjacency of the nodes it reads.
Embeddedness of hypersurfaces in R^{n+1} is certified through separation
functions and box disjointness, never through rendering.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry import graph_orbit_points, uniform_surface
from .neck import graph_surface
from .outer import CORE_SPAN, CORE_STEP
from .profile import profile_values
from .spectral import angular_grid, sphere_area

log = logging.getLogger(__name__)

DELTA1 = {3: 3.0 / 8.0, 4: 2.0 / 3.0, 5: 21.0 / 22.0}  # 1 - stability windows


# -- chart sampling ------------------------------------------------------------------


@dataclass
class ChartSampleGraph:
    """Sampled chart points on an (i, j, k) grid whose k axis is periodic.

    The grid implies the edges: each node is joined to its neighbours by the
    grid moves and by the wrap from the last k to the first, each edge
    weighted by its chordal length.  No adjacency is stored; each query
    builds, with _orbit_adjacency, the CSR of the nodes it reads.
    """

    points: np.ndarray  # (N, n+1) ambient coordinates, in C order of the grid
    shape: tuple  # (profile, colatitude, orbit) grid extents


# neighbor and knight moves on an (i, j, k) grid; the two-ring moves keep the
# graph-metric distortion under ~3 percent
GRID_MOVES = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1),
    (1, 2, 0), (2, 1, 0), (1, -2, 0), (2, -1, 0),
    (0, 1, 2), (0, 2, 1), (0, 1, -2), (0, 2, -1),
)


# first-axis grid rows per block of the adjacency build: each block's tables
# take about 0.3 MB per row of the shipped graphs
GRAPH_BLOCK = 8


def _lengths(v: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the rows of v (M, d).

    The squares are summed over the columns in order, the sum that
    np.linalg.norm(v, axis=1) takes, so every length is the same to the last
    bit, without the overhead of its reduce along a short axis.
    """
    sq = v[:, 0] * v[:, 0]
    for k in range(1, v.shape[1]):
        sq += v[:, k] * v[:, k]
    return np.sqrt(sq, out=sq)


def _inside(d, extent: int, at):
    """Whether a step of d from each position in at stays in range(extent)."""
    return (at + d >= 0) & (at + d < extent)


def _orbit_adjacency(shape, pts_flat, keep):
    """CSR adjacency of the nodes of an (i, j, k) grid where keep is true,
    renumbered in order; the k axis is periodic.  The edges are the grid
    moves, plus the wrap from the last k to the first if there are three or
    more, that join two kept nodes, each weighted by its chordal length and
    stored once, in the row of the node it leaves.

    A node's neighbours are its flat index plus each move's flat offset, so
    taking the moves in the order of their offsets leaves every row's
    columns sorted, and the matrix equals the rows and columns keep of the
    whole grid's adjacency.  The build walks blocks of GRAPH_BLOCK rows along
    the first axis and skips the blocks with no kept node.  A block's tables
    hold one row per move, so that each move reads and writes contiguous
    runs: the mask of the moves that stay on the grid between two kept
    nodes, the renumbered targets and the edge lengths.  The first pass
    counts the kept edges of each node, and the second recomputes the mask
    and compacts the tables, node by node, straight into the CSR arrays of
    exact size, so only one block's tables are held at a time.
    """
    from scipy.sparse import csr_matrix

    N = int(np.prod(shape))
    S0, S1, S2 = shape
    row = S1 * S2

    def offset(move):
        return move[0] * row + move[1] * S2 + move[2]

    # with one or two orbit nodes the wrap is a self-loop or a grid move
    wrap = ((0, 0, 1 - S2),) if S2 >= 3 else ()
    moves = sorted(GRID_MOVES + wrap, key=offset)
    # each move's sources that stay on the grid along the j and k axes (moves, row)
    inner = np.stack([(_inside(dj, S1, np.arange(S1))[:, None]
                       & _inside(dk, S2, np.arange(S2))).ravel() for _, dj, dk in moves])
    blocks = [(i0 * row, min(i0 + GRAPH_BLOCK, S0) * row) for i0 in range(0, S0, GRAPH_BLOCK)
              if keep[i0 * row:(i0 + GRAPH_BLOCK) * row].any()]

    def spans(a, b):
        """(move, its sources lo:hi in nodes a:b whose targets are nodes, the target offset).

        With j and k on the grid, a target is a node exactly when its i is."""
        for m, move in enumerate(moves):
            off = offset(move)
            lo, hi = max(a, -off), min(b, N - off)
            if hi > lo:
                yield m, lo, hi, off

    def kept_edges(a, b):
        """Which moves from each of nodes a:b join two kept nodes (moves, b - a)."""
        found = np.zeros((len(moves), b - a), dtype=bool)
        for m, lo, hi, off in spans(a, b):
            np.logical_and(keep[lo:hi], keep[lo + off:hi + off], out=found[m, lo - a:hi - a])
        by_row = found.reshape(len(moves), -1, row)
        np.logical_and(by_row, inner[:, None, :], out=by_row)
        return found

    counts = np.zeros(N, dtype=np.int32)
    for a, b in blocks:
        kept_edges(a, b).sum(axis=0, dtype=np.int32, out=counts[a:b])
    renumber = np.cumsum(keep, dtype=np.int32) - 1
    K = int(renumber[-1]) + 1
    indptr = np.zeros(K + 1, dtype=np.int32)
    np.cumsum(counts[keep], out=indptr[1:])
    del counts
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    start = 0
    for a, b in blocks:
        found = kept_edges(a, b)
        target = np.empty(found.shape, dtype=np.int32)
        length = np.empty(found.shape)
        for m, lo, hi, off in spans(a, b):
            target[m, lo - a:hi - a] = renumber[lo + off:hi + off]
            length[m, lo - a:hi - a] = _lengths(pts_flat[lo:hi] - pts_flat[lo + off:hi + off])
        # the edges of the kept nodes in a:b, taken node by node
        stop = indptr[renumber[b - 1] + 1]
        indices[start:stop] = target.T[found.T]
        data[start:stop] = length.T[found.T]
        start = stop
    return csr_matrix((data, indices, indptr), shape=(K, K))


def _orbit_graph(n: int, xq, rho, xv, n_orbit: int) -> ChartSampleGraph:
    """Sample graph of an orbit chart over sampled meridians.

    The meridian coordinates (xq, rho, xv), each (Na, Nb), are lifted to
    ambient R^{n+1} at n_orbit equally spaced angles of the orbit S^{n-2},
    sampled along a fixed 2-plane of the transverse block; intrinsic
    distances within the sampled submanifold upper-bound nothing but
    faithfully measure the zonal charts we build.  The nodes are numbered
    in C order of the (Na, Nb, n_orbit) grid, whose moves, with those
    closing the periodic orbit axis, imply the edges.
    """
    omega = np.linspace(0, 2 * np.pi, n_orbit, endpoint=False)
    shape = xq.shape + (n_orbit,)
    pts = np.zeros(shape + (n + 1,))
    pts[..., 0] = xq[..., None]
    pts[..., 1] = rho[..., None] * np.cos(omega)[None, None, :]
    pts[..., 2] = rho[..., None] * np.sin(omega)[None, None, :]
    pts[..., n] = xv[..., None]
    pts = pts.reshape(-1, n + 1)
    return ChartSampleGraph(pts, shape)


def plane_sample_graph(n: int, extent: float) -> ChartSampleGraph:
    """Sampled flat n-plane in R^{n+1} on a polar-orbit grid: 60 radii,
    20 colatitudes and 48 orbit angles."""
    m_r = 60
    r = np.linspace(extent * 1e-3, extent, m_r)
    beta = np.linspace(0.12, np.pi - 0.12, 20)
    return _orbit_graph(n, r[:, None] * np.cos(beta)[None, :], r[:, None] * np.sin(beta)[None, :],
                        np.zeros((m_r, beta.size)), 48)


def catenoid_sample_graph(n: int, scale: float, s_window: float) -> ChartSampleGraph:
    """Sampled catenoid across its neck, centered at the origin: 90 profile
    nodes, 20 colatitudes and 40 orbit angles."""
    m_s, m_b = 90, 20
    s = np.linspace(-s_window, s_window, m_s)
    phi, dphi, psi, dpsi = profile_values(n, s)
    beta = np.linspace(0.12, np.pi - 0.12, m_b)
    F = scale * phi[:, None] * np.ones((1, m_b))
    xv = scale * psi[:, None] * np.ones((1, m_b))
    return _orbit_graph(n, F * np.cos(beta)[None, :], F * np.sin(beta)[None, :], xv, 40)


# -- residual and curvature oracles -----------------------------------------------------


def _profile_chart_rows(phi, psi, grid, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of the orbit chart of the profile curve (phi, psi)."""
    return graph_orbit_points(phi[lo:hi], grid, psi[lo:hi, None] * np.ones((1, grid.t.size)))


def mc_residual(glued) -> dict:
    """Independent mean-curvature oracle over all charts of a glued surface.

    The core chart, the seed catenoid on the uniform grid of step CORE_STEP
    over |s| <= CORE_SPAN, is resampled on an offset, refined grid and
    differentiated with 4th-order stencils, its chart built and its sup |H|
    taken block by block as the curvature engine walks it; the neck and
    catenoid pieces of every level of glued.outer run the same kind of
    oracle when they are built, and their stored values are reported here,
    level by level.
    Residuals are reported raw and relative to the chart's curvature scale.
    """
    out = {}
    outer = glued.outer
    n = outer.n
    g = angular_grid(outer.spectrum)
    s = -CORE_SPAN + CORE_STEP * np.arange(int(round(2 * CORE_SPAN / CORE_STEP)) + 1)
    sf = np.linspace(s[0] + 0.05, s[-1] - 0.05, 2 * s.size)
    sf = sf + 0.37 * (sf[1] - sf[0])
    sf = sf[sf <= s[-1] - 0.05]
    phi, _, psi, _ = profile_values(n, sf)
    core = partial(_profile_chart_rows, phi, psi, g)
    surface = uniform_surface(core, g, sf[1] - sf[0], order=4, rows=sf.size)
    sup_H = surface.max_abs_mean_curvature(n, margin=3) / outer.core_scale
    A_sup = float(np.max(np.sqrt(n * (n - 1)) * phi ** (-n) / outer.core_scale))
    out["core"] = {"sup_H": sup_H, "rel": sup_H / A_sup}
    levels = outer.glue_levels
    out["neck"] = [{"sup_H": lv.neck_piece.residual, "rel": lv.neck_piece.residual_rel}
                   for lv in levels]
    # the catenoid piece stores its unit-neck oracle value at build
    out["catenoid"] = [{"sup_H_unit": lv.catenoid_piece.residual,
                        "rel": lv.catenoid_piece.residual / np.sqrt(n * (n - 1.0))}
                       for lv in levels]
    rels = [out["core"]["rel"]] + [c["rel"] for c in out["neck"] + out["catenoid"]]
    out["max_rel"] = float(np.max(rels))
    return out


def second_fund(glued) -> dict:
    """|A| profile of a glued surface: per-box suprema and the outside-boxes
    supremum, over the core chart and the neck and catenoid pieces of every
    level of glued.outer, against its neck boxes."""
    outer = glued.outer
    n = outer.n
    s = np.linspace(-CORE_SPAN, CORE_SPAN, 400)
    phi, _, psi, _ = profile_values(n, s)
    e0 = np.eye(n)[0]
    # sample points (horizontal, height) and |A|: the core about the origin,
    # then each level's pieces
    xy = [e0 * outer.core_scale * phi[:, None]]
    z = [outer.core_scale * psi]
    A = [np.sqrt(n * (n - 1.0)) * phi ** (-n) / outer.core_scale]
    for level in outer.glue_levels:
        V = level.neck_piece.V
        A2 = np.sqrt(graph_surface(V).second_fundamental_sq(n))
        xy.append(level.site.center_xy + e0 * V.grid.r[::4, None])
        z.append(level.site.height + V.values[0, ::4])
        A.append(np.max(A2[::4], axis=1))
        sc = level.catenoid_piece.scales
        phis, _, psis, _ = profile_values(n, np.linspace(sc.s_eps, sc.s_eps + 12.0, 300))
        xy.append(level.site.center_xy + e0 * sc.eps_len * phis[:, None])
        z.append(level.ring_height + sc.eps_len * (psis - sc.psi_cut))
        A.append(np.sqrt(n * (n - 1.0)) * phis ** (-n) / sc.eps_len)
    xy, z, A = np.concatenate(xy), np.concatenate(z), np.concatenate(A)
    inside = np.array([b.contains(xy, z) for b in outer.neck_boxes])
    return {"outside_sup": float(np.max(A[~inside.any(axis=0)], initial=0.0)),
            "boxes": [dict(b.to_dict(), sup_A=float(np.max(A[m], initial=0.0)))
                      for b, m in zip(outer.neck_boxes, inside)]}


# -- embeddedness ------------------------------------------------------------------------


def sheet_separation_report(pts: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> dict:
    """Certificate-or-witness for two sampled sheet height fields."""
    sep = upper - lower
    i = int(np.argmin(sep))
    if np.all(sep > 0):
        return {"positive": True, "min_separation": float(sep[i])}
    return {"positive": False, "min_separation": float(sep[i]), "witness": pts[i]}


def embeddedness(glued) -> dict:
    """Certificate: separation positivity, box disjointness, overlap scan.

    The new sheet is the newest level of glued.outer, and the old sheet
    under it is the end its site was cut from (site.end, which opens
    upward, as the top end always does); the boxes are all
    of its neck boxes and the planes all of its ends, the new one included.
    Violations return a witness; they are data, not exceptions.
    """
    outer = glued.outer
    n = outer.n
    level = outer.glue_levels[-1]
    neck = level.neck_piece
    sc = level.catenoid_piece.scales
    site = level.site
    ring_h = level.ring_height
    # probe radii across the neck chart and out into the old sheet
    radii = np.geomspace(2.0 * sc.r_eps, min(0.4 * site.r_site, 50 * site.patch.grid.r_out), 120)
    sp = _upper_branch_height(n, sc, radii)  # catenoid upper sheet over ring frame
    upper = ring_h + sp
    lower = np.empty_like(radii)
    inside = radii <= neck.V.grid.r_out
    if np.any(inside):
        interp = neck.V.grid.interp_matrix(radii[inside])
        lower[inside] = site.height + interp @ neck.V.values[0]
    outside = ~inside
    if np.any(outside):
        end = site.end
        rr = np.sqrt(site.r_site**2 + radii[outside] ** 2)
        h_prof, _ = end.height_profile(n, rr)
        lower[outside] = end.plane_height + h_prof
    pts = np.stack([radii, np.zeros_like(radii), np.full_like(radii, ring_h)], axis=1)
    rep = sheet_separation_report(pts, lower, upper)
    boxes = outer.neck_boxes
    disjoint = not any(a.meets(b) for i, a in enumerate(boxes) for b in boxes[i + 1:])
    # overlap scan: old sheets above/below the new end plane
    heights = sorted(e.plane_height for e in outer.ends)
    gaps = np.diff(heights)
    cert = {
        "embedded": bool(rep["positive"] and disjoint and np.all(gaps > 0)),
        "min_separation": rep["min_separation"],
        "boxes_disjoint": disjoint,
        "plane_gaps": list(map(float, gaps)),
    }
    if not rep["positive"]:
        cert["witness"] = list(map(float, rep["witness"]))
    return cert


def _upper_branch_height(n, sc, radii):
    """Catenoid-chart upper-sheet height over the ring frame at given radii."""
    from .outer import _end_splines

    sp = _end_splines(n)
    target = np.log(np.asarray(radii) / sc.eps_len)
    s = sp["s_of_logphi"](np.clip(target, 1e-9, sp["logphi_max"]))
    psi = sp["profile"](s)[2]
    psic = sp["profile"](abs(sc.s_eps))[2]
    return sc.eps_len * (psi - (-psic))


# -- chord-arc and graphical radius -------------------------------------------------------


def chord_arc(graph: ChartSampleGraph, x_index: int, R: float) -> dict:
    """Extrinsic-ball component radius measured intrinsically.

    rho is the maximal graph distance from x within the connected component
    of the extrinsic R-ball; c_fit = rho / R^n.  The component is what
    shortest paths from x reach over the edges with both ends in the ball,
    whose CSR is built from the grid, its nodes renumbered in order.
    """
    from scipy.sparse.csgraph import dijkstra

    pts = graph.points
    n = pts.shape[1] - 1
    d_ext = _lengths(pts - pts[x_index])
    inside = d_ext <= R
    ball = _orbit_adjacency(graph.shape, pts, inside)
    dist_in = dijkstra(ball, directed=False, indices=np.count_nonzero(inside[:x_index]))
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


def graphical_radius(graph: ChartSampleGraph, x_index: int, C_A: float) -> dict:
    """Largest sampled R with the intrinsic ball a graph over the tangent
    plane with |grad u| < 1, and the measured inclusion factor delta_c.

    R runs over 26 geometric steps from 2 to 98 percent of the largest
    intrinsic distance from x."""
    from scipy.sparse.csgraph import dijkstra

    pts = graph.points
    every = np.ones(pts.shape[0], dtype=bool)
    dist = dijkstra(_orbit_adjacency(graph.shape, pts, every), directed=False, indices=x_index)
    finite = np.isfinite(dist)
    # tangent plane by local PCA over the nearest samples
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
        tnorm = _lengths(Q - np.outer(h, normal))
        mask = tnorm > 1e-9
        slope = np.abs(h[mask]) / tnorm[mask]
        # single-valuedness probe: nearby tangent projections with distant heights
        ok = np.max(slope) < 1.0 if slope.size else True
        if ok:
            R_graph = float(R)
        else:
            break
    # inclusion factor: extrinsic ball of radius delta R inside intrinsic R/2
    d_ext = _lengths(pts - pts[x_index])
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


# -- delta-stability ------------------------------------------------------------------------


# columns per block of the stability energy; a block holds at most five
# arrays of STABILITY_BLOCK Na Nb doubles, 276 KB each on a 120 x 48 chart
STABILITY_BLOCK = 6


@dataclass
class StabilityReport:
    min_quotient: float
    stable: bool


def _first_form(P: np.ndarray, n: int):
    """(E, F, G, det, vol) of an orbit chart P (3, Na, Nb): the first
    fundamental form from centred differences, its determinant clipped
    away from 0, and the rotational volume factor sqrt(det) rho^{n-2}."""
    Pa = np.gradient(P, axis=1)
    Pb = np.gradient(P, axis=2)
    E = np.einsum("kij,kij->ij", Pa, Pa)
    F = np.einsum("kij,kij->ij", Pa, Pb)
    G = np.einsum("kij,kij->ij", Pb, Pb)
    det = np.clip(E * G - F * F, 1e-300, None)
    rho = np.clip(P[1], 1e-12, None)
    return E, F, G, det, np.sqrt(det) * rho ** (n - 2)


def _stability_forms(P: np.ndarray, n: int):
    """The stiffness form and the area weights of an orbit chart.

    Hat functions on the structured (a, b) grid, flat-index ordering; the
    rotational volume rho^{n-2} |S^{n-2}| weights each cell.
    """
    Na, Nb = P.shape[1], P.shape[2]
    E, F, G, det, vol = _first_form(P, n)
    dA = vol * sphere_area(n - 1)

    def apply_grad_energy(vecs):
        """Q(phi) = int |grad phi|^2 dA for columns of vecs, with the centred
        differences of _first_form.

        The columns are taken STABILITY_BLOCK at a time, as one C-ordered
        (columns, Na, Nb) array; every column's energy is one np.sum over its
        own contiguous (Na, Nb) slab, the sum a lone column takes.
        """
        out = np.empty(vecs.shape[1])
        for c0 in range(0, vecs.shape[1], STABILITY_BLOCK):
            cols = vecs[:, c0:c0 + STABILITY_BLOCK]
            phi = np.ascontiguousarray(cols.T).reshape(-1, Na, Nb)
            pa = np.gradient(phi, axis=1)
            pb = np.gradient(phi, axis=2)
            del phi
            density = (G * pa**2 - 2 * F * pa * pb + E * pb**2) / det * dA
            out[c0:c0 + cols.shape[1]] = [np.sum(slab) for slab in density]
        return out

    return apply_grad_energy, dA


def _stability_fields(Na: int, Nb: int) -> np.ndarray:
    """The test family of delta_stability on an (Na, Nb) grid, one field
    per column of an (Na Nb, n_hat + 40) array in flat-index ordering.

    Up to 240 interior hats, evenly spaced in flat index, then six caps,
    then random smooth fields drawn with seed 0; every field vanishes on
    the chart's boundary rows and columns.
    """
    n_random = 40
    interior = np.zeros((Na, Nb), dtype=bool)
    interior[2:-2, 2:-2] = True
    ii = np.where(interior.ravel())[0]
    rng = np.random.default_rng(0)
    # hat basis (single-node bumps) + random smooth combinations of hats;
    # low-frequency coefficient fields keep the family's span wide while
    # resolving the smooth directions that carry catenoid-type instability
    n_hat = min(ii.size, 240)
    hat_nodes = ii[np.linspace(0, ii.size - 1, n_hat).astype(int)]
    vecs = np.zeros((Na * Nb, n_hat + n_random))
    # each hat is 1 at its node and 1/2 at the four nearest; hat nodes lie two
    # rows and columns inside the chart
    steps = np.array([-Nb, -1, 0, 1, Nb])
    vecs[hat_nodes[:, None] + steps, np.arange(n_hat)[:, None]] = [0.5, 0.5, 1.0, 0.5, 0.5]
    ia = np.arange(Na)[:, None] / (Na - 1.0)
    jb = np.arange(Nb)[None, :] / (Nb - 1.0)
    window = np.sin(np.pi * ia) ** 2 * np.ones_like(jb)
    fracs = (0.25, 0.4, 0.55, 0.7, 0.85, 1.0)
    for c, frac in enumerate(fracs):
        cap = np.cos(np.pi * (ia - 0.5) / frac) ** 2 * (np.abs(ia - 0.5) < frac / 2.0)
        cap = cap * np.ones_like(jb)
        cap[~interior] = 0.0
        vecs[:, n_hat + c] = cap.ravel()
    for c in range(len(fracs), n_random):
        field_c = np.zeros((Na, Nb))
        for _ in range(4):
            ka, kb = rng.integers(0, 3, size=2)
            pa, pb = rng.uniform(0, np.pi, size=2)
            field_c += rng.standard_normal() * np.cos(ka * np.pi * ia + pa) * np.cos(
                kb * np.pi * jb + pb
            )
        field_c = field_c * window
        field_c[~interior] = 0.0
        vecs[:, n_hat + c] = field_c.ravel()
    return vecs


def delta_stability(
    P: np.ndarray,
    A2: np.ndarray,
    n: int,
    delta: float,
    domain_id: str,
) -> StabilityReport:
    """Minimum discrete Rayleigh quotient of the delta-stability form.

    P is an orbit chart (3, Na, Nb), A2 the squared second fundamental form
    on the grid.  The test family is _stability_fields: the interior hat
    basis plus 40 further fields, six caps, then random combinations drawn
    with seed 0; the quotient normalizer is the L^2 mass.  domain_id names
    the chart in the warning for a delta outside the flatness window.
    """
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    if n in DELTA1 and delta >= 1.0 - DELTA1[n] + 1e-12:
        log.warning("%s: delta=%s at n=%d is outside the flatness window", domain_id, delta, n)
    apply_grad_energy, dA = _stability_forms(P, n)
    vecs = _stability_fields(P.shape[1], P.shape[2])
    grad_en = apply_grad_energy(vecs)
    mass_A = np.einsum("nc,n,nc->c", vecs, (dA * A2).ravel(), vecs)
    mass = np.einsum("nc,n,nc->c", vecs, dA.ravel(), vecs)
    quotients = (grad_en - (1.0 - delta) * mass_A) / np.maximum(mass, 1e-300)
    min_q = float(np.min(quotients))
    return StabilityReport(
        min_quotient=min_q,
        stable=bool(min_q >= -1e-8 * max(1.0, float(np.max(np.abs(grad_en))) / max(float(np.max(mass)), 1e-300))),
    )


# -- separation PDE -----------------------------------------------------------------------


def separation_check(P1: np.ndarray, u: np.ndarray, A2: np.ndarray, n: int) -> dict:
    """Defect of the separation PDE and the closeness it is measured against.

    P1 is the base sheet's orbit chart, u the normal separation sampled on
    it.  The displayed equation's unknown first-order coefficients are only
    bounded; the testable content is that the zeroth-order defect
    div grad u + |A|^2 u shrinks with q = |u||A| + |grad u|.  Returns the
    interior suprema of the defect (defect_sup) and of q (max_q), and
    whether q <= 1 there (precondition_ok).
    """
    E, F, G, det, vol = _first_form(P1, n)
    ua, ub = np.gradient(u, axis=0), np.gradient(u, axis=1)
    # Laplace-Beltrami on the orbit chart including the rotational volume
    flux_a = vol * (G * ua - F * ub) / det
    flux_b = vol * (E * ub - F * ua) / det
    lap = (np.gradient(flux_a, axis=0) + np.gradient(flux_b, axis=1)) / vol
    grad2 = (G * ua**2 - 2 * F * ua * ub + E * ub**2) / det
    defect = lap + A2 * u
    q = np.abs(u) * np.sqrt(np.clip(A2, 0, None)) + np.sqrt(np.clip(grad2, 0, None))
    # the interior leaves 3 rows and columns at each edge; an empty one gives 0
    max_q = float(np.max(q[3:-3, 3:-3], initial=0.0))
    return {
        "precondition_ok": max_q <= 1.0,
        "max_q": max_q,
        "defect_sup": float(np.max(np.abs(defect[3:-3, 3:-3]), initial=0.0)),
    }

