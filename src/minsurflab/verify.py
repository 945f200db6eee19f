"""Independent verification: residual oracles, curvature, embeddedness,
chord-arc and graphical-radius measurements, stability, and the separation
PDE check.

Every evaluation here is structurally independent of the solver paths:
different stencil orders, offset resampled grids, analytic
surface-of-revolution formulas, and sampled-graph shortest paths.
Embeddedness of hypersurfaces in R^{n+1} is certified through separation
functions and box disjointness, never through rendering.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .cylinder import axial_collocation
from .geometry import graph_orbit_points, matrix_surface, uniform_surface
from .profile import profile_values
from .spectral import angular_grid, sphere_area

log = logging.getLogger(__name__)

DELTA1 = {3: 3.0 / 8.0, 4: 2.0 / 3.0, 5: 21.0 / 22.0}  # 1 - stability windows


# -- chart sampling ------------------------------------------------------------------


@dataclass
class ChartSampleGraph:
    """Sampled chart points with chordal-length edges for intrinsic distances."""

    points: np.ndarray  # (N, n+1) ambient coordinates
    edges: tuple  # (rows, cols, lengths)
    provenance: np.ndarray  # chart id per point
    info: dict = field(default_factory=dict)

    def shortest_paths(self, source: int) -> np.ndarray:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import dijkstra

        N = self.points.shape[0]
        r, c, w = self.edges
        m = coo_matrix((w, (r, c)), shape=(N, N))
        return dijkstra(m, directed=False, indices=source)


def _grid_edges(shape, pts_flat):
    """Neighbor + knight-move edges on a structured (i, j, k) grid; the
    two-ring moves keep the graph-metric distortion under ~3 percent."""
    idx = np.arange(np.prod(shape)).reshape(shape)
    pts = pts_flat.reshape(tuple(shape) + (-1,))
    rows, cols, w = [], [], []
    moves = [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (1, -1, 0), (0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1),
        (1, 2, 0), (2, 1, 0), (1, -2, 0), (2, -1, 0),
        (0, 1, 2), (0, 2, 1), (0, 1, -2), (0, 2, -1),
    ]
    for move in moves:
        src_slices = []
        dst_slices = []
        for d, extent in zip(move, shape):
            lo = max(0, -d)
            hi = max(lo, extent - max(0, d))
            src_slices.append(slice(lo, hi))
            dst_slices.append(slice(lo + d, hi + d))
        src, dst = tuple(src_slices), tuple(dst_slices)
        rows.append(idx[src].ravel())
        cols.append(idx[dst].ravel())
        # each move's lengths from its own slices: temporaries of one move only
        w.append(np.linalg.norm((pts[src] - pts[dst]).reshape(-1, pts.shape[-1]), axis=1))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(w)


def _wrap_edges(shape, pts_flat):
    """Extra edges closing the periodic meridian axis (the last one)."""
    idx = np.arange(np.prod(shape)).reshape(shape)
    src = idx[:, :, -1].ravel()
    dst = idx[:, :, 0].ravel()
    w = np.linalg.norm(pts_flat[src] - pts_flat[dst], axis=1)
    return src, dst, w


def plane_sample_graph(n: int, extent: float) -> ChartSampleGraph:
    """Sampled flat n-plane in R^{n+1} on a polar-orbit grid: 60 radii,
    20 colatitudes and 48 orbit angles."""
    m_r = 60
    r = np.linspace(extent * 1e-3, extent, m_r)
    beta = np.linspace(0.12, np.pi - 0.12, 20)
    omega = np.linspace(0, 2 * np.pi, 48, endpoint=False)
    pts = _orbit_points_cloud(n, r[:, None] * np.cos(beta)[None, :],
                              r[:, None] * np.sin(beta)[None, :],
                              np.zeros((m_r, beta.size)), omega)
    shape = (m_r, beta.size, omega.size)
    rows, cols, w = _grid_edges(shape, pts)
    r2, c2, w2 = _wrap_edges(shape, pts)
    edges = (np.concatenate([rows, r2]), np.concatenate([cols, c2]), np.concatenate([w, w2]))
    return ChartSampleGraph(pts, edges, np.zeros(pts.shape[0], dtype=int))


def _orbit_points_cloud(n, xq, rho, xv, omega):
    """Lift orbit coordinates to ambient R^{n+1} over sampled meridians.

    The orbit S^{n-2} is sampled along a fixed 2-plane of the transverse
    block; intrinsic distances within the sampled submanifold upper-bound
    nothing but faithfully measure the zonal charts we build.
    """
    Na, Nb = xq.shape
    No = omega.size
    pts = np.zeros((Na, Nb, No, n + 1))
    pts[..., 0] = xq[..., None]
    pts[..., 1] = rho[..., None] * np.cos(omega)[None, None, :]
    pts[..., 2] = rho[..., None] * np.sin(omega)[None, None, :]
    pts[..., n] = xv[..., None]
    return pts.reshape(-1, n + 1)


def catenoid_sample_graph(n: int, scale: float = 1.0, s_window: float = 3.0) -> ChartSampleGraph:
    """Sampled catenoid across its neck, centered at the origin: 90 profile
    nodes, 20 colatitudes and 40 orbit angles."""
    m_s, m_b = 90, 20
    s = np.linspace(-s_window, s_window, m_s)
    phi, dphi, psi, dpsi = profile_values(n, s)
    beta = np.linspace(0.12, np.pi - 0.12, m_b)
    omega = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    F = scale * phi[:, None] * np.ones((1, m_b))
    xq = F * np.cos(beta)[None, :]
    rho = F * np.sin(beta)[None, :]
    xv = scale * psi[:, None] * np.ones((1, m_b))
    pts = _orbit_points_cloud(n, xq, rho, xv, omega)
    shape = (m_s, m_b, omega.size)
    rows, cols, w = _grid_edges(shape, pts)
    r2, c2, w2 = _wrap_edges(shape, pts)
    edges = (np.concatenate([rows, r2]), np.concatenate([cols, c2]), np.concatenate([w, w2]))
    g = ChartSampleGraph(pts, edges, np.zeros(pts.shape[0], dtype=int))
    g.info["A_sup"] = float(np.sqrt(n * (n - 1)) * (scale * phi.min() / scale) ** (-n) / scale)
    return g


# -- residual and curvature oracles -----------------------------------------------------


def mc_residual(surface) -> dict:
    """Independent mean-curvature oracle over all charts.

    The core chart is resampled on an offset, refined grid and
    differentiated with 4th-order stencils; the neck and catenoid pieces run
    the same kind of oracle when they are built, and their stored values are
    reported here.  Residuals are reported raw and relative to the chart's
    curvature scale.
    """
    out = {}
    outer = getattr(surface, "outer", surface)
    n = outer.n
    g = angular_grid(outer.spectrum)
    # core catenoid chart (plus its stored perturbation, normally zero)
    s = outer.core_w.grid.s
    sf = np.linspace(s[0] + 0.05, s[-1] - 0.05, 2 * s.size)
    sf = sf + 0.37 * (sf[1] - sf[0])
    sf = sf[sf <= s[-1] - 0.05]
    phi, dphi, psi, dpsi = profile_values(n, sf)
    if np.any(outer.core_w.values):
        from scipy.interpolate import CubicSpline

        rows = CubicSpline(s, outer.core_w.values, axis=1)(sf)
        conj = phi ** ((2 - n) / 2.0)
        w0 = rows[0] * conj
        F = phi[:, None] + (w0 * dpsi / phi)[:, None] * np.ones((1, g.t.size))
        G = psi[:, None] + (w0 * (-dphi / phi))[:, None] * np.ones((1, g.t.size))
    else:
        F = phi[:, None] * np.ones((1, g.t.size))
        G = psi[:, None] * np.ones((1, g.t.size))
    P = np.stack([F * g.t[None, :], F * g.sinb[None, :], G])
    H = uniform_surface(P, g, sf[1] - sf[0], order=4).mean_curvature(n)
    A_sup = float(np.max(np.sqrt(n * (n - 1)) * phi ** (-n) / outer.core_scale))
    out["core"] = {
        "sup_H": float(np.max(np.abs(H[3:-3])) / outer.core_scale),
        "rel": float(np.max(np.abs(H[3:-3])) / outer.core_scale / A_sup),
    }
    for fc in getattr(outer, "frozen_charts", []):
        piece = fc["piece"]
        if fc["kind"] == "neck_annulus":
            out.setdefault("neck", []).append({"sup_H": piece.residual, "rel": piece.residual_rel})
        elif fc["kind"] == "catenoid":
            res = piece.residual  # unit-neck oracle value stored at build
            out.setdefault("catenoid", []).append(
                {"sup_H_unit": res, "rel": res / np.sqrt(n * (n - 1.0))}
            )
    rels = [out["core"]["rel"]]
    for key in ("neck", "catenoid"):
        rels += [c["rel"] for c in out.get(key, [])]
    out["max_rel"] = float(np.max(rels))
    return out


def second_fund(surface) -> dict:
    """|A| profile: per-box suprema and the outside-boxes supremum."""
    outer = getattr(surface, "outer", surface)
    n = outer.n
    boxes = getattr(surface, "neck_boxes", [])
    samples = []  # (point, |A|)
    s = np.linspace(-outer.core_span, outer.core_span, 400)
    phi, dphi, psi, dpsi = profile_values(n, s)
    A_prof = np.sqrt(n * (n - 1.0)) * phi ** (-n) / outer.core_scale
    e0 = np.eye(n)[0]
    for k in range(s.size):
        pt = np.concatenate(
            [outer.core_center[:n] + e0 * outer.core_scale * phi[k],
             [outer.core_center[-1] + outer.core_scale * psi[k]]]
        )
        samples.append((pt, float(A_prof[k])))
    for fc in getattr(outer, "frozen_charts", []):
        piece = fc["piece"]
        if fc["kind"] == "catenoid":
            sc = piece.scales
            ring_h = fc["ring_height"]
            site = fc["site"]
            sgrid = np.linspace(sc.s_eps, sc.s_eps + 12.0, 300)
            phication = profile_values(n, sgrid)
            phis, _, psis, _ = phication
            Avals = np.sqrt(n * (n - 1.0)) * phis ** (-n) / sc.eps_len
            psic = profile_values(n, np.array([sc.s_eps]))[2][0]
            for j in range(sgrid.size):
                pt = np.concatenate(
                    [site["center_xy"] + np.eye(n)[0][: n] * sc.eps_len * phis[j],
                     [ring_h + sc.eps_len * (psis[j] - psic)]]
                )
                samples.append((pt, float(Avals[j])))
        elif fc["kind"] == "neck_annulus":
            V = piece.V
            g = angular_grid(V.spectrum)
            P = graph_orbit_points(V.grid.r, g, axial_collocation(V, g))
            A2 = np.sqrt(matrix_surface(P, g, V.grid.D).second_fundamental_sq(n))
            site = fc["site"]
            for i in range(0, V.grid.m, 4):
                pt = np.concatenate(
                    [site["center_xy"] + np.eye(n)[0][: n] * V.grid.r[i],
                     [site["height"] + V.values[0, i]]]
                )
                samples.append((pt, float(np.max(A2[i]))))
    outside = 0.0
    per_box = [0.0] * len(boxes)
    for pt, Ai in samples:
        inside = False
        for b_idx, b in enumerate(boxes):
            if _in_box(pt, b, n):
                per_box[b_idx] = max(per_box[b_idx], Ai)
                inside = True
        if not inside:
            outside = max(outside, Ai)
    boxes_out = []
    for b_idx, b in enumerate(boxes):
        bb = dict(b)
        bb["sup_A"] = per_box[b_idx]
        boxes_out.append(bb)
    return {"outside_sup": outside, "boxes": boxes_out, "n_samples": len(samples)}


def _in_box(pt, box, n) -> bool:
    dxy = np.max(np.abs(pt[:n] - box["center_xy"]))
    z0, z1 = box["z_range"]
    return dxy <= box["halfwidth"] and z0 <= pt[n] <= z1


# -- embeddedness ------------------------------------------------------------------------


def sheet_separation_report(pts: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> dict:
    """Certificate-or-witness for two sampled sheet height fields."""
    sep = upper - lower
    i = int(np.argmin(sep))
    if np.all(sep > 0):
        return {"positive": True, "min_separation": float(sep[i]), "argmin": pts[i]}
    return {"positive": False, "min_separation": float(sep[i]), "witness": pts[i]}


def embeddedness(glued) -> dict:
    """Certificate: separation positivity, box disjointness, overlap scan.

    The new sheet sits at glued.info["ring_height"].  Violations return a
    witness; they are data, not exceptions.
    """
    outer = glued.outer
    n = outer.n
    cat = glued.catenoid_piece
    neck = glued.neck_piece
    sc = cat.scales
    site = glued.info["site"]
    ring_h = glued.info["ring_height"]
    r0 = site["r0"]
    # probe radii across the neck chart and out into the old sheet
    radii = np.geomspace(2.0 * sc.r_eps, min(0.4 * site["r_site"], 50 * r0), 120)
    sp = _upper_branch_height(n, sc, radii)  # catenoid upper sheet over ring frame
    upper = ring_h + sp
    lower = np.empty_like(radii)
    inside = radii <= neck.V.grid.r_out
    if np.any(inside):
        interp = neck.V.grid.interp_matrix(radii[inside])
        lower[inside] = site["height"] + interp @ neck.V.values[0]
    outside = ~inside
    if np.any(outside):
        end = _site_end(outer, site)
        rr = np.sqrt(site["r_site"] ** 2 + radii[outside] ** 2)
        h_prof, _ = end.height_profile(n, rr)
        lower[outside] = end.plane_height + end.orientation * h_prof
    pts = np.stack([radii, np.zeros_like(radii), np.full_like(radii, ring_h)], axis=1)
    rep = sheet_separation_report(pts, lower, upper)
    boxes = getattr(glued, "neck_boxes", [])
    disjoint = True
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            bi, bj = boxes[i], boxes[j]
            if (
                np.max(np.abs(bi["center_xy"] - bj["center_xy"]))
                <= bi["halfwidth"] + bj["halfwidth"]
                and bi["z_range"][1] >= bj["z_range"][0]
                and bj["z_range"][1] >= bi["z_range"][0]
            ):
                disjoint = False
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
    psi = sp["psi"](s)
    psic = sp["psi"](abs(sc.s_eps))
    return sc.eps_len * (psi - (-psic))


def _site_end(outer, site):
    # the site lives on the highest end at or below the recorded site height
    cands = [e for e in outer.ends if e.plane_height <= site["height"] + 1e-9]
    return max(cands, key=lambda e: e.plane_height)


# -- chord-arc and graphical radius -------------------------------------------------------


def chord_arc(graph: ChartSampleGraph, x_index: int, R: float) -> dict:
    """Extrinsic-ball component radius measured intrinsically.

    rho is the maximal graph distance from x within the connected component
    of the extrinsic R-ball; c_fit = rho / R^n.
    """
    pts = graph.points
    n = pts.shape[1] - 1
    d_ext = np.linalg.norm(pts - pts[x_index], axis=1)
    inside = d_ext <= R
    # component = points reachable without leaving the extrinsic ball: prune
    # by re-running restricted shortest paths
    sub = np.where(inside)[0]
    index = np.full(pts.shape[0], -1)  # point -> its position in sub
    index[sub] = np.arange(sub.size)
    rows, cols, w = graph.edges
    keep = inside[rows] & inside[cols]
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    m = coo_matrix((w[keep], (index[rows[keep]], index[cols[keep]])), shape=(sub.size, sub.size))
    dist_in = dijkstra(m, directed=False, indices=index[x_index])
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
    pts = graph.points
    dist = graph.shortest_paths(x_index)
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
        tang = Q - np.outer(h, normal)
        tnorm = np.linalg.norm(tang, axis=1)
        mask = tnorm > 1e-9
        slope = np.abs(h[mask]) / tnorm[mask]
        # single-valuedness probe: nearby tangent projections with distant heights
        ok = np.max(slope) < 1.0 if slope.size else True
        if ok:
            R_graph = float(R)
        else:
            break
    # inclusion factor: extrinsic ball of radius delta R inside intrinsic R/2
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


# -- delta-stability ------------------------------------------------------------------------


@dataclass
class StabilityReport:
    min_quotient: float
    stable: bool


def _stability_forms(P: np.ndarray, n: int):
    """The stiffness form and the area weights of an orbit chart.

    Hat functions on the structured (a, b) grid, flat-index ordering; the
    rotational volume rho^{n-2} |S^{n-2}| weights each cell.
    """
    Na, Nb = P.shape[1], P.shape[2]
    Pa = np.gradient(P, axis=1)
    Pb = np.gradient(P, axis=2)
    E = np.einsum("kij,kij->ij", Pa, Pa)
    F = np.einsum("kij,kij->ij", Pa, Pb)
    G = np.einsum("kij,kij->ij", Pb, Pb)
    det = np.clip(E * G - F * F, 1e-300, None)
    rho = np.clip(P[1], 1e-12, None)
    ring = sphere_area(n - 1)
    dA = np.sqrt(det) * rho ** (n - 2) * ring

    # difference matrices for the gradient energy (desk-sized, dense)
    Da = np.zeros((Na, Na))
    for i in range(1, Na - 1):
        Da[i, i - 1], Da[i, i + 1] = -0.5, 0.5
    Da[0, 0], Da[0, 1] = -1.0, 1.0
    Da[-1, -2], Da[-1, -1] = -1.0, 1.0
    Db = np.zeros((Nb, Nb))
    for j in range(1, Nb - 1):
        Db[j, j - 1], Db[j, j + 1] = -0.5, 0.5
    Db[0, 0], Db[0, 1] = -1.0, 1.0
    Db[-1, -2], Db[-1, -1] = -1.0, 1.0

    def apply_grad_energy(vecs):
        """Q(phi) = int |grad phi|^2 dA for columns of vecs."""
        out = np.empty(vecs.shape[1])
        for c in range(vecs.shape[1]):
            phi = vecs[:, c].reshape(Na, Nb)
            pa = Da @ phi
            pb = phi @ Db.T
            grad2 = (G * pa**2 - 2 * F * pa * pb + E * pb**2) / det
            out[c] = np.sum(grad2 * dA)
        return out

    return apply_grad_energy, dA


def delta_stability(
    P: np.ndarray,
    A2: np.ndarray,
    n: int,
    delta: float,
    domain_id: str = "chart",
) -> StabilityReport:
    """Minimum discrete Rayleigh quotient of the delta-stability form.

    P is an orbit chart (3, Na, Nb), A2 the squared second fundamental form
    on the grid.  The test family is the interior hat basis plus 40 further
    fields: six caps, then random combinations drawn with seed 0; the
    quotient normalizer is the L^2 mass.  domain_id names the chart in the
    warning for a delta outside the flatness window.
    """
    n_random = 40
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    if n in DELTA1 and delta >= 1.0 - DELTA1[n] + 1e-12:
        log.warning("%s: delta=%s at n=%d is outside the flatness window", domain_id, delta, n)
    Na, Nb = P.shape[1], P.shape[2]
    apply_grad_energy, dA = _stability_forms(P, n)
    N = Na * Nb
    interior = np.zeros((Na, Nb), dtype=bool)
    interior[2:-2, 2:-2] = True
    ii = np.where(interior.ravel())[0]
    rng = np.random.default_rng(0)
    # hat basis (single-node bumps) + random smooth combinations of hats;
    # low-frequency coefficient fields keep the family's span wide while
    # resolving the smooth directions that carry catenoid-type instability
    n_hat = min(ii.size, 240)
    hat_nodes = ii[np.linspace(0, ii.size - 1, n_hat).astype(int)]
    vecs = np.zeros((N, n_hat + n_random))
    for c, node in enumerate(hat_nodes):
        v = np.zeros(N)
        v[node] = 1.0
        i, j = divmod(node, Nb)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                v[(i + di) * Nb + (j + dj)] = max(0.0, 1.0 - 0.5 * (abs(di) + abs(dj)))
        vecs[:, c] = v
    ia = np.arange(Na)[:, None] / (Na - 1.0)
    jb = np.arange(Nb)[None, :] / (Nb - 1.0)
    window = np.sin(np.pi * ia) ** 2 * np.ones_like(jb)
    caps = []
    for frac in (0.25, 0.4, 0.55, 0.7, 0.85, 1.0):
        cap = np.cos(np.pi * (ia - 0.5) / frac) ** 2 * (np.abs(ia - 0.5) < frac / 2.0)
        cap = cap * np.ones_like(jb)
        cap[~interior] = 0.0
        caps.append(cap.ravel())
    for c in range(n_random):
        if c < len(caps):
            vecs[:, n_hat + c] = caps[c]
            continue
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
    """Defect of the separation PDE and its coefficient-consistency fit.

    P1 is the base sheet's orbit chart, u the normal separation sampled on
    it.  The displayed equation's unknown first-order coefficients are only
    bounded; the testable content is that the zeroth-order defect
    div grad u + |A|^2 u is controlled by C1 q + C2 q^2 with
    q = |u||A| + |grad u| against the local second-derivative scale.
    """
    Na, Nb = u.shape
    Pa = np.gradient(P1, axis=1)
    Pb = np.gradient(P1, axis=2)
    E = np.einsum("kij,kij->ij", Pa, Pa)
    F = np.einsum("kij,kij->ij", Pa, Pb)
    G = np.einsum("kij,kij->ij", Pb, Pb)
    det = np.clip(E * G - F * F, 1e-300, None)
    rho = np.clip(P1[1], 1e-12, None)
    vol = np.sqrt(det) * rho ** (n - 2)

    def d_a(f):
        return np.gradient(f, axis=0)

    def d_b(f):
        return np.gradient(f, axis=1)

    ua, ub = d_a(u), d_b(u)
    # Laplace-Beltrami on the orbit chart including the rotational volume
    flux_a = vol * (G * ua - F * ub) / det
    flux_b = vol * (E * ub - F * ua) / det
    lap = (d_a(flux_a) + d_b(flux_b)) / vol
    grad2 = (G * ua**2 - 2 * F * ua * ub + E * ub**2) / det
    defect = lap + A2 * u
    interior = np.zeros_like(u, dtype=bool)
    interior[3:-3, 3:-3] = True
    q = np.abs(u) * np.sqrt(np.clip(A2, 0, None)) + np.sqrt(np.clip(grad2, 0, None))
    pre_ok = float(np.max(q[interior])) <= 1.0 if interior.any() else True
    curv_scale = np.abs(lap) + np.abs(A2 * u) + np.sqrt(np.clip(A2, 0, None)) * np.sqrt(np.clip(grad2, 0, None)) + 1e-300
    X = np.stack([(q * curv_scale)[interior].ravel(), ((q**2) * curv_scale)[interior].ravel()], axis=1)
    y = np.abs(defect[interior]).ravel()
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ coef
    resid = float(np.max(np.abs(y - fitted))) if y.size else 0.0
    return {
        "precondition_ok": bool(pre_ok),
        "max_q": float(np.max(q[interior])) if interior.any() else 0.0,
        "defect_sup": float(np.max(np.abs(defect[interior]))) if interior.any() else 0.0,
        "fit_C1": float(coef[0]),
        "fit_C2": float(coef[1]),
        "fit_residual_sup": resid,
        "defect_field": defect,
    }


def harnack_ratios(graph: ChartSampleGraph, u_values: np.ndarray, x_index: int, radii) -> list:
    """sup u / inf u over concentric intrinsic balls."""
    dist = graph.shortest_paths(x_index)
    out = []
    for R in radii:
        ball = np.isfinite(dist) & (dist <= R)
        if ball.sum() < 4:
            out.append(np.nan)
            continue
        vals = u_values[ball]
        out.append(float(np.max(vals) / max(np.min(vals), 1e-300)))
    return out
