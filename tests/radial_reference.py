"""Reference copies of the three band solves that radial.solve_rows replaced,
and the power-weighted norm the tests measure radial fields in.

Each solves one band of Lambda_l w = f on the row-scaled matrix with its own
ring rows: the neck annulus, the site exterior and the interior ball.
u0_multipliers reads the U_0 multipliers one band at a time from unit ring
data, as the glue did before prepare_glue read them in one call.  The tests require
the shared solve to reproduce these bit for bit.

outer_solve_afresh is outer.solve_outer_nonlinear as it was when every call
computed the exterior's mean curvature itself, before the glue context
kept it; a solve through the context must give its bits.

weighted_norm and default_nu measure solutions and the neck's Picard
correction at the weight of the paper's annulus estimates; no pipeline
code reads them.

cheb_nodes_matrix builds the Chebyshev nodes and d/dx matrix of one
interval from scratch, as every RadialGrid did before the grids of one node
count shared one matrix on [-1, 1]; a grid's D must give its bits.
"""

import numpy as np

from minsurflab.radial import BandOperator, RadialGrid


def cheb_nodes_matrix(m: int, a: float, b: float):
    """Chebyshev collocation nodes (ascending on [a, b]) and D d/dx matrix."""
    if m < 2:
        raise ValueError("need at least 2 Chebyshev nodes")
    N = m - 1
    k = np.arange(m)
    x = np.cos(np.pi * k / N)  # descending on [-1, 1]
    c = np.ones(m)
    c[0] = 2.0
    c[-1] = 2.0
    c = c * (-1.0) ** k
    X = np.tile(x, (m, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(m))
    D -= np.diag(D.sum(axis=1))
    # flip to ascending and map to [a, b]
    x = x[::-1]
    D = D[::-1, ::-1]
    scale = 2.0 / (b - a)
    return a + (x + 1.0) * (b - a) / 2.0, D * scale


def band_mixed(op, ell, f, outer_value):
    """Neck annulus: Dirichlet data at the outer ring; at the inner ring
    zero Dirichlet data (l >= 2) or the regular row w_rho = l w (l <= 1)."""
    A = op.matrix_scaled(ell).copy()
    rhs = np.array(f, dtype=float) * op.row_scale
    A[-1, :] = 0.0
    A[-1, -1] = 1.0
    rhs[-1] = outer_value
    if ell >= 2:
        A[0, :] = 0.0
        A[0, 0] = 1.0
    else:
        A[0, :] = op.grid.D[0]
        A[0, 0] -= float(ell)
    rhs[0] = 0.0
    return np.linalg.solve(A, rhs)


def band_exterior(op, ell, f, ring_value, n):
    """Site exterior: Dirichlet data at the ring, the decaying multipole
    row w_rho = (2 - n - l) w at the outer truncation."""
    A = op.matrix_scaled(ell).copy()
    rhs = np.asarray(f, dtype=float) * op.row_scale
    A[0, :] = 0.0
    A[0, 0] = 1.0
    rhs[0] = ring_value
    A[-1, :] = op.grid.D[-1]
    A[-1, -1] -= float(2 - n - ell)
    rhs[-1] = 0.0
    return np.linalg.solve(A, rhs)


def band_interior(op, ell, ring_value):
    """Interior ball: the regular row w_rho = l w at the inner ring,
    Dirichlet data at the ring, zero source."""
    A = op.matrix_scaled(ell).copy()
    rhs = np.zeros(op.grid.m)
    A[-1, :] = 0.0
    A[-1, -1] = 1.0
    rhs[-1] = ring_value
    A[0, :] = op.grid.D[0]
    A[0, 0] -= float(ell)
    rhs[0] = 0.0
    return np.linalg.solve(A, rhs)


def u0_multipliers(site):
    """U_0 multiplier of each band l at a Site: the l-coefficient of the ring
    slope difference of the exterior and interior-ball solves with unit
    band-l ring data, each solve on its own operator build."""
    spec = site.exterior.spectrum
    n = spec.n
    # the row layout the glue once read them in: band 0, band 1 on n rows,
    # bands 2..L
    bands = np.concatenate([[0], np.full(n, 1), np.arange(2, spec.L + 1)])
    ext_grid = site.exterior.grid
    ext_op = BandOperator(spec, ext_grid, (ext_grid.D @ site.exterior.values[0]) / ext_grid.r)
    patch = site.patch
    r0 = patch.grid.r_out
    ball = RadialGrid(1e-3 * r0, r0, patch.grid.m)
    slope = (patch.grid.D @ patch.values[0]) / patch.grid.r
    ball_op = BandOperator(spec, ball, patch.grid.interp_matrix(ball.r) @ slope)
    first_row = {0: 0, 1: 1, **{ell: n - 1 + ell for ell in range(2, spec.L + 1)}}
    mult = np.zeros(spec.L + 1)
    for ell in range(spec.L + 1):
        ring = np.zeros(bands.size)
        ring[first_row[ell]] = 1.0
        w0 = np.array([
            band_exterior(ext_op, int(b), np.zeros(ext_grid.m), float(ring[i]), n)
            for i, b in enumerate(bands)
        ])
        wt0 = np.array([band_interior(ball_op, int(b), float(ring[i])) for i, b in enumerate(bands)])
        resp = w0 @ ext_grid.D[0] - wt0 @ ball.D[-1]
        mult[ell] = resp[first_row[ell]]
    return mult


def outer_solve_afresh(site, h_I, tol):
    """The outer Picard solve with the exterior's curvature computed in the
    call."""
    from minsurflab.catenoid import ResidualError, picard
    from minsurflab.cylinder import BandField
    from minsurflab.neck import graph_defect, graph_operator, graph_residual, mean_curvature_graph
    from minsurflab.radial import decaying, solve_rows

    base = site.exterior
    op = graph_operator(base)
    H_base_vals = mean_curvature_graph(base)

    def exterior_solve(f):
        return BandField(base.spectrum, base.grid, solve_rows(op, f, h_I, decaying))

    w = exterior_solve(None)
    if np.any(h_I.c):
        w, _, _ = picard(lambda w: exterior_solve(graph_defect(op, base, H_base_vals, w)),
                         w, 1e-9, 1e-300, 30, stage="outer")
    _, res_rel = graph_residual(base + w)
    if not res_rel <= tol:
        raise ResidualError(f"outer residual {res_rel:.3e} exceeds tol={tol:.3e}")
    return w


def default_nu(n: int) -> float:
    """The annulus weight nu the neck's correction is measured at."""
    return -7.0 / 3.0 if n == 3 else -n + 0.5


def weighted_norm(w, k: int, alpha: float, nu: float) -> float:
    """Surrogate of the power-weighted Hoelder norm sup r^{-nu} [w]_{k,a,[r,2r]}.

    Dyadic windows [r, 2r] over the grid; derivative factors r^j d^j/dr^j
    realized as d/d rho powers, plus a Hoelder quotient of the top
    derivative in rho over adjacent nodes.  Raises ValueError on non-finite
    values.
    """
    if not np.all(np.isfinite(w.values)):
        raise ValueError("weighted_norm of a field with non-finite values")
    grid = w.grid
    rho = grid.rho
    vals = [w.values]
    for _ in range(k):
        vals.append(vals[-1] @ grid.D.T)
    quot = np.zeros_like(vals[k])
    d = np.abs(np.diff(rho))
    q = np.abs(np.diff(vals[k], axis=1)) / d**alpha
    quot[:, :-1] = q
    best = 0.0
    for i0 in range(grid.m):
        upper = rho[i0] + np.log(2.0)
        i1 = int(np.searchsorted(rho, upper, side="right"))
        i1 = max(i1, i0 + 2)
        i1 = min(i1, grid.m)
        window = 0.0
        for v in vals:
            window += float(np.max(np.abs(v[:, i0:i1])))
        window += float(np.max(quot[:, i0 : max(i0 + 1, i1 - 1)]))
        best = max(best, float(np.exp(-nu * rho[i0])) * window)
        if i1 == grid.m:
            break
    return best
