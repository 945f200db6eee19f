"""Graph mean curvature, the neck-opening perturbation, and annulus solves.

A graph patch is a height BandField over a RadialGrid: row l holds band l
of the height over the reference plane, and the patch's outer radius r0 is
its grid's r_out.  The compact site patch is such a graph.  Opening the
neck adds a multiple of the operator's Green's function; rigid parameters
(translation, rotation, vertical shift, Green's-coefficient shift) restore
the low-mode degrees of freedom that boundary data cannot supply.  The
nonlinear solve then matches prescribed high-mode data at the inner ring
and Dirichlet data at the outer ring, and its inner Cauchy data is read off
in the ring frame, which sits one Green's-function amplitude below the
reference plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catenoid import (
    MAX_PICARD,
    PreconditionError,
    ResidualError,
    in_working_ball,
    picard,
    smooth_step,
)
from .cylinder import BandField, collocation_from_rows, rows_from_collocation
from .geometry import OrbitSurface, graph_orbit_points, matrix_surface, uniform_surface
from .profile import Scales
from .radial import BandOperator, RadialGrid, solve_mixed
from .spectral import SphereField, angular_grid, apply_Dtheta, has_low_modes, project_high


def resample(u: BandField, grid: RadialGrid) -> BandField:
    """The graph patch u on grid, continued flat below its inner truncation."""
    P = u.grid.interp_matrix(np.clip(grid.r, u.grid.r_in, u.grid.r_out))
    return BandField(u.spectrum, grid, u.values @ P.T)


@dataclass
class RigidParams:
    """Rigid-motion and Green's-coefficient parameters of the neck piece.

    The glue is zonal about the axis e_1 from the end's axis to the site,
    so the translation T and the rotation R are axial: T moves the neck
    along e_1, and R tilts it by the linear height R x_1."""

    T: float
    R: float
    d: float
    e: float

    @classmethod
    def zeros(cls) -> "RigidParams":
        return cls(0.0, 0.0, 0.0, 0.0)

    def norm(self, scales: Scales) -> float:
        """eps r_eps^{1-n}|T| + r_eps|R| + |d| + r_eps^{2-n}|e|."""
        n, r_eps, eps = scales.n, scales.r_eps, scales.eps
        val = (
            eps * r_eps ** (1 - n) * abs(self.T)
            + r_eps * abs(self.R)
            + abs(self.d)
            + r_eps ** (2 - n) * abs(self.e)
        )
        if not np.isfinite(val):
            raise PreconditionError("rigid parameter norm is not finite")
        return val


@dataclass(frozen=True)
class GreenTable:
    """Radial Green's-function profile of the linearized graph operator: its
    values on grid and, for n = 3, its additive constant a0 (0.0 otherwise)."""

    grid: RadialGrid
    values: np.ndarray
    a0: float

    def at(self, r: np.ndarray) -> tuple:
        """(gamma_0, d gamma_0 / dr) at the requested radii, both read
        through one interpolation matrix."""
        P = self.grid.interp_matrix(r)
        drho = self.grid.D @ self.values
        return P @ self.values, (P @ drho) / np.asarray(r, dtype=float)


# -- collocation machinery --------------------------------------------------------


def graph_surface(u: BandField) -> OrbitSurface:
    """The orbit chart of the graph of u, differentiated along the radius by
    its grid's collocation matrix."""
    g = angular_grid(u.spectrum)
    P = graph_orbit_points(u.grid.r, g, collocation_from_rows(u.values, g))
    return matrix_surface(P, g, u.grid.D)


def mean_curvature_graph(u: BandField) -> np.ndarray:
    """Mean curvature of the graph of u on its (rho, beta) collocation grid."""
    return graph_surface(u).mean_curvature(u.spectrum.n)


def graph_residual(u: BandField) -> tuple:
    """Oracle sup|H| of the graph of u, raw and relative to the chart
    curvature scale max(sup|A|, 1/r_out).

    The oracle resamples the graph to an offset uniform log-radial grid and
    uses 4th-order stencils, structurally independent of the solver path.
    """
    grid = u.grid
    g = angular_grid(u.spectrum)
    n = u.spectrum.n
    rho_f = np.linspace(grid.rho[0], grid.rho[-1], 2 * grid.m + 1)
    rho_f = rho_f[:-1] + 0.37 * (rho_f[1] - rho_f[0])
    vals_f = grid.interp_matrix(np.exp(rho_f)) @ collocation_from_rows(u.values, g)
    P = graph_orbit_points(np.exp(rho_f), g, vals_f)
    surface = uniform_surface(P, g, rho_f[1] - rho_f[0], order=4)
    sup_H = surface.max_abs_mean_curvature(n, margin=3)
    A2 = graph_surface(u).second_fundamental_sq(n)
    return sup_H, sup_H / max(float(np.sqrt(np.max(A2))), 1.0 / grid.r_out)


def graph_operator(u: BandField, grid: RadialGrid | None = None) -> BandOperator:
    """Band-diagonal linearization about the radialized graph u, on u's grid
    or on grid.  On another grid the background slope is interpolated
    inside u's radii and continues flat beyond them."""
    slope = (u.grid.D @ u.values[0]) / u.grid.r
    if grid is None:
        return BandOperator(u.spectrum, u.grid, slope)
    P = u.grid.interp_matrix(np.clip(grid.r, u.grid.r_in, u.grid.r_out))
    return BandOperator(u.spectrum, grid, P @ slope)


def graph_defect(op: BandOperator, base: BandField, H_base: np.ndarray, w: BandField) -> BandField:
    """Band rows of op w - (H(base + w) - H_base): the part of the mean
    curvature of base + w that the linearization op about base leaves out,
    the right-hand side of a Picard step."""
    H = mean_curvature_graph(base + w)
    q = rows_from_collocation(H - H_base, angular_grid(base.spectrum))
    return BandField(base.spectrum, base.grid, op.apply(w).values - q)


# -- Green's function ---------------------------------------------------------------


def green_function(u: BandField, rho_in: float) -> GreenTable:
    """Annulus approximation of the operator's Green's function about the
    graph patch u, on [rho_in, r0] with r0 = u.grid.r_out.

    Solves the radial Dirichlet problem with r^{2-n} data on the inner ring
    and zero on the outer boundary; for n = 3 the additive constant a0 is
    fitted from the mid-range profile.
    """
    n = u.spectrum.n
    r0 = u.grid.r_out
    if not (0.0 < rho_in <= 0.26 * r0):
        raise PreconditionError(f"rho_in={rho_in} too large for r0={r0}")
    grid = RadialGrid(rho_in, r0, u.grid.m)
    op = graph_operator(u, grid)
    # band 0 with Dirichlet rows on the unscaled matrix, not solve_rows:
    # the row-scaled system changes gamma_0 in its last digits, which moves
    # the glue's outputs by up to 3e-7 relative (seed-0 bench, verify)
    A = op.matrix(0).copy()
    rhs = np.zeros(grid.m)
    A[0, :] = 0.0
    A[0, 0] = 1.0
    rhs[0] = rho_in ** (2 - n)
    A[-1, :] = 0.0
    A[-1, -1] = 1.0
    rhs[-1] = 0.0
    gam = np.linalg.solve(A, rhs)

    a0 = 0.0
    if n == 3:
        # the inner truncation adds a small extra r^{2-n} multiple (relative
        # size (rho_in/r0)^{n-2}); include it in the fit basis so the
        # additive constant is read off cleanly
        r = grid.r
        base = r ** (2 - n)
        mid = (r > 6 * rho_in) & (r < r0 / 3)
        X = np.stack(
            [np.ones(mid.sum()), base[mid], r[mid] * np.log(1 / r[mid]), r[mid]], axis=1
        )
        coef, *_ = np.linalg.lstsq(X, (gam - base)[mid], rcond=None)
        a0 = float(coef[0])
    return GreenTable(grid=grid, values=gam, a0=a0)


# -- the opened-neck background -----------------------------------------------------


def rigid_deviation_rows(
    u: BandField, scales: Scales, A: RigidParams, green: GreenTable
) -> BandField:
    """Band rows of the neck-opening deviation w_{eps, A} on the grid of the
    graph patch u.

    Closed-form family: Green's term with coefficient (eps + e)/(n - 2)
    (shifted by its additive constant when n = 3), vertical shift d, the
    rotation's linear height R x_1, and the translation's first-order effect
    through the Green's-function gradient, both on the axial band-1 row.
    The quadratic rigid-motion remainders are below the working ball
    |A| <= kappa r_eps^2.
    """
    grid = u.grid
    out = BandField.zeros(u.spectrum, grid)
    coef = (scales.eps + A.e) / (u.spectrum.n - 2)
    gam, dgam = green.at(grid.r)
    out.values[0] = coef * (gam - green.a0) + A.d
    out.values[1] = grid.r * A.R - coef * dgam * A.T
    return out


# -- annulus solvers -----------------------------------------------------------------


def poisson_neck(op: BandOperator, h_II: SphereField) -> BandField:
    """High-mode Poisson operator at the inner ring of the opened neck, for
    op the linearization about the neck's graph on [r_eps, r0].

    w0 carries each band along its flat-harmonic power law, cut off away
    from the ring; the annulus solve removes the resulting defect without
    touching the prescribed high-mode trace.
    """
    spec = op.spectrum
    n = spec.n
    if has_low_modes(h_II):
        raise PreconditionError("poisson_neck requires high-mode data")
    grid = op.grid
    r_eps, r0 = grid.r_in, grid.r_out
    w0 = BandField.zeros(spec, grid)
    ramp = smooth_step((2 * r0 - 8 * grid.r) / r0)
    for k in range(2, spec.L + 1):
        a = (2 - n) / 2.0 - spec.gamma[k]
        w0.values[k] = h_II.c[k] * (grid.r / r_eps) ** a * ramp
    defect = op.apply(w0)
    corr = solve_mixed(op, defect)
    return w0 - corr


# -- the nonlinear neck solve ---------------------------------------------------------


@dataclass(frozen=True)
class NeckPiece:
    """Converged opened-neck graph: its height, oracle residuals, inner
    Cauchy data, outer deviation slope, and the iteration count and
    contraction factors of the Picard loop that found it."""

    V: BandField  # total height over the reference plane (unshifted)
    residual: float
    residual_rel: float
    cauchy_inner: tuple  # ring-frame (value, r_eps d_r) SphereField pair
    outer_slope: SphereField  # r0 d_r of the deviation from the base graph at r0
    iterations: int
    contractions: list


def build_neck_piece(
    u: BandField,
    scales: Scales,
    A: RigidParams,
    h_I: SphereField,
    h_II: SphereField,
    tol: float,
    kappa: float,
    green: GreenTable,
) -> NeckPiece:
    """Solve the opened-neck minimal-graph problem on [r_eps, r0] over the
    graph patch u, r0 = u.grid.r_out, opened along green, the Green's
    function about u (green_function(u, r_eps / 4) on the glue's path).

    Boundary structure: high modes of the full height match h_II on the
    inner ring, the deviation from the base graph matches h_I on the outer
    ring, and the rigid parameters supply the inner low modes.  tol bounds
    the oracle residual relative to the chart curvature scale.
    """
    n = u.spectrum.n
    spec = u.spectrum
    r0 = u.grid.r_out
    triple_norm = h_I.holder_norm() + A.norm(scales) + h_II.holder_norm()
    if not in_working_ball(triple_norm, kappa, scales):
        raise PreconditionError(
            f"|(h_I, A, h_II)| = {triple_norm:.3e} exceeds kappa r_eps^2 = {kappa * scales.r_eps ** 2:.3e}"
        )
    if has_low_modes(h_II):
        raise PreconditionError("h_II must be high-mode data")

    # the opened neck's backdrop: the patch resampled onto [r_eps, r0] plus
    # the rows w_{eps, A} there
    base = resample(u, RadialGrid(scales.r_eps, r0, u.grid.m))
    dev = rigid_deviation_rows(base, scales, A, green)
    backdrop = base + dev
    grid = backdrop.grid
    op = graph_operator(backdrop)
    g = angular_grid(spec)

    # Dirichlet lift: deviation-above-base equals h_I + d + r0 R t at the
    # outer ring.  The vertical-shift and rotation content must survive at
    # the ring: subtracting it here would extend it back inward along the
    # regular harmonic profiles and cancel those degrees of freedom at the
    # inner ring exactly.  The outer piece receives the same ring data, so
    # the 0th-order interface match still holds by construction.
    outer_data = h_I + rigid_ring_data(A, r0, h_II.spectrum) - dev.trace(-1)
    w_h = solve_mixed(op, BandField.zeros(spec, grid), outer=outer_data)

    # mean curvature of the backdrop graph
    H_base_vals = mean_curvature_graph(backdrop)
    H_base = BandField(spec, grid, rows_from_collocation(H_base_vals, g))
    gamma_H = solve_mixed(op, H_base)

    inner_gap = project_high(h_II - (backdrop + w_h).trace(0))
    w_pi = poisson_neck(op, inner_gap)
    wt = w_h + w_pi - gamma_H

    def update(v: BandField) -> BandField:
        return solve_mixed(op, graph_defect(op, backdrop, H_base_vals, wt + v))

    floor = max(float(np.max(np.abs(wt.values))), scales.r_eps**2, 1e-300)
    v, it, contractions = picard(
        update, BandField.zeros(spec, grid), 1e-8, floor, MAX_PICARD,
        stage=f"neck (eps={scales.eps:.3e})",
    )

    w = wt + v
    V = backdrop + w
    sup_H, res_rel = graph_residual(V)
    if not res_rel <= tol:
        raise ResidualError(
            f"neck oracle residual {res_rel:.3e} (relative to curvature scale) exceeds tol={tol:.3e}"
        )

    shift = scales.eps * scales.r_eps ** (2 - n) / (n - 2)
    inner_val = V.trace(0)
    inner_val.c[0] -= shift
    inner_slope = V.d_trace(0)

    return NeckPiece(
        V=V,
        residual=sup_H,
        residual_rel=res_rel,
        cauchy_inner=(inner_val, inner_slope),
        outer_slope=(V - base).d_trace(-1),
        iterations=it,
        contractions=contractions,
    )


def rigid_ring_data(A: RigidParams, r0: float, spectrum) -> SphereField:
    """The rigid parameters' outer-ring content d + r0 R t."""
    f = SphereField.zeros(spectrum)
    f.c[0] = A.d
    f.c[1] = r0 * A.R
    return f


def simple_cauchy_neck(scales: Scales, A: RigidParams, h_II: SphereField):
    """Closed-form simple Cauchy data of the opened neck at the inner ring.

    Uses w0_A(r theta) = e r^{2-n}/(n-2) + d + r R t + eps r^{1-n} T t;
    the high-mode slope multiplier is the flat power law, expressed through
    apply_Dtheta as -(n-2) - D_theta.
    """
    n = scales.n
    r_eps = scales.r_eps
    value = h_II.copy()
    value.c[0] += A.e / (n - 2) * r_eps ** (2 - n) + A.d
    value.c[1] += r_eps * A.R + scales.eps * r_eps ** (1 - n) * A.T
    slope = apply_Dtheta(h_II) * (-1.0) - (n - 2.0) * h_II
    slope.c[0] += -scales.eps * r_eps ** (2 - n) - A.e * r_eps ** (2 - n)
    slope.c[1] += r_eps * A.R + (1 - n) * scales.eps * r_eps ** (1 - n) * A.T
    return value, slope
