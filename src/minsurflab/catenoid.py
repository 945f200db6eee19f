"""Jacobi solvers on the half-cylinder and the perturbed catenoid piece.

The conjugated linearized operator on the cylinder is

    L = d^2/ds^2 + Delta_{S^{n-1}} - ((n-2)/2)^2 + n(3n-2)/4 phi^{2-2n},

band-diagonal in the sphere decomposition.  Bands l >= 2 admit a Dirichlet
condition at the cut; bands l <= 1 do not (their decaying homogeneous
solutions are excluded by the admissible weight), and are solved by the
double-decaying variation-of-parameters kernel.

The nonlinear solve perturbs the truncated scaled catenoid along a
transition field that is vertical at the cut ring and normal beyond one
unit up; its fixed point realizes a minimal piece whose boundary is the
graph of the prescribed high-mode data over the cut sphere.

Every solve here (solve_GS, solve_PS, build_catenoid_piece) is the same for
every weight delta that admissible_delta admits, so none takes delta; the
weight is checked by the CLI's RunConfig and by outer.nondegeneracy_check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cylinder import (
    BandField,
    UniformGrid,
    collocation_bound,
    collocation_from_rows,
    homogeneous_pair,
    rows_from_collocation,
    solve_band_decaying_kernel,
    solve_band_dirichlet_robin,
)
from .diffops import NotAKnotSpline, fd_derivative
from .geometry import BLOCK, uniform_surface
from .profile import ProfileTable, Scales, profile_values
from .spectral import SphereField, ZonalGrid, angular_grid, apply_Dtheta, has_low_modes


class PreconditionError(ValueError):
    """Input outside the contract of a solve."""


class ContractionError(RuntimeError):
    """Fixed-point iteration failed to contract."""


def picard(step, v0, tol: float, floor: float, max_iter: int, *, stage: str):
    """Iterate v <- step(v) on band-row fields until the update settles.

    The update norm is max|v_new - v| over the rows, the scale
    max(max|v_new|, floor).  From the second iteration on the iteration
    stops when the update is at most tol * scale, or when it stalls: at most
    1e-5 * scale and more than half the previous update.  Returns
    (v, iterations, contraction factors).  Exceptions raised by step
    propagate.  An update whose norm or scale is not finite raises
    ContractionError at once, naming the stage, the iteration and the
    update-norm history; so does an iteration that has not settled after
    max_iter steps, naming the last contraction factor too.
    """
    v = v0
    history = []
    contractions = []
    for it in range(1, max_iter + 1):
        v_new = step(v)
        dnorm = float(np.max(np.abs(v_new.values - v.values)))
        scale = max(float(np.max(np.abs(v_new.values))), floor)
        if not (np.isfinite(dnorm) and np.isfinite(scale)):
            raise ContractionError(
                f"{stage} iteration {it} gave a non-finite update (norm {dnorm:.2e}, "
                f"scale {scale:.2e}); update norms {['%.2e' % d for d in history + [dnorm]]}"
            )
        if history and history[-1] > 0:
            contractions.append(dnorm / history[-1])
        stalled = bool(history) and dnorm <= 1e-5 * scale and dnorm > 0.5 * history[-1]
        history.append(dnorm)
        v = v_new
        if it >= 2 and (dnorm <= tol * scale or stalled):
            return v, it, contractions
    last = f"{contractions[-1]:.3f}" if contractions else "none"
    raise ContractionError(
        f"{stage} iteration did not converge in {max_iter} iterations "
        f"(last contraction {last}); update norms {['%.2e' % d for d in history]}"
    )


class ResidualError(RuntimeError):
    """Realized surface missed the declared mean-curvature tolerance."""


def admissible_delta(n: int, delta: float) -> bool:
    return -(n + 2) / 2.0 < delta < -n / 2.0


def default_delta(n: int) -> float:
    return -(n + 1) / 2.0


_PROFILE_CACHE: dict = {}


def grid_profile(n: int, s: np.ndarray) -> dict:
    """Profile samples and the conjugated-operator potential on a grid."""
    key = (n, round(float(s[0]), 12), round(float(s[-1]), 12), s.size)
    if key not in _PROFILE_CACHE:
        phi, dphi, psi, dpsi = profile_values(n, s)
        pot = n * (3 * n - 2) / 4.0 * phi ** (2 - 2 * n)
        _PROFILE_CACHE[key] = {
            "phi": phi,
            "dphi": dphi,
            "psi": psi,
            "dpsi": dpsi,
            "pot": pot,
        }
    return _PROFILE_CACHE[key]


_PAIR_CACHE: dict = {}


def band_pair(n: int, s: np.ndarray, ell: int):
    """Read-only homogeneous pair (u_plus, u_minus, W) of band ell on a grid.

    The band potential -(lam_l + ((n-2)/2)^2) + pot is shared by every row
    of the band and every solve on the grid, so the pair is computed once.
    The cache is a module-level dict of its own rather than a field of the
    grid_profile entries, so that resetting the module's dicts starts it
    cold together with the profile cache.  Its key is the grid_profile key
    plus the band and the exact step.
    """
    h = float(s[1] - s[0])
    key = (n, round(float(s[0]), 12), round(float(s[-1]), 12), s.size, int(ell), h)
    if key not in _PAIR_CACHE:
        c2 = ((n - 2) / 2.0) ** 2
        lam = ell * (ell + n - 2.0)
        vpot = -(lam + c2) + grid_profile(n, s)["pot"]
        up, um, W = homogeneous_pair(vpot, h, np.sqrt(lam + c2))
        up.flags.writeable = False
        um.flags.writeable = False
        _PAIR_CACHE[key] = (up, um, W)
    return _PAIR_CACHE[key]


def _check_profile_covers(profile: ProfileTable, s: np.ndarray):
    if s[0] < profile.s[0] - 1e-9 or s[-1] > profile.s[-1] + 1e-9:
        raise PreconditionError(
            f"grid [{s[0]:.3f}, {s[-1]:.3f}] exceeds the profile table range "
            f"[{profile.s[0]:.3f}, {profile.s[-1]:.3f}]; rebuild the profile with "
            f"s_max >= {max(-s[0], s[-1]):.3f}"
        )


def apply_Lcal(w: BandField) -> BandField:
    """Apply the conjugated cylinder operator row by row (2nd order)."""
    spec = w.spectrum
    data = grid_profile(spec.n, w.grid.s)
    c2 = ((spec.n - 2) / 2.0) ** 2
    out = np.empty_like(w.values)
    v = w.values
    d2 = fd_derivative(v, w.grid.step, 1, 2, 2)
    for ell in range(spec.L + 1):
        out[ell] = d2[ell] + (-(spec.lam[ell] + c2) + data["pot"]) * v[ell]
    return BandField(spec, w.grid, out)


def solve_GS(f: BandField) -> BandField:
    """Right inverse of the cylinder operator with high-mode zero trace.

    Bands l >= 2: Dirichlet 0 at the cut, decaying Robin at the far
    truncation.  Bands l <= 1: double-decaying kernel; no trace may be
    imposed.
    """
    spec = f.spectrum
    n = spec.n
    grid = f.grid
    data = grid_profile(n, grid.s)
    h = grid.step
    c2 = ((n - 2) / 2.0) ** 2
    out = np.empty_like(f.values)
    for ell in range(spec.L + 1):
        if ell >= 2:
            vpot = -(spec.lam[ell] + c2) + data["pot"]
            out[ell] = solve_band_dirichlet_robin(vpot, h, f.values[ell], spec.gamma[ell])
        else:
            out[ell] = solve_band_decaying_kernel(band_pair(n, grid.s, ell), h, f.values[ell])
    return BandField(spec, grid, out)


# the catenoid piece's s-grid: step and length above the cut
PIECE_STEP = 5e-3
PIECE_SPAN = 15.0


def _piece_grid(S: float) -> np.ndarray:
    return S + PIECE_STEP * np.arange(int(round(PIECE_SPAN / PIECE_STEP)) + 1)


def solve_PS(g_II: SphereField, s_grid: np.ndarray) -> BandField:
    """Decaying solution with prescribed high-mode trace at the cut.

    Built as the explicit flat decaying extension w0 of the trace data plus
    a correction solve against the potential term, on the uniform grid
    s_grid, whose first node is the cut.  g_II must have no low-mode content.
    """
    spec = g_II.spectrum
    n = spec.n
    if has_low_modes(g_II):
        raise PreconditionError("solve_PS requires data without low-mode content")
    grid = UniformGrid(s_grid)
    w0 = BandField.zeros(spec, grid)
    decay = np.exp(-np.outer(spec.gamma[2:], grid.s - s_grid[0]))
    w0.values[2:] = g_II.c[2:, None] * decay
    data = grid_profile(n, grid.s)
    rhs = BandField(spec, grid, -data["pot"][None, :] * w0.values)
    return w0 + solve_GS(rhs)


# -- nonlinear catenoid piece ----------------------------------------------------


def smooth_step(x: np.ndarray) -> np.ndarray:
    """Quintic smooth step: 0 for x <= 0, 1 for x >= 1, C^2 ramp between."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


@dataclass(frozen=True)
class CatenoidPiece:
    """Converged perturbed catenoid with its cut-ring Cauchy data: the field
    w, the decaying extension of the boundary data plus the Picard
    correction, and the iteration count and contraction factors of the
    Picard loop that found the correction."""

    scales: Scales
    w: BandField
    residual: float  # oracle sup |H| at unit neck scale
    cauchy: tuple  # (value trace, scaled radial slope trace) as SphereFields
    iterations: int
    contractions: list


# length of the window above the cut on which the nonlinear defect is evaluated
DEFECT_SPAN = 6.0


class _NeckGeometry:
    """Collocation machinery for the transition-field perturbation.

    The nonlinear defect is only evaluated on s <= s_cut + DEFECT_SPAN: the
    conjugation weight phi^{(n+2)/2} grows like e^{(n+2)s/2} and would
    amplify curvature-engine roundoff beyond the size of the genuinely
    nonlinear contribution, which itself decays super-exponentially.
    """

    def __init__(self, n: int, s: np.ndarray, grid: ZonalGrid, eps_len: float):
        self.n = n
        self.s = s
        self.grid = grid
        self.eps_len = eps_len
        data = grid_profile(n, s)
        self.phi = data["phi"]
        self.dphi = data["dphi"]
        self.psi = data["psi"]
        self.dpsi = data["dpsi"]
        chi = smooth_step(s - s[0])
        conj = self.phi ** ((2 - n) / 2.0)
        self.alpha_theta = conj * chi * self.dpsi / self.phi
        self.alpha_vert = conj * ((1.0 - chi) - chi * self.dphi / self.phi)
        self.conj = conj
        self.mfac = self.phi ** ((n + 2) / 2.0)

    def surface_points(self, w: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Ambient points (3, hi - lo, Nb) of the perturbed surface on the
        grid rows lo:hi, from w, the scaled field's values on those rows."""
        g = self.grid
        rows = slice(lo, hi)
        F = self.phi[rows, None] + w * self.alpha_theta[rows, None]
        G = self.psi[rows, None] + w * self.alpha_vert[rows, None]
        return np.stack([F * g.t[None, :], F * g.sinb[None, :], G])

    def bare_rows(self, w_bound: np.ndarray) -> np.ndarray:
        """Whether each row's surface points are the bare catenoid's
        (phi t, phi sin beta, psi), bit for bit, for every scaled field w
        with |w| <= w_bound on that row: |w alpha_theta| and |w alpha_vert|
        stay below a quarter of the spacing of the doubles at phi and psi,
        so surface_points' sums round back to phi and psi."""
        return ((w_bound * np.abs(self.alpha_theta) < np.spacing(self.phi) / 4)
                & (w_bound * np.abs(self.alpha_vert) < np.spacing(np.abs(self.psi)) / 4))

    def conjugated_mc(self, w: BandField) -> np.ndarray:
        """Collocation values of the conjugated mean-curvature functional.

        Sign fixed so the linearization at w = 0 is the cylinder operator.
        Returns the k rows of the near window s <= S + DEFECT_SPAN only,
        computed from the surface on k + 4 rows (a stencil margin); callers
        combine it with the linear operator on those rows.  The surface
        points are built block by block as the curvature engine walks them.
        """
        k = int(np.sum(self.s <= self.s[0] + DEFECT_SPAN))
        m = k + 4
        g = self.grid
        w_hat = collocation_from_rows(w.values[:, :m], g) / self.eps_len

        def points(lo: int, hi: int) -> np.ndarray:
            return self.surface_points(w_hat[lo:hi], lo, hi)

        h = float(self.s[1] - self.s[0])
        H = uniform_surface(points, g, h, rows=m).mean_curvature(self.n)
        return -self.eps_len * self.mfac[:k, None] * H[:k]


def recorded_eps0(kappa: float) -> float:
    """Recorded contraction threshold: the solve is certified below this."""
    return 5e-3 / max(1.0, kappa)


def in_working_ball(norm: float, kappa: float, scales: Scales) -> bool:
    """Whether a boundary-data norm lies in the glue's working ball
    kappa r_eps^2, with a relative slack of 1e-9 for roundoff.  The two
    pieces refuse data outside it, and the glue stops an iterate that
    leaves it."""
    return norm <= kappa * scales.r_eps**2 * (1 + 1e-9)


def build_catenoid_piece(
    profile: ProfileTable,
    scales: Scales,
    h_II: SphereField,
    kappa: float,
    tol: float,
    max_iter: int = 40,
) -> CatenoidPiece:
    """Solve the perturbed-catenoid problem with high-mode boundary data.

    Fixed point of v -> G_S(Qbar(wtilde + v)) where Qbar is evaluated
    numerically as the difference between the linear operator and the
    conjugated mean curvature of the realized transition-field surface.
    scales is compute_scales(profile, eps) at the glue's eps, which the
    caller already holds; tol bounds the oracle mean-curvature residual at
    unit neck scale.

    Every step checks the cubic-regime guard: the scaled field
    phi^(-n/2) w / eps_len must stay within 0.2 on the collocation nodes,
    or the step raises ContractionError with that maximum.  A step whose
    band rows bound it (cylinder.collocation_bound) below 0.2 (1 - 1e-9)
    cannot trip it and skips the collocation; any other takes the maximum
    exactly.
    """
    n = profile.n
    eps = scales.eps
    spec = h_II.spectrum
    if has_low_modes(h_II):
        raise PreconditionError("h_II must have no low-mode content")
    h_norm = h_II.holder_norm()
    if not in_working_ball(h_norm, kappa, scales):
        raise PreconditionError(
            f"|h_II| = {h_norm:.3e} exceeds kappa r_eps^2 = {kappa * scales.r_eps ** 2:.3e}"
        )
    if eps > recorded_eps0(kappa):
        raise PreconditionError(
            f"eps={eps:.3e} above the recorded threshold {recorded_eps0(kappa):.3e} for kappa={kappa}"
        )
    grid = angular_grid(spec)

    s_eps = scales.s_eps
    s_grid = _piece_grid(s_eps)
    _check_profile_covers(profile, s_grid)
    geo = _NeckGeometry(n, s_grid, grid, scales.eps_len)

    g_II = h_II * (geo.phi[0] ** ((n - 2) / 2.0))
    wt = solve_PS(g_II, s_grid=s_grid)

    guard = 0.2  # smallness guard on the cubic-regime variable
    guard_weight = np.max(geo.phi ** (-n / 2.0))

    def update(v: BandField) -> BandField:
        # Qbar lives on the defect window's k rows and is zero beyond them
        w = wt + v
        mc = geo.conjugated_mc(w)
        k = mc.shape[0]
        qbar = BandField.zeros(spec, w.grid)
        qbar.values[:, :k] = apply_Lcal(w).values[:, :k] - rows_from_collocation(mc, grid)
        v_new = solve_GS(qbar)
        rows = (v_new + wt).values
        if collocation_bound(rows, grid) * guard_weight / scales.eps_len <= guard * (1 - 1e-9):
            return v_new
        gvar = np.max(np.abs(collocation_from_rows(rows, grid))) * guard_weight / scales.eps_len
        if gvar > guard:
            raise ContractionError(
                f"cubic-regime guard tripped: |phi^(-n/2) eps^(-1/(n-1)) w| = {gvar:.3e}"
            )
        return v_new

    floor = max(float(np.max(np.abs(wt.values))), scales.r_eps**2, 1e-300)
    v, it, contractions = picard(
        update, BandField.zeros(spec, wt.grid), 1e-7, floor, max_iter,
        stage=f"catenoid (eps={eps:.3e})",
    )
    w = wt + v

    # independent oracle: offset, refined grid, 4th-order stencils
    res_unit = _oracle_residual(n, grid, scales, w)
    if not res_unit <= tol:
        raise ResidualError(
            f"oracle mean-curvature residual {res_unit:.3e} exceeds tol={tol:.3e}"
        )

    cauchy = _catenoid_cauchy(geo, scales, w)
    return CatenoidPiece(
        scales=scales,
        w=w,
        residual=res_unit,
        cauchy=cauchy,
        iterations=it,
        contractions=contractions,
    )


# sup |H| of the bare catenoid's oracle chart, block by block: {(n, m,
# s_fine[0], step, rows): {first row of a block: the block's peak}}, kept for
# the blocks past every oracle's last non-bare row
_BARE_PEAKS: dict = {}

# a row's H reads no row more than 5 below it (geometry's module docstring),
# so a row _BARE_REACH or more past the last row that is not bare reads bare
# rows only
_BARE_REACH = 8


def _oracle_residual(n, grid, scales, w) -> float:
    """Largest mean curvature of the piece on an offset grid at half the
    step, away from its 4 end rows: the band rows are resampled there by a
    not-a-knot spline (diffops.NotAKnotSpline) and the surface is
    differenced at order 4.  The oracle's rows are made block by block as
    the curvature engine walks the grid: each block evaluates the spline at
    its own nodes only, collocates those rows and builds their points, and
    sup |H| is taken as a running maximum over the blocks.  Neither the
    resampled rows, nor their collocation values, nor the surface, nor H
    is ever held whole.

    Far up the piece w is too small to move a point: a row is bare when
    sum_l |w_l| / eps_len, which bounds the scaled field over the sphere
    (|Z_l| <= 1), raised by 1e-6 for rounding, passes
    _NeckGeometry.bare_rows.  The H of a block that starts _BARE_REACH or
    more rows past the last row that is not bare reads bare rows only, so
    it is the bare catenoid's on this grid, bit for bit.  The first oracle on a grid keeps
    the peaks of those blocks in _BARE_PEAKS; a later one stops its walk at
    the first kept block past its own last non-bare row and takes the kept
    peaks of the rest, in the order np.max would have met them."""
    s = w.grid.s
    h = w.grid.step
    s_fine = (s[0] + 0.37 * h) + (h / 2.0) * np.arange(2 * (s.size - 4))
    s_fine = s_fine[s_fine <= s[-1] - 2 * h]
    spline = NotAKnotSpline(s, w.values)
    geo_f = _NeckGeometry(n, s_fine, grid, scales.eps_len)

    def points(lo: int, hi: int) -> np.ndarray:
        w_hat = collocation_from_rows(spline(s_fine[lo:hi]), grid) / scales.eps_len
        return geo_f.surface_points(w_hat, lo, hi)

    # the bound is resampled a block at a time, as the walk resamples the rows
    w_bound = np.concatenate([np.abs(spline(s_fine[lo:lo + BLOCK])).sum(axis=0)
                              for lo in range(0, s_fine.size, BLOCK)])
    moved = np.flatnonzero(~geo_f.bare_rows(w_bound * ((1 + 1e-6) / scales.eps_len)))
    last_moved = int(moved[-1]) if moved.size else -1
    key = (n, grid.t.size, float(s_fine[0]), h / 2.0, s_fine.size)
    kept = _BARE_PEAKS.get(key, {})
    stop = min((r for r in kept if r - last_moved >= _BARE_REACH), default=None)
    surface = uniform_surface(points, grid, h / 2.0, order=4, rows=s_fine.size)
    top, bare = -np.inf, {}
    for rows, peak in surface.block_peaks(n, margin=4):
        if rows.start - last_moved >= _BARE_REACH:
            bare[rows.start] = peak
        top = np.max((top, peak))
        if rows.stop == stop:
            top = np.max((top, *(p for r, p in sorted(kept.items()) if r >= stop)))
            break
    if bare:
        _BARE_PEAKS[key] = {**kept, **bare}
    return float(top)


def _catenoid_cauchy(geo: _NeckGeometry, scales: Scales, w: BandField):
    value = w.trace(0) * float(geo.conj[0])
    slope_rows = BandField(w.spectrum, w.grid, geo.conj[None, :] * w.values).d_trace(0)
    pref = geo.phi[0] / geo.dphi[0]  # phi'(s_eps) < 0 on the lower branch
    slope = slope_rows * pref
    slope.c[0] += pref * scales.eps_len * geo.dpsi[0]
    return value, slope


def simple_cauchy_catenoid(scales: Scales, h_II: SphereField):
    """Closed-form simple Cauchy data: (h_II, -eps r_eps^{2-n} + D_theta h_II).

    The slope slot is the exact scaled radial trace of the decaying flat
    extension of the boundary graph; its band multiplier is
    gamma_l - (n-2)/2, realized by apply_Dtheta.
    """
    n = scales.n
    value = h_II.copy()
    slope = apply_Dtheta(h_II)
    slope.c[0] += -scales.eps * scales.r_eps ** (2 - n)
    return value, slope


def cauchy_gap(solved: tuple, simple: tuple) -> float:
    """Gap between a piece's solved (value, slope) Cauchy pair and its
    closed-form simple pair: the sum of the two slots' Holder norms."""
    return (solved[0] - simple[0]).holder_norm() + (solved[1] - simple[1]).holder_norm()
