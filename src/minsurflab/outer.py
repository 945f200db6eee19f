"""The noncompact outer surface: ends, the nondegeneracy check, and site
solvers.

The outer surface carries a core cylinder chart (the seed catenoid, centered
at the origin), its two planar-asymptotic ends in the catenoid band
representation, the seed's NeckBox, and one GlueLevel per earlier gluing,
the only record of what that glue added: its pieces, its site, its new end
and its NeckBox.  Every record here is frozen: a glue builds a new surface
with one more level and leaves the one it was glued onto as it was.  A
glue works at one Site on the top end, which assemble_outer returns with
that end, without changing the surface.  The top end always opens upward:
every glued end does, and the seed's lower end, the only one that opens
downward, has the lowest plane.  That end enters only through its plane
height.  The site's patch and exterior are graph patches, as in the
neck module: the end's height about the site as a BandField on a RadialGrid,
whose r_out is the patch's outer radius.  Ring-data solves are localized at
the site: responses to data on the small ring decay like exterior
multipoles, so the exterior problem on [r0, R_site] with per-band decaying
Robin closure represents the global solve up to couplings far below the
working ball; the global band structure of the core enters only the
nondegeneracy check, which a tower runs once, on its seed.

The outer Cauchy map U_eps (cauchy_U_eps) is the ring slope of the solved
outer field (solve_outer_nonlinear) against the neck's.  Its simple model
U_0 (simple_cauchy_outer) is the ring slope of the linear site-exterior
solve minus that of the linear interior-ball solve with the same ring data;
both are radial band solves (radial.solve_rows), so U_0 is a multiplier per
band.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .catenoid import (
    CatenoidPiece,
    ContractionError,
    PreconditionError,
    ResidualError,
    band_pair,
    conjugation_weight,
    grid_profile,
    picard,
)
from .cylinder import BandField, rows_from_collocation
from .diffops import NotAKnotSpline
from .neck import NeckPiece, graph_defect, graph_operator, graph_residual
from .profile import FIRST_INTEGRAL_TOL, ProfileError, ProfileTable, Scales, profile_values
from .radial import RadialGrid, decaying, regular, solve_rows
from .spectral import BandSpectrum, SphereField, angular_grid, gamma_sq


def psi_infinity(profile: ProfileTable) -> float:
    """Limit height of the unit catenoid end, with the analytic tail.

    The tail of the height integral beyond the table is phi^{2-n}/(n-2) up
    to relative O(phi^{-2n+2}); a table whose neglected phi_top^{4-3n}/(n-2)
    exceeds FIRST_INTEGRAL_TOL psi_inf ends too soon and is refused.
    """
    n = profile.n
    phi_top = profile.phi[-1]
    psi_inf = float(profile.psi[-1] + phi_top ** (2 - n) / (n - 2))
    if not phi_top ** (4 - 3 * n) / (n - 2) <= FIRST_INTEGRAL_TOL * psi_inf:
        raise ProfileError(f"psi_inf's tail past the table's end s_max={profile.s_max:.3f} exceeds "
                           f"{FIRST_INTEGRAL_TOL:.0e} psi_inf; rebuild the profile with a larger s_max")
    return psi_inf


_END_SPLINES: dict = {}


def _end_splines(n: int):
    """Cached not-a-knot splines (diffops.NotAKnotSpline) for ends, tabulated
    on s in [0, 26]: s(log phi), and one of s whose rows are phi, phi', psi
    and psi', each the bits of a spline of its own."""
    if n not in _END_SPLINES:
        s = np.linspace(0.0, 26.0, 9000)
        phi, dphi, psi, dpsi = profile_values(n, s)
        _END_SPLINES[n] = {
            "s_of_logphi": NotAKnotSpline(np.log(phi[1:]), s[1:]),
            "profile": NotAKnotSpline(s, np.stack([phi, dphi, psi, dpsi])),
            "psi_inf": psi[-1] + phi[-1] ** (2 - n) / (n - 2),
            "logphi_max": float(np.log(phi[-1])),
        }
    return _END_SPLINES[n]


@dataclass(frozen=True)
class EndModel:
    """A planar-asymptotic end in the scaled catenoid band representation,
    opening upward from its asymptotic plane.  The seed's lower end opens
    downward; it is never the top end, so only its plane_height is read."""

    a: float  # end scale (neck units of its generating catenoid)
    w: BandField | None  # decaying perturbation rows (may be None)
    axis_xy: np.ndarray  # horizontal (n,) position of the end's axis
    plane_height: float  # ambient height of the asymptotic plane

    def height_profile(self, n: int, R: np.ndarray):
        """Height over the asymptotic plane and its radial slope at radii R
        from the end's axis (ambient units); vectorized via cached splines."""
        R = np.atleast_1d(np.asarray(R, dtype=float))
        sp = _end_splines(n)
        target = np.log(R / self.a)
        if np.any(target <= 0) or np.any(target > sp["logphi_max"]):
            raise PreconditionError("end radius outside the representable range")
        s = sp["s_of_logphi"](target)
        phi, dphi, psi, dpsi = sp["profile"](s)
        h = self.a * (sp["psi_inf"] - psi)
        g = -dpsi / dphi  # d height / d radius, sign per the upper branch
        if self.w is not None:
            wg = self.w.grid
            sw = np.clip(s, wg.s[0], wg.s[-1])
            idx = np.minimum(((sw - wg.s[0]) / wg.step).astype(int), wg.m - 1)
            conj = conjugation_weight(n, phi)
            h = h + conj * self.w.values[0][idx] * (-dphi / phi)
        return h, g


@dataclass(frozen=True)
class NeckBox:
    """A box about a neck, a sup-norm square horizontally times a height
    interval: outside every box |A| < 1, inside it |A| <= c_j."""

    center_xy: np.ndarray  # horizontal center
    halfwidth: float  # horizontal half-width, in the sup norm
    z_range: tuple  # (lowest, highest) ambient height
    c_j: float  # curvature bound inside the box

    def contains(self, xy: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Whether each point (xy[i], z[i]) lies in the box."""
        return ((np.max(np.abs(xy - self.center_xy), axis=1) <= self.halfwidth)
                & (self.z_range[0] <= z) & (z <= self.z_range[1]))

    def meets(self, other: "NeckBox") -> bool:
        """Whether the two closed boxes intersect."""
        return bool(np.max(np.abs(self.center_xy - other.center_xy))
                    <= self.halfwidth + other.halfwidth
                    and self.z_range[1] >= other.z_range[0]
                    and other.z_range[1] >= self.z_range[0])

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Site:
    """A gluing site: the end it was cut from, the compact patch about it,
    the site exterior, and where it sits.  The patch and the exterior are
    graph patches: the end's height over its plane about the site, as a
    BandField on a RadialGrid whose r_out is the patch's outer radius."""

    patch: BandField  # the end about the site on [r_eps/8, r0], u(0) = 0
    exterior: BandField  # the end about the site on [r0, 0.45 r_site]
    center_xy: np.ndarray  # horizontal position of the site, on e_1 from the end's axis
    height: float  # ambient height of the site on the end glued to
    r_site: float  # the site's distance from that end's axis
    end: EndModel  # the end the site was cut from


@dataclass(frozen=True)
class GlueLevel:
    """One glued level, all its glue added: the neck and catenoid pieces,
    the site they sit on, the new end and the neck box with its c_j."""

    neck_piece: NeckPiece
    catenoid_piece: CatenoidPiece
    site: Site
    ring_height: float  # ambient height of the catenoid ring frame
    new_end: EndModel
    box: NeckBox


@dataclass(frozen=True)
class OuterSurface:
    """Core cylinder chart, the seed's two ends and neck box, and one
    GlueLevel per glue (oldest first): a tower's whole cumulative state,
    from which ends and neck_boxes read."""

    profile: ProfileTable
    spectrum: BandSpectrum
    core_scale: float
    seed_ends: list
    seed_box: NeckBox
    glue_levels: tuple = ()

    @property
    def n(self) -> int:
        return self.profile.n

    @property
    def ends(self) -> list:
        return self.seed_ends + [lv.new_end for lv in self.glue_levels]

    @property
    def neck_boxes(self) -> list:
        """The seed's box and each level's; none on an unglued surface."""
        if not self.glue_levels:
            return []
        return [self.seed_box] + [lv.box for lv in self.glue_levels]

    def top_end(self) -> EndModel:
        return max(self.ends, key=lambda e: e.plane_height)


# the seed's core chart covers |s| <= CORE_SPAN on a uniform grid of step CORE_STEP
CORE_SPAN = 8.0
CORE_STEP = 8e-3


def seed_catenoid(profile: ProfileTable, spectrum: BandSpectrum, scale: float) -> OuterSurface:
    """The exact catenoid with two planar ends and its neck box as the tower
    seed, centered at the origin."""
    n = profile.n
    top = scale * psi_infinity(profile)
    # the upper end, then the lower one, kept for its plane height
    ends = [EndModel(a=scale, w=None, axis_xy=np.zeros(n), plane_height=float(h))
            for h in (top, -top)]
    return OuterSurface(profile=profile, spectrum=spectrum, core_scale=scale, seed_ends=ends,
                        seed_box=_seed_neck_box(n, scale))


def neck_waist(n: int, a: float) -> tuple:
    """(phi_star, psi(s_star)), the waist a neck box of scale a holds: phi_star
    = max((sqrt(n(n-1))/a)^(1/n), 1.05), and phi(s_star) = phi_star through the
    closed form phi(s) = cosh((n-1) s)^(1/(n-1))."""
    phi_star = max((np.sqrt(n * (n - 1.0)) / a) ** (1.0 / n), 1.05)
    s_star = float(np.arccosh(phi_star ** (n - 1)) / (n - 1))
    return phi_star, float(profile_values(n, np.array([s_star]))[2][0])


def _seed_neck_box(n: int, a: float) -> NeckBox:
    """Box around the seed's neck at the origin: half-width 1.3 a phi_star
    and height 1.2 a psi(s_star) on either side of the core (neck_waist)."""
    phi_star, psis = neck_waist(n, a)
    return NeckBox(
        center_xy=np.zeros(n),
        halfwidth=float(1.3 * a * phi_star),
        z_range=(float(-1.2 * a * psis), float(1.2 * a * psis)),
        c_j=1.1 * np.sqrt(n * (n - 1.0)) / a,
    )


# -- nondegeneracy ------------------------------------------------------------------


def _band_matrix_conjugated(n: int, ell: int, s: np.ndarray, delta: float) -> np.ndarray:
    """Dense band operator conjugated by the two-ended decay weight.

    Substituting w = e^{mu(s)} what, mu a smoothed delta |s|, maps the
    admissible space to bounded functions; Dirichlet rows then exclude any
    kernel decaying no faster than the weight with O(1) margin, so a small
    singular value detects genuine admissible kernel only.
    """
    data = grid_profile(n, s)
    h = s[1] - s[0]
    m = s.size
    mu_p = delta * s / np.sqrt(s * s + 1.0)
    mu_pp = delta * (1.0 / np.sqrt(s * s + 1.0) - s * s / (s * s + 1.0) ** 1.5)
    vpot = -gamma_sq(n, ell) + data["pot"] + mu_pp + mu_p**2
    A = np.zeros((m, m))
    i = np.arange(1, m - 1)
    A[i, i - 1] = 1.0 / h**2 - mu_p[1:-1] / h
    A[i, i] = -2.0 / h**2 + vpot[1:-1]
    A[i, i + 1] = 1.0 / h**2 + mu_p[1:-1] / h
    A[0, 0] = 1.0
    A[m - 1, m - 1] = 1.0
    return A


def _sigma_min_tridiagonal(A: np.ndarray) -> float:
    """Smallest singular value of a tridiagonal A.

    The singular values of A are the nonnegative eigenvalues of the
    Golub-Kahan matrix [[0, A], [A^T, 0]].  Interleaving it (row i of A to
    index 2i, column j to 2j+1) makes it a symmetric band of half-width 3,
    whose eigenvalue m (counting from 0, ascending) is sigma_min.
    """
    from scipy.linalg import eigvals_banded

    m = A.shape[0]
    i = np.arange(m)
    # lower band storage: entry (r, c), r >= c, at [r - c, c]
    ab = np.zeros((4, 2 * m))
    ab[1, 2 * i] = A[i, i]
    ab[1, 2 * i[1:] - 1] = A[i[1:], i[1:] - 1]
    ab[3, 2 * i[:-1]] = A[i[:-1], i[:-1] + 1]
    return float(eigvals_banded(ab, lower=True, select="i", select_range=(m, m))[0])


# the nodes of the nondegeneracy check's core grid
NONDEGENERACY_NODES = 400


def nondegeneracy_delta(n: int) -> float:
    """The weight of the nondegeneracy check's decaying space: -(n+1)/2, the
    midpoint of the admissible window (-(n+2)/2, -n/2)."""
    return -(n + 1) / 2.0


# (n, L) -> normalized sigma_min of the nondegeneracy check
_NONDEGENERACY: dict = {}


def nondegeneracy_check(surface: OuterSurface) -> float:
    """The normalized smallest singular value of the core operator on the
    space decaying at the weight nondegeneracy_delta(n), minimized over
    bands, on NONDEGENERACY_NODES nodes; raises ContractionError when it is
    below 1e-6.  It is the one reader of the weight, and over the whole
    admissible window it stays above 7.6e-4 (n = 3..12, L in {2, 8, 16}).

    Reads only n and L from the surface, so the check of a tower's seed
    holds for every level glued onto it, and its value is computed once per
    (n, L) and kept in _NONDEGENERACY; a cached value below the threshold
    raises again on every call.  A band with gamma_l >= |delta| is the
    tridiagonal _band_matrix_conjugated, whose sigma_min is one eigenvalue
    of its Golub-Kahan band matrix; the quotient bands (gamma_l < |delta|)
    take a dense SVD.
    """
    n = surface.n
    L = surface.spectrum.L
    key = (n, L)
    if key not in _NONDEGENERACY:
        _NONDEGENERACY[key] = _smallest_singular_value(n, L, nondegeneracy_delta(n),
                                                       NONDEGENERACY_NODES)
    worst = _NONDEGENERACY[key]
    if worst < 1e-6:
        raise ContractionError(
            f"outer surface degenerate: normalized sigma_min = {worst:.3e}"
        )
    return worst


def _smallest_singular_value(n: int, L: int, delta: float, m: int) -> float:
    """The normalized sigma_min of nondegeneracy_check, minimized over
    bands 0..L."""
    s = np.linspace(-CORE_SPAN, CORE_SPAN, m)
    mu = delta * np.sqrt(s * s + 1.0)
    weight = np.exp(mu)
    worst = np.inf
    for ell in range(0, L + 1):
        A = _band_matrix_conjugated(n, ell, s, delta)
        g2 = gamma_sq(n, ell)
        opscale = max(1.0, g2 + delta**2)
        if np.sqrt(g2) < abs(delta):
            # content decaying at only the indicial rate gamma_l < |delta| is
            # outside the admissible space yet invisible to local rows on a
            # truncated cylinder; quotient the end-decaying homogeneous pair
            um = band_pair(n, s, ell)[1]
            slow = np.stack([um / weight, um[::-1] / weight], axis=1)
            slow[0, :] = 0.0
            slow[-1, :] = 0.0
            # orthonormal basis of the complement of the pair's span
            Q = np.linalg.qr(slow, mode="complete")[0][:, slow.shape[1]:]
            sigma = np.linalg.svd(A @ Q, compute_uv=False)[-1]
        else:
            sigma = _sigma_min_tridiagonal(A)
        worst = min(worst, sigma / opscale)
    return float(worst)


# -- gluing site --------------------------------------------------------------------

# the least r0 / r_eps that find_site picks for the ring between a site's
# patch and its exterior, and the r0 its tilt cap assumes
R0_OVER_R_EPS = 180.0


def find_site(surface: OuterSurface, scales: Scales) -> tuple:
    """March outward along the top end to the first admissible gluing site,
    and pick the radius r0 of its ring.

    Beyond the hard bound |grad u| <= r_eps, the site tilt is pushed below
    r_eps^2 / (2 r0) (r0 = R0_OVER_R_EPS r_eps) so the reference-plane tilt
    contributes below the matching tolerance at the inner ring; the fixed
    point then never needs a rotation of the glued pieces, and the new end
    stays parallel to the old plane.  The site sits a factor 1.3 beyond the
    first radius that passes, and beyond 1.3 times three times the last
    glued level's site radius, r_site from the end's axis along the first
    axis.  Returns (center_xy, r0), with r0 = max(R0_OVER_R_EPS r_eps,
    1e-3 r_site) capped at r_site / 10; the tilt then adds up to r0 times
    the cap at the ring (ROADMAP item 2(c)).  An r0 below 60 r_eps leaves
    no room for the neck and is refused.
    """
    margin = 1.3
    n = surface.n
    end = surface.top_end()
    r_min_prev = surface.glue_levels[-1].site.r_site if surface.glue_levels else 0.0
    r_cap = 0.98 * end.a * np.exp(_end_splines(n)["logphi_max"])
    R = np.geomspace(max(2.0 * end.a, 1e-6), r_cap / margin, 600)
    _, g_prof = end.height_profile(n, R)
    tilt_cap = min(scales.r_eps, 0.5 * scales.r_eps**2 / (R0_OVER_R_EPS * scales.r_eps))
    ok = np.abs(g_prof) < tilt_cap
    ok &= R > margin * max(r_min_prev * 3.0, 2.0 * end.a)
    idx = np.argmax(ok)
    if not ok[idx]:
        raise PreconditionError(
            "no admissible gluing site: end gradient never drops below the tilt cap"
        )
    r_site = float(R[idx] * margin)
    r0 = min(max(R0_OVER_R_EPS * scales.r_eps, 1e-3 * r_site), r_site / 10.0)
    if r0 < 60.0 * scales.r_eps:
        raise PreconditionError(f"r0={r0:.3e} leaves no room above r_eps={scales.r_eps:.3e}")
    return end.axis_xy + r_site * np.eye(n)[0], r0


# Chebyshev nodes of the site patch and of the site exterior
M_RADIAL = 150


def assemble_outer(
    surface: OuterSurface,
    r0: float,
    center_xy: np.ndarray,
    scales: Scales,
) -> Site:
    """The Site at the horizontal position center_xy on the top end, its
    patch and exterior rebased so u(0) = 0, which records that end; the
    surface is not changed.

    The site must have |grad u| <= r_eps over the end's asymptotic plane.
    """
    n = surface.n
    end = surface.top_end()
    xy = np.asarray(center_xy, dtype=float)
    r_site = float(np.linalg.norm(xy - end.axis_xy))
    h_site, g_site = end.height_profile(n, np.array([r_site]))
    if abs(g_site[0]) > scales.r_eps:
        raise PreconditionError(
            f"site rejected: |grad u| = {abs(g_site[0]):.3e} exceeds r_eps = {scales.r_eps:.3e}"
        )
    if 4 * r0 > 0.5 * r_site:
        raise PreconditionError("r0 too large for the site radius")
    spec = surface.spectrum
    g = angular_grid(spec)

    def site_field(grid: RadialGrid) -> BandField:
        # the end's height about the site on the grid's rings, rebased so u(0) = 0
        R_amb = np.sqrt(
            r_site**2 + grid.r[:, None] ** 2 + 2 * r_site * grid.r[:, None] * g.t[None, :]
        )
        h_prof, _ = end.height_profile(n, R_amb.ravel())
        u_vals = h_prof.reshape(R_amb.shape) - float(h_site[0])
        return BandField(spec, grid, rows_from_collocation(u_vals, g))

    patch = site_field(RadialGrid(scales.r_eps / 8.0, r0, M_RADIAL))
    exterior = site_field(RadialGrid(r0, 0.45 * r_site, M_RADIAL))
    height = float(end.plane_height + h_site[0])
    return Site(patch, exterior, xy, height, r_site, end)


# -- site-exterior solves --------------------------------------------------------------


def solve_outer_nonlinear(site: Site, h_I: SphereField, tol: float,
                          H_exterior: np.ndarray) -> BandField:
    """Minimal perturbation w of the site exterior with ring data h_I.

    Site-exterior Picard iteration on the mean-curvature defect; far planes
    are untouched by construction.  H_exterior is the mean curvature of the
    unperturbed exterior, mean_curvature_graph(site.exterior), which a glue
    computes once for all its solves on the site (GlueContext).
    """
    base = site.exterior
    op = graph_operator(base)

    def exterior_solve(f: BandField | None) -> BandField:
        # Dirichlet data h_I at the ring, decaying multipoles at the truncation
        return BandField(base.spectrum, base.grid, solve_rows(op, f, h_I, decaying))

    def update(w: BandField) -> BandField:
        return exterior_solve(graph_defect(op, base, H_exterior, w))

    w = exterior_solve(None)
    if np.any(h_I.c):
        w, _, _ = picard(update, w, 1e-9, 1e-300, 30, stage="outer")

    _, res_rel = graph_residual(base + w)
    if not res_rel <= tol:
        raise ResidualError(f"outer residual {res_rel:.3e} exceeds tol={tol:.3e}")
    return w


def simple_cauchy_outer(site: Site, h_I: SphereField) -> SphereField:
    """U_0: the ring slope r0 d_r of the linear site-exterior solve minus that
    of the linear interior-ball solve on [1e-3 r0, r0], both about the
    site's radial background with Dirichlet data h_I at the ring."""
    exterior, patch = site.exterior, site.patch
    spec = exterior.spectrum
    r0 = patch.grid.r_out
    ball = RadialGrid(1e-3 * r0, r0, patch.grid.m)
    w0 = solve_rows(graph_operator(exterior), None, h_I, decaying)
    wt0 = solve_rows(graph_operator(patch, ball), None, regular, h_I)
    return (BandField(spec, exterior.grid, w0).d_trace(0)
            - BandField(spec, ball, wt0).d_trace(-1))


def cauchy_U_eps(w: BandField, neck: NeckPiece) -> SphereField:
    """Solved outer Cauchy data on the ring (derivative slot): the slope of
    the outer perturbation w from solve_outer_nonlinear minus the neck
    piece's outer deviation slope."""
    return w.d_trace(0) - neck.outer_slope
