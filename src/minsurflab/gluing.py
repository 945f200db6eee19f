"""Conglomerate Cauchy maps, the fixed-point glue, and end-stacking towers.

A glue matches three solves along two interface rings: the perturbed
catenoid below the inner ring, the opened-neck annulus between the rings,
and the outer piece beyond the outer ring.  The mismatch map collects the
outer slope gap and the inner Cauchy-data gap.  Its simple model C_0
(model_C0) is block diagonal over (ring data, rigid parameters, high
modes), and model_invert is its exact inverse on the model's range; the
damped Picard iteration on the model-preconditioned mismatch
C_0(t) - C_eps(t) drives the true mismatch to the matching tolerance.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field, replace

import numpy as np

from .catenoid import (
    CatenoidPiece,
    PreconditionError,
    build_catenoid_piece,
    conjugation_weight,
    grid_profile,
    in_working_ball,
    recorded_eps0,
    simple_cauchy_catenoid,
)
from .neck import (
    GreenTable,
    NeckPiece,
    RigidParams,
    build_neck_piece,
    green_function,
    mean_curvature_graph,
    simple_cauchy_neck,
)
from .outer import (
    EndModel,
    GlueLevel,
    NeckBox,
    OuterSurface,
    Site,
    assemble_outer,
    cauchy_U_eps,
    find_site,
    neck_waist,
    nondegeneracy_check,
    psi_infinity,
    simple_cauchy_outer,
    solve_outer_nonlinear,
)
from .profile import Scales, compute_scales
from .spectral import BandSpectrum, SphereField, dtheta_multipliers, project_high


# a glue's default kappa (working ball) and piece tolerance
KAPPA = 16.0
TOL_PIECE = 5e-3


class GlueError(RuntimeError):
    """A glue failed; the message carries the failing stage.  A failed
    tower attaches its partial TowerReport as `report`."""

    def __init__(self, message: str, report: "TowerReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass
class BoundaryTriple:
    """The unknown (h_I, rigid parameters, h_II) of the matching problem."""

    h_I: SphereField
    A: RigidParams
    h_II: SphereField

    def norm(self, scales: Scales) -> float:
        return (
            self.h_I.holder_norm()
            + self.A.norm(scales)
            + self.h_II.holder_norm()
        )

    @classmethod
    def zeros(cls, spectrum: BandSpectrum) -> "BoundaryTriple":
        return cls(SphereField.zeros(spectrum), RigidParams.zeros(), SphereField.zeros(spectrum))

    def combine(self, other: "BoundaryTriple", a: float, b: float) -> "BoundaryTriple":
        rigid = (a * x + b * y for x, y in zip(astuple(self.A), astuple(other.A), strict=True))
        return BoundaryTriple(
            a * self.h_I + b * other.h_I, RigidParams(*rigid), a * self.h_II + b * other.h_II
        )


@dataclass(frozen=True)
class GlueContext:
    """Frozen inputs of one glue: surface, site, scales, grids, tolerances,
    and what every evaluation of the glue reads unchanged: the site's
    Green's function, U_0's multipliers and the exterior's mean curvature.
    No glue changes them; its result is a new surface."""

    surface: OuterSurface
    site: Site
    scales: Scales
    green: GreenTable
    kappa: float
    tol_piece: float
    u0_mult: np.ndarray  # U_0's ring multiplier per band
    H_exterior: np.ndarray  # mean_curvature_graph(site.exterior), the outer solves' base


def prepare_glue(surface: OuterSurface, eps: float, kappa: float, tol_piece: float) -> GlueContext:
    """Select a site on the top end and freeze the glue inputs.  Refuses
    eps above the certified threshold and a site that leaves no room for
    the neck."""
    limit = recorded_eps0(kappa)
    if eps > limit:
        raise PreconditionError(
            f"eps={eps:.3e} above the certified threshold {limit:.3e}"
        )
    scales = compute_scales(surface.profile, eps)
    center_xy, r0 = find_site(surface, scales)
    site = assemble_outer(surface, r0, center_xy, scales)
    green = green_function(site.patch, scales.r_eps / 4.0)
    # U_0's response to 1 in every band, exact because the solves are row-wise
    spec = surface.spectrum
    u0_mult = simple_cauchy_outer(site, SphereField(spec, np.ones(spec.L + 1))).c
    return GlueContext(
        surface=surface,
        site=site,
        scales=scales,
        green=green,
        kappa=kappa,
        tol_piece=tol_piece,
        u0_mult=u0_mult,
        H_exterior=mean_curvature_graph(site.exterior),
    )


# -- conglomerate maps ------------------------------------------------------------


def conglomerate_C(t: BoundaryTriple, ctx: GlueContext) -> tuple:
    """(mismatch, catenoid piece, neck piece): the mismatch triple (outer
    slope gap, inner value gap, inner slope gap) and the two pieces it was
    measured on.

    Zero mismatch means the three pieces form a C^1 matched minimal surface.
    """
    sc = ctx.scales
    cat = build_catenoid_piece(sc, t.h_II, ctx.kappa, ctx.tol_piece)
    # the vertical-shift parameter acts as the relative offset of the
    # catenoid piece (lowering it by d raises the middle slot by d, the
    # model's response); inside the shared-ring-data formulation a middle
    # side shift would be cancelled at the inner ring by its own outer lift
    A_neck = RigidParams(t.A.T, t.A.R, 0.0, t.A.e)
    neck = build_neck_piece(
        ctx.site.patch, sc, A_neck, t.h_I, t.h_II, ctx.tol_piece, kappa=ctx.kappa, green=ctx.green
    )
    w = solve_outer_nonlinear(ctx.site, t.h_I, ctx.tol_piece, ctx.H_exterior)
    u_eps = cauchy_U_eps(w, neck)
    s_val = cat.cauchy[0].copy()
    s_val.c[0] -= t.A.d
    s_eps = (s_val, cat.cauchy[1])
    t_eps = neck.cauchy_inner
    mid_val = t_eps[0] - s_eps[0]
    mid_slope = t_eps[1] - s_eps[1]
    return (u_eps, mid_val, mid_slope), cat, neck


def triple_norm(mismatch) -> float:
    return mismatch[0].holder_norm() + mismatch[1].holder_norm() + mismatch[2].holder_norm()


def model_C0(t: BoundaryTriple, ctx: GlueContext) -> tuple:
    """The block model C_0 at t: (U_0 h_I, middle value gap, middle slope
    gap) from the closed-form simple Cauchy data of the three pieces."""
    sc = ctx.scales
    s0 = simple_cauchy_catenoid(sc, t.h_II)
    t0 = simple_cauchy_neck(sc, t.A, t.h_II)
    return (t.h_I.band_multiply(ctx.u0_mult), t0[0] - s0[0], t0[1] - s0[1])


def model_invert(rhs, ctx: GlueContext) -> BoundaryTriple:
    """Exact inverse of the block model on its range.

    Only bands 0 and 1 of the middle value slot are read.  Above band 1
    the model's value slot is zero, since the catenoid and the neck both
    take h_II as their value trace there; the high modes that C_0 - C_eps
    carries in that slot lie outside the model's range, and h_II is read
    from the slope slot instead.
    """
    sc = ctx.scales
    spec = ctx.surface.spectrum
    n = spec.n
    ring, mid_val, mid_slope = rhs
    h_I = ring.band_multiply(1.0 / ctx.u0_mult)
    r_eps = sc.r_eps
    # band-0 block: value = e r^{2-n}/(n-2) + d ; slope = -e r^{2-n}
    e = -mid_slope.c[0] / r_eps ** (2 - n)
    d = mid_val.c[0] - e * r_eps ** (2 - n) / (n - 2)
    # band-1 block: value = r R + eps r^{1-n} T ; slope = r R + (1-n) eps r^{1-n} T
    val, slope = mid_val.c[1], mid_slope.c[1]
    T = (val - slope) / (n * sc.eps * r_eps ** (1 - n))
    R = (val - sc.eps * r_eps ** (1 - n) * T) / r_eps
    # high modes: slope = -((n-2) + 2 D_theta) h_II
    denom = -(n - 2.0) - 2.0 * dtheta_multipliers(spec)
    h_II = project_high(mid_slope).band_multiply(1.0 / denom)
    h_II = project_high(h_II)
    return BoundaryTriple(h_I, RigidParams(float(T), float(R), float(d), float(e)), h_II)


@dataclass(frozen=True)
class GluedSurface:
    """Assembled glue: a new outer surface, the glued one plus the new
    level, this glue's neck and catenoid pieces, and its certificates
    (none until glue_end adds them)."""

    outer: OuterSurface
    neck_piece: NeckPiece
    catenoid_piece: CatenoidPiece
    triple: BoundaryTriple
    mismatch_norm: float  # the last mismatch of info["history"]
    info: dict
    certificates: dict = field(default_factory=dict)


def fixed_point_glue(ctx: GlueContext, tol_match: float | None) -> GluedSurface:
    """Damped Picard iteration on the model-preconditioned mismatch.

    Starts undamped; a step that does not cut the mismatch below 0.9 times
    the last one damps harder and restarts from the best point.  Terminates
    when the mismatch norm falls under the matching tolerance (None meaning
    1e-8 r_eps^{2-n}), with the glue of that last evaluation, and fails
    after 30 evaluations.
    """
    max_iter = 30
    theta = 1.0
    sc = ctx.scales
    spec = ctx.surface.spectrum
    if tol_match is None:
        tol_match = 1e-8 * sc.r_eps ** (2 - spec.n)
    t = BoundaryTriple.zeros(spec)
    history = []
    best = None  # (norm, triple, mismatch) of the least mismatch so far
    for it in range(1, max_iter + 1):
        mismatch, cat, neck = conglomerate_C(t, ctx)
        mis_norm = triple_norm(mismatch)
        history.append(mis_norm)
        if best is None or mis_norm < best[0]:
            best = (mis_norm, t, mismatch)
        if mis_norm <= tol_match:
            # every earlier evaluation was above tol_match, so this is the best
            break
        if len(history) > 1 and mis_norm > 0.9 * history[-2]:
            # overshooting mode: damp harder and restart from the best point
            theta = max(0.25, 0.6 * theta)
            _, t, mismatch = best
        c_0 = model_C0(t, ctx)
        t_new = model_invert(tuple(a - b for a, b in zip(c_0, mismatch)), ctx)
        t = t.combine(t_new, 1.0 - theta, theta)
        if not in_working_ball(t.norm(sc), ctx.kappa, sc):
            raise GlueError(
                f"iterate escaped the working ball: |t| = {t.norm(sc):.3e} > "
                f"{ctx.kappa * sc.r_eps**2:.3e}; "
                f"trajectory {['%.2e' % v for v in history]}"
            )
    else:
        raise GlueError(
            f"matching iteration exhausted {max_iter} iterations; trajectory "
            f"{['%.2e' % v for v in history]}"
        )
    return assemble_glued_surface(ctx, t, cat, neck, history)


def assemble_glued_surface(ctx, t, cat: CatenoidPiece, neck: NeckPiece,
                           history) -> GluedSurface:
    """Place the catenoid chart at the ring frame and build the new level,
    with its end and its neck box; the result's outer surface is the
    context's surface plus that level, which stays as it was."""
    sc = ctx.scales
    surf = ctx.surface
    n = surf.n
    site = ctx.site
    shift = sc.eps * sc.r_eps ** (2 - n) / (n - 2)
    ring_height = site.height + shift
    eps_len = sc.eps_len
    psi_cut = sc.psi_cut
    psi_inf = psi_infinity(surf.profile)
    plane_height = ring_height + eps_len * (psi_inf - psi_cut)
    # the new end's axis: the site moved by the axial translation T
    axis_xy = site.center_xy.copy()
    axis_xy[0] += t.A.T
    end = EndModel(a=eps_len, w=cat.w, axis_xy=axis_xy, plane_height=float(plane_height))
    # neck box: |A| < 1 outside; the box contains the full scaled waist
    phi_star, psi_star = neck_waist(n, eps_len)
    half_w = 1.6 * eps_len * phi_star
    z_lo = ring_height - eps_len * (psi_cut + psi_star)
    z_hi = ring_height + eps_len * (psi_star - psi_cut)
    box = NeckBox(
        center_xy=site.center_xy.copy(),
        halfwidth=float(max(half_w, site.patch.grid.r_out)),
        z_range=(float(min(z_lo, ring_height) - 0.2 * eps_len * phi_star),
                 float(max(z_hi, ring_height) + 0.2 * eps_len * phi_star)),
        c_j=1.1 * np.sqrt(n * (n - 1.0)) / eps_len,
    )
    level = GlueLevel(neck, cat, site, ring_height, end, box)
    return GluedSurface(
        outer=replace(surf, glue_levels=surf.glue_levels + (level,)),
        neck_piece=neck,
        catenoid_piece=cat,
        triple=t,
        mismatch_norm=history[-1],
        info={"history": history, "ring_height": ring_height,
              "site": {"height": site.height}},
    )


def glue_end(
    surface: OuterSurface,
    eps: float,
    kappa: float = KAPPA,
    tol_piece: float = TOL_PIECE,
    tol_match: float | None = None,
) -> GluedSurface:
    """Glue one half-catenoid to the top end of the surface.

    Refuses a degenerate surface through nondegeneracy_check, at its fixed
    weight, and what prepare_glue refuses; raises GlueError when the
    embeddedness certificate of the verify module fails, and carries it
    otherwise.  Returns a new surface, the input plus one level; the input
    is never changed.  The check reads only n and L, so on a surface glued
    from a checked seed it is a cache lookup.
    """
    from .verify import embeddedness

    nondegeneracy_check(surface)
    ctx = prepare_glue(surface, eps, kappa=kappa, tol_piece=tol_piece)
    glued = fixed_point_glue(ctx, tol_match=tol_match)
    tilt = _new_end_tilt(glued.catenoid_piece)
    cert = embeddedness(glued)
    if not cert["embedded"]:
        raise GlueError(f"embeddedness failed: witness {cert.get('witness')}")
    return replace(glued, certificates={"new_end_tilt": tilt, "embeddedness": cert})


def _new_end_tilt(cat: CatenoidPiece) -> float:
    """Tilt of the new end's fitted asymptotic plane against the old plane.

    The linear-band content of the catenoid perturbation drives the far
    graph slope b1(s) phi^{(2-n)/2} (-phi'/phi) / (eps_len phi); the tilt is
    its supremum over the far half of the chart.
    """
    w = cat.w
    data = grid_profile(cat.scales.n, w.grid.s)
    far = w.grid.s >= w.grid.s[0] + 6.0
    phi, dphi = data["phi"][far], data["dphi"][far]
    b1 = np.abs(w.values[1][far])
    slope = b1 * conjugation_weight(cat.scales.n, phi) * np.abs(dphi) / phi / (cat.scales.eps_len * phi)
    return float(np.max(slope)) if np.any(far) else 0.0


@dataclass(frozen=True)
class TowerReport:
    levels: list
    plane_heights: list
    separations: list
    slab: tuple
    slab_bound: float
    curvature_outside: float | None  # None when no level is glued
    boxes: list
    certificates: list
    improperness_ratios: list

    def to_dict(self) -> dict:
        """The fields by name, curvature_outside as curvature_outside_boxes."""
        d = asdict(self)
        d["curvature_outside_boxes"] = d.pop("curvature_outside")
        return d


def _schedule_bound(k: int, eps0: float) -> float:
    """The bound eps_{k+1} must stay strictly below: min(2^-(k+1), eps0^(k+1))."""
    return min(2.0 ** -(k + 1), eps0 ** (k + 1))


def default_schedule(K: int, eps0: float) -> list:
    """eps_k strictly below min(2^{-k}, eps0^k)."""
    return [0.9 * _schedule_bound(k, eps0) for k in range(K)]


def stack_tower(
    K: int,
    seed: OuterSurface,
    schedule: list | None,
    kappa: float = KAPPA,
    tol_piece: float = TOL_PIECE,
    tol_match: float | None = None,
) -> tuple:
    """Stack K glues on the seed; returns (GluedSurface | seed, TowerReport).

    schedule holds one eps per glued level, K - 1 in all, each under its
    bound; None means default_schedule(K - 1, recorded_eps0(kappa)).
    kappa, tol_piece and tol_match reach every level's glue_end.  The seed
    is never changed: a failed level's partial report holds the levels
    before it.
    """
    if K < 1:
        raise PreconditionError("K must be >= 1")
    eps0 = recorded_eps0(kappa)
    if schedule is None:
        schedule = default_schedule(K - 1, eps0)
    if len(schedule) != K - 1:
        raise PreconditionError(
            f"schedule has {len(schedule)} eps; a tower of K={K} glues K - 1 = {K - 1} levels"
        )
    for k, e in enumerate(schedule):
        bound = _schedule_bound(k, eps0)
        if not (0 < e < bound):
            raise PreconditionError(
                f"schedule eps_{k + 1}={e:.3e} violates the bound {bound:.3e}"
            )
    surface = seed
    glued = None
    levels = []
    certificates = []
    for k in range(K - 1):
        eps = schedule[k]
        try:
            glued = glue_end(surface, eps, kappa=kappa, tol_piece=tol_piece, tol_match=tol_match)
        except Exception as exc:  # the partial report rides on the error
            report = _tower_report(surface, glued, levels, certificates, partial=str(exc))
            raise GlueError(f"tower aborted at level {k + 2}: {exc}", report) from exc
        surface = glued.outer
        levels.append({"k": k + 2, "eps": eps,
                       "mismatch": glued.mismatch_norm,
                       "triple_norm": glued.triple.norm(glued.catenoid_piece.scales)})
        certificates.append(glued.certificates["embeddedness"])
    report = _tower_report(surface, glued, levels, certificates)
    return (glued if glued is not None else surface), report


def _tower_report(surface, glued, levels, certificates, partial=None):
    from .verify import second_fund

    heights = sorted(e.plane_height for e in surface.ends)
    seps = list(np.diff(heights))
    eps_list = [lv["eps"] for lv in levels]
    slab = (min(heights), max(heights))
    slab_bound = 1.0 + float(np.sum(eps_list))
    ratios = [seps[i + 1] / seps[i] for i in range(len(seps) - 1)]
    prof = second_fund(glued) if glued is not None else {"outside_sup": None, "boxes": []}
    return TowerReport(
        levels=levels + ([{"aborted": partial}] if partial else []),
        plane_heights=heights,
        separations=seps,
        slab=slab,
        slab_bound=slab_bound,
        curvature_outside=prof["outside_sup"],
        boxes=prof["boxes"],
        certificates=certificates,
        improperness_ratios=ratios,
    )
