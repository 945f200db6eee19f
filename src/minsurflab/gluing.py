"""Conglomerate Cauchy maps, the fixed-point glue, and end-stacking towers.

A glue matches three solves along two interface rings: the perturbed
catenoid below the inner ring, the opened-neck annulus between the rings,
and the outer piece beyond the outer ring.  The mismatch map collects the
outer slope gap and the inner Cauchy-data gap; its simple model is block
diagonal over (ring data, rigid parameters, high modes) and explicitly
invertible, and the damped Picard iteration on the model-preconditioned
mismatch drives the true mismatch to the matching tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .catenoid import (
    CatenoidPiece,
    PreconditionError,
    build_catenoid_piece,
    default_delta,
    grid_profile,
    simple_cauchy_catenoid,
)
from .neck import (
    GreenTable,
    NeckPiece,
    RigidParams,
    build_neck_piece,
    green_function,
    simple_cauchy_neck,
)
from .outer import (
    EndModel,
    GlueLevel,
    OuterSurface,
    Site,
    assemble_outer,
    cauchy_U_eps,
    find_site,
    nondegeneracy_check,
    psi_infinity,
    simple_cauchy_outer,
    solve_outer_nonlinear,
)
from .profile import Scales, compute_scales, profile_values
from .spectral import BandSpectrum, SphereField, project_high, project_low


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
    def zeros(cls, spectrum: BandSpectrum, pole=None) -> "BoundaryTriple":
        return cls(
            SphereField.zeros(spectrum, pole),
            RigidParams.zeros(spectrum.n),
            SphereField.zeros(spectrum, pole),
        )

    def combine(self, other: "BoundaryTriple", a: float, b: float) -> "BoundaryTriple":
        return BoundaryTriple(
            a * self.h_I + b * other.h_I,
            RigidParams(
                a * self.A.T + b * other.A.T,
                a * self.A.R + b * other.A.R,
                a * self.A.d + b * other.A.d,
                a * self.A.e + b * other.A.e,
            ),
            a * self.h_II + b * other.h_II,
        )


@dataclass
class GlueContext:
    """Frozen inputs of one glue: surface, site, scales, grids, tolerances."""

    surface: OuterSurface
    site: Site
    scales: Scales
    green: GreenTable
    kappa: float
    tol_piece: float
    delta: float


def prepare_glue(
    surface: OuterSurface, eps: float, kappa: float, tol_piece: float, delta: float
) -> GlueContext:
    """Select a site on the top end and freeze the glue inputs; delta is the
    catenoid piece's weight."""
    scales = compute_scales(surface.profile, eps)
    r_site, center_xy = find_site(surface, scales)
    r0 = min(max(180.0 * scales.r_eps, 1e-3 * r_site), r_site / 10.0)
    if r0 < 60.0 * scales.r_eps:
        raise PreconditionError(
            f"r0={r0:.3e} leaves no room above r_eps={scales.r_eps:.3e}"
        )
    site = assemble_outer(surface, r0, center_xy, scales)
    green = green_function(site.patch, scales.r_eps / 4.0)
    return GlueContext(
        surface=surface,
        site=site,
        scales=scales,
        green=green,
        kappa=kappa,
        tol_piece=tol_piece,
        delta=delta,
    )


# -- conglomerate maps ------------------------------------------------------------


def conglomerate_C(t: BoundaryTriple, ctx: GlueContext):
    """The mismatch triple (outer slope gap, inner value gap, inner slope gap)
    and the pieces it was measured on, {"catenoid", "neck"}.

    Zero mismatch means the three pieces form a C^1 matched minimal surface.
    """
    sc = ctx.scales
    cat = build_catenoid_piece(ctx.surface.profile, sc, t.h_II, ctx.kappa, ctx.tol_piece,
                               delta=ctx.delta)
    # the vertical-shift parameter acts as the relative offset of the
    # catenoid piece (lowering it by d raises the middle slot by d, the
    # model's response); inside the shared-ring-data formulation a middle
    # side shift would be cancelled at the inner ring by its own outer lift
    A_neck = RigidParams(t.A.T.copy(), t.A.R.copy(), 0.0, t.A.e)
    neck = build_neck_piece(
        ctx.site.patch, sc, A_neck, t.h_I, t.h_II, ctx.tol_piece, kappa=ctx.kappa, green=ctx.green
    )
    w = solve_outer_nonlinear(ctx.site, t.h_I, ctx.tol_piece)
    u_eps = cauchy_U_eps(w, neck)
    s_val = cat.cauchy[0].copy()
    s_val.low[0] -= t.A.d
    s_eps = (s_val, cat.cauchy[1])
    t_eps = neck.cauchy_inner
    mid_val = t_eps[0] - s_eps[0]
    mid_slope = t_eps[1] - s_eps[1]
    return (u_eps, mid_val, mid_slope), {"catenoid": cat, "neck": neck}


def triple_norm(mismatch) -> float:
    return mismatch[0].holder_norm() + mismatch[1].holder_norm() + mismatch[2].holder_norm()


class SimpleMaps:
    """Band-diagonal model maps and their exact inverse."""

    def __init__(self, ctx: GlueContext):
        self.ctx = ctx
        spec = ctx.surface.spectrum
        n = spec.n
        self.n = n
        # ring multipliers of U_0 per band: its response to 1 in each band's
        # first row, exact because the solves are row-wise
        unit = SphereField(spec, np.r_[1.0, 1.0, np.zeros(n - 1)], np.ones(spec.L - 1))
        resp = simple_cauchy_outer(ctx.site, unit)
        self.u0_mult = np.concatenate([resp.low[:2], resp.zonal])

    def U0(self, h_I: SphereField) -> SphereField:
        return h_I.band_multiply(self.u0_mult)

    def C0(self, t: BoundaryTriple):
        sc = self.ctx.scales
        s0 = simple_cauchy_catenoid(sc, t.h_II)
        t0 = simple_cauchy_neck(sc, t.A, t.h_II)
        return (self.U0(t.h_I), t0[0] - s0[0], t0[1] - s0[1])

    def invert(self, rhs) -> BoundaryTriple:
        """Exact inverse of the block model; the middle slot must carry low
        modes only (the model's range)."""
        ctx = self.ctx
        sc = ctx.scales
        n = self.n
        spec = ctx.surface.spectrum
        ring, mid_val, mid_slope = rhs
        hi_val = project_high(mid_val)
        if hi_val.holder_norm() > 1e-8 * max(1.0, mid_val.holder_norm()):
            raise PreconditionError(
                "middle value slot carries high modes outside the model range"
            )
        h_I = ring.band_multiply(1.0 / self.u0_mult)
        r_eps = sc.r_eps
        # band-0 block: value = e r^{2-n}/(n-2) + d ; slope = -e r^{2-n}
        e = -mid_slope.low[0] / r_eps ** (2 - n)
        d = mid_val.low[0] - e * r_eps ** (2 - n) / (n - 2)
        # band-1 block: value = r R + eps r^{1-n} T ; slope = r R + (1-n) eps r^{1-n} T
        vvec = mid_val.low[1:]
        svec = mid_slope.low[1:]
        T = (vvec - svec) / (n * sc.eps * r_eps ** (1 - n))
        R = (vvec - sc.eps * r_eps ** (1 - n) * T) / r_eps
        # high modes: slope = -((n-2) + 2 D_theta) h_II
        from .spectral import dtheta_multipliers

        dmult = dtheta_multipliers(spec)
        denom = -(n - 2.0) - 2.0 * dmult
        h_II = project_high(mid_slope).band_multiply(1.0 / denom)
        h_II = project_high(h_II)
        return BoundaryTriple(h_I, RigidParams(T, R, float(d), float(e)), h_II)


def _project_model_range(c_0, c_eps):
    """Difference C0 - C_eps with the middle value slot's high modes dropped
    (they cancel identically in exact matching; discretization crumbs are
    outside the model's range)."""
    ring = c_0[0] - c_eps[0]
    mid_val = project_low(c_0[1] - c_eps[1])
    mid_slope = c_0[2] - c_eps[2]
    return ring, mid_val, mid_slope


@dataclass
class GluedSurface:
    """Assembled glue: the outer surface with the new level recorded, this
    glue's neck and catenoid pieces, and its certificates."""

    outer: OuterSurface
    neck_piece: NeckPiece
    catenoid_piece: CatenoidPiece
    triple: BoundaryTriple
    mismatch_norm: float
    certificates: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def fixed_point_glue(ctx: GlueContext, tol_match: float | None) -> GluedSurface:
    """Damped Picard iteration on the model-preconditioned mismatch.

    Starts undamped; a step that does not cut the mismatch below 0.9 times
    the last one damps harder and restarts from the best point.  Terminates
    when the mismatch norm falls under the matching tolerance (None meaning
    1e-8 r_eps^{2-n}) and fails after 30 evaluations.
    """
    max_iter = 30
    theta = 1.0
    sc = ctx.scales
    spec = ctx.surface.spectrum
    if tol_match is None:
        tol_match = 1e-8 * sc.r_eps ** (2 - spec.n)
    maps = SimpleMaps(ctx)
    t = BoundaryTriple.zeros(spec, pole=ctx.site.pole)
    history = []
    ball = ctx.kappa * sc.r_eps**2
    best = None
    prev_norm = None
    for it in range(1, max_iter + 1):
        mismatch, pieces = conglomerate_C(t, ctx)
        mis_norm = triple_norm(mismatch)
        history.append(mis_norm)
        if best is None or mis_norm < best[0]:
            best = (mis_norm, t, pieces, mismatch)
        if mis_norm <= tol_match:
            break
        if prev_norm is not None and mis_norm > 0.9 * prev_norm:
            # overshooting mode: damp harder and restart from the best point
            theta = max(0.25, 0.6 * theta)
            t = best[1]
            mismatch = best[3]
        prev_norm = mis_norm
        c_0 = maps.C0(t)
        rhs = _project_model_range(c_0, mismatch)
        t_new = maps.invert(rhs)
        t = t.combine(t_new, 1.0 - theta, theta)
        if t.norm(sc) > ball * (1 + 1e-6):
            raise GlueError(
                f"iterate escaped the working ball: |t| = {t.norm(sc):.3e} > {ball:.3e}; "
                f"trajectory {['%.2e' % v for v in history]}"
            )
    else:
        raise GlueError(
            f"matching iteration exhausted {max_iter} iterations; trajectory "
            f"{['%.2e' % v for v in history]}"
        )
    mis_norm, t, pieces, _ = best
    return assemble_glued_surface(ctx, t, pieces, mis_norm, history)


def assemble_glued_surface(ctx, t, pieces, mis_norm, history) -> GluedSurface:
    """Place the catenoid chart at the ring frame and record the new end,
    its level and its neck box on the context's surface; the first level
    also records the seed's neck box."""
    sc = ctx.scales
    surf = ctx.surface
    n = surf.n
    site = ctx.site
    cat: CatenoidPiece = pieces["catenoid"]
    neck: NeckPiece = pieces["neck"]
    shift = sc.eps * sc.r_eps ** (2 - n) / (n - 2)
    ring_height = site.height + shift
    eps_len = sc.eps_len
    psi_cut = sc.psi_cut
    psi_inf = psi_infinity(surf.profile)
    plane_height = ring_height + eps_len * (psi_inf - psi_cut)
    end = EndModel(
        a=eps_len,
        w=cat.w,
        orientation=+1,
        axis_center=np.concatenate([site.center_xy + t.A.T, [ring_height - eps_len * psi_cut]]),
        plane_height=float(plane_height),
    )
    # neck box: |A| < 1 outside; the box contains the full scaled waist
    phi_star = (np.sqrt(n * (n - 1.0)) / eps_len) ** (1.0 / n)
    s_star = float(np.log(2 * phi_star))
    phis, _, psis, _ = (np.asarray(v) for v in profile_values(n, np.array([s_star])))
    half_w = 1.6 * eps_len * phi_star
    z_lo = ring_height - eps_len * (psi_cut + float(psis[0]))
    z_hi = ring_height + eps_len * (float(psis[0]) - psi_cut)
    box = {
        "center_xy": site.center_xy.copy(),
        "halfwidth": float(max(half_w, site.r0)),
        "z_range": (float(min(z_lo, ring_height) - 0.2 * eps_len * phi_star),
                    float(max(z_hi, ring_height) + 0.2 * eps_len * phi_star)),
        "c_j": 1.1 * np.sqrt(n * (n - 1.0)) / eps_len,
    }
    if not surf.glue_levels:
        surf.neck_boxes.append(_seed_neck_box(surf))
    surf.neck_boxes.append(box)
    surf.glue_levels.append(GlueLevel(neck, cat, site, ring_height))
    surf.ends.append(end)
    return GluedSurface(
        outer=surf,
        neck_piece=neck,
        catenoid_piece=cat,
        triple=t,
        mismatch_norm=mis_norm,
        info={"history": history, "ring_height": ring_height,
              "site": {"height": site.height}},
    )


def glue_end(
    surface: OuterSurface,
    eps: float,
    kappa: float = 16.0,
    tol_piece: float = 5e-3,
    tol_match: float | None = None,
    delta: float | None = None,
) -> GluedSurface:
    """Glue one half-catenoid to the top end of the surface.

    Refuses eps above the certified threshold and carries the embeddedness
    certificate of the verify module.  Works on a copy: the input surface
    is never changed, and the result's outer surface is it plus one level.
    The nondegeneracy check and the seed's neck box run only on a surface
    with no levels yet, so a tower glued with one delta checks once.
    """
    from .catenoid import recorded_eps0
    from .verify import embeddedness

    limit = recorded_eps0(kappa)
    if eps > limit:
        raise PreconditionError(
            f"eps={eps:.3e} above the certified threshold {limit:.3e}"
        )
    if delta is None:
        delta = default_delta(surface.spectrum.n)
    surface = replace(surface, ends=list(surface.ends), glue_levels=list(surface.glue_levels),
                      neck_boxes=list(surface.neck_boxes))
    if not surface.glue_levels:
        nondegeneracy_check(surface, delta, m=400)
    # the catenoid piece solves at the weight the nondegeneracy check used
    ctx = prepare_glue(surface, eps, kappa=kappa, tol_piece=tol_piece, delta=delta)
    glued = fixed_point_glue(ctx, tol_match=tol_match)
    glued.certificates["new_end_tilt"] = _new_end_tilt(glued)
    cert = embeddedness(glued)
    glued.certificates["embeddedness"] = cert
    if not cert["embedded"]:
        raise GlueError(f"embeddedness failed: witness {cert.get('witness')}")
    return glued


def _new_end_tilt(glued: GluedSurface) -> float:
    """Tilt of the new end's fitted asymptotic plane against the old plane.

    The linear-band content of the catenoid perturbation drives the far
    graph slope b1(s) phi^{(2-n)/2} (-phi'/phi) / (eps_len phi); the tilt is
    its supremum over the far half of the chart.
    """
    cat = glued.catenoid_piece
    n = cat.scales.n
    w = cat.w
    data = grid_profile(n, w.grid.s)
    phi, dphi = data["phi"], data["dphi"]
    conj = phi ** ((2 - n) / 2.0)
    far = w.grid.s >= w.grid.s[0] + 6.0
    b1 = np.abs(w.values[1 : 1 + n][:, far]).sum(axis=0)
    slope = b1 * conj[far] * np.abs(dphi[far]) / phi[far] / (cat.scales.eps_len * phi[far])
    return float(np.max(slope)) if np.any(far) else 0.0


def _seed_neck_box(surface: OuterSurface) -> dict:
    n = surface.n
    a = surface.core_scale
    phi_star = (np.sqrt(n * (n - 1.0)) / a) ** (1.0 / n)
    phi_star = max(phi_star, 1.05)
    from scipy.optimize import brentq

    s_star = brentq(
        lambda s: profile_values(n, np.array([abs(s)]))[0][0] - phi_star, 1e-6, 10.0
    )
    psis = profile_values(n, np.array([s_star]))[2][0]
    return {
        "center_xy": surface.core_center[:n].copy(),
        "halfwidth": float(1.3 * a * phi_star),
        "z_range": (float(surface.core_center[-1] - 1.2 * a * psis),
                    float(surface.core_center[-1] + 1.2 * a * psis)),
        "c_j": 1.1 * np.sqrt(n * (n - 1.0)) / a,
    }


@dataclass
class TowerReport:
    levels: list
    plane_heights: list
    separations: list
    slab: tuple
    slab_bound: float
    curvature_outside: float
    boxes: list
    certificates: list
    improperness_ratios: list

    def to_dict(self) -> dict:
        return {
            "levels": self.levels,
            "plane_heights": self.plane_heights,
            "separations": self.separations,
            "slab": list(self.slab),
            "slab_bound": self.slab_bound,
            "curvature_outside_boxes": self.curvature_outside,
            "boxes": [
                {k: (list(v) if isinstance(v, tuple) else (list(v) if isinstance(v, np.ndarray) else v))
                 for k, v in b.items()}
                for b in self.boxes
            ],
            "certificates": self.certificates,
            "improperness_ratios": self.improperness_ratios,
        }


def default_schedule(K: int, eps0: float) -> list:
    """eps_k strictly below min(2^{-k}, eps0^k)."""
    return [0.9 * min(2.0 ** -(k + 1), eps0 ** (k + 1)) for k in range(K)]


def stack_tower(
    K: int,
    seed: OuterSurface,
    schedule: list | None,
    kappa: float = 16.0,
    tol_piece: float = 5e-3,
    tol_match: float | None = None,
    delta: float | None = None,
) -> tuple:
    """Stack K glues on the seed; returns (GluedSurface | seed, TowerReport).

    schedule None means default_schedule(K - 1, recorded_eps0(kappa)).
    tol_match and delta reach every level's glue_end.  The seed is never
    changed: a failed level's partial report holds the levels before it.
    """
    from .catenoid import recorded_eps0

    if K < 1:
        raise PreconditionError("K must be >= 1")
    eps0 = recorded_eps0(kappa)
    if schedule is None:
        schedule = default_schedule(K - 1, eps0)
    if len(schedule) < K - 1:
        raise PreconditionError("schedule shorter than the tower")
    for k, e in enumerate(schedule[: K - 1]):
        bound = min(2.0 ** -(k + 1), eps0 ** (k + 1))
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
            glued = glue_end(surface, eps, kappa=kappa, tol_piece=tol_piece,
                             tol_match=tol_match, delta=delta)
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
    prof = second_fund(glued) if glued is not None else {"outside_sup": np.nan, "boxes": []}
    return TowerReport(
        levels=levels + ([{"aborted": partial}] if partial else []),
        plane_heights=heights,
        separations=seps,
        slab=slab,
        slab_bound=slab_bound,
        curvature_outside=float(prof["outside_sup"]),
        boxes=prof["boxes"],
        certificates=certificates,
        improperness_ratios=ratios,
    )
