"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance is pinned here; nothing defers to later calibration.
"""

import json

import numpy as np
import pytest

from band_reference import dense_band_dirichlet_robin, norm_exp
from radial_reference import weighted_norm
from minsurflab.catenoid import grid_profile
from minsurflab.cylinder import (
    BandField,
    UniformGrid,
    solve_band_dirichlet_robin,
)
from minsurflab.gluing import stack_tower
from minsurflab.neck import (
    RigidParams,
    build_neck_piece,
    graph_operator,
    green_function,
    mean_curvature_graph,
    simple_cauchy_neck,
)
from minsurflab.outer import (
    _end_splines,
    assemble_outer,
    cauchy_U_eps,
    find_site,
    psi_infinity,
    seed_catenoid,
    simple_cauchy_outer,
    solve_outer_nonlinear,
)
from minsurflab.catenoid import build_catenoid_piece, cauchy_gap, simple_cauchy_catenoid, solve_GS
from minsurflab.profile import compute_scales, profile_values, solve_profile
from minsurflab.radial import RadialGrid, solve_mixed
from minsurflab.spectral import SphereField, band_spectrum
from minsurflab.verify import (
    chord_arc,
    delta_stability,
    mc_residual,
    plane_sample_graph,
    second_fund,
    separation_check,
)

N = 3
L = 8
TOL_SOLVER = 5e-3


def verdict(name: str, ok: bool, detail: str):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def glued(glued_surface):
    return glued_surface


@pytest.fixture(scope="module")
def tower(spectrum, profile):
    surf = seed_catenoid(profile, spectrum, scale=0.3)
    return stack_tower(4, surf, None)


class TestAcceptance:
    def test_A1_profile_fidelity(self):
        prof = solve_profile(N, 16.0, 8e-3)
        res = float(np.max(prof.first_integral_residual()))
        s = prof.s[prof.s >= 0]
        phi = prof.phi[prof.s >= 0]
        tail = s >= 0.9 * s[-1]
        flat = float(np.max(np.abs(np.exp(-s[tail]) * phi[tail] / prof.A_asym - 1.0)))
        tops = [solve_profile(N, smax, 8e-3).psi[-1] for smax in (12.0, 14.0, 16.0)]
        cauchy_gap = abs(tops[2] - tops[1])
        ok = res <= 1e-10 and flat <= 1e-4 and cauchy_gap < abs(tops[1] - tops[0]) and cauchy_gap < 2e-6
        verdict(
            "A1", ok,
            f"first-integral residual {res:.2e} <= 1e-10; tail flatness {flat:.2e} <= 1e-4; "
            f"height limit Cauchy gap {cauchy_gap:.2e}",
        )

    def test_A2_linear_solver_oracles(self, spectrum, profile):
        # cylinder: band-2 solve vs dense factorization of the same rows
        h = 5e-3
        s = -1.0 + h * np.arange(int(14.0 / h) + 1)
        data = grid_profile(N, s)
        c2 = ((N - 2) / 2.0) ** 2
        vpot = -(spectrum.lam[2] + c2) + data["pot"]
        f = np.exp(-2.0 * (s - s[0])) * np.exp(-0.5 * ((s + 0.2) / 0.3) ** 2)
        fast = solve_band_dirichlet_robin(vpot, h, f, spectrum.gamma[2])
        dense = dense_band_dirichlet_robin(vpot, h, f, 0.0, spectrum.gamma[2])
        gs_err = float(np.max(np.abs(fast - dense)) / np.max(np.abs(dense)))

        # annulus: radial solve vs the exact closed-form quadrature
        from scipy.integrate import quad

        sc = compute_scales(profile, 1e-6)
        r_in, r_out = sc.r_eps, 0.35
        patch = BandField.zeros(spectrum, RadialGrid(r_in, r_out, 160))
        f2 = BandField.zeros(spectrum, patch.grid)

        def source(r):
            return np.exp(-0.5 * ((np.log(r) - np.log(0.01)) / 0.8) ** 2)

        f2.values[0] = source(patch.grid.r)
        w = solve_mixed(graph_operator(patch), f2)

        def inner(sig):
            return quad(lambda t: t ** (N - 1) * source(t), r_in, sig,
                        epsabs=1e-14, epsrel=1e-12)[0]

        exact = np.array([
            -quad(lambda sg: sg ** (1 - N) * inner(sg), r, r_out,
                  epsabs=1e-14, epsrel=1e-12)[0]
            for r in patch.grid.r
        ])
        ann_err = float(np.max(np.abs(w.values[0] - exact)) / np.max(np.abs(exact)))

        # bound-constant stability in S and in r
        gs_ratios = []
        for S in (-1.0, -2.0, -3.0):
            sS = S + h * np.arange(int(14.0 / h) + 1)
            fS = BandField.zeros(spectrum, UniformGrid(sS))
            fS.values[2] = np.exp(-2.0 * (sS - S)) * np.exp(-0.5 * ((sS - S - 1.0) / 0.3) ** 2)
            wS = solve_GS(fS)
            gs_ratios.append(norm_exp(wS, 2, 0.5, -2.0) / norm_exp(fS, 0, 0.5, -2.0))
        gs_spread = max(gs_ratios) / min(gs_ratios)
        ann_ratios = []
        nu = -7.0 / 3.0
        for r in (sc.r_eps / 2, sc.r_eps, 2 * sc.r_eps):
            patch_r = BandField.zeros(spectrum, RadialGrid(r, r_out, 150))
            grid = patch_r.grid
            fr = BandField.zeros(spectrum, grid)
            fr.values[2] = (grid.r / r) ** (nu - 2) * np.exp(-0.5 * (np.log(grid.r / r)) ** 2)
            wr = solve_mixed(graph_operator(patch_r), fr)
            ann_ratios.append(weighted_norm(wr, 2, 0.5, nu) / weighted_norm(fr, 0, 0.5, nu - 2))
        ann_spread = max(ann_ratios) / min(ann_ratios)
        ok = gs_err <= 1e-8 and ann_err <= 1e-8 and gs_spread <= 2.0 and ann_spread <= 2.0
        verdict(
            "A2", ok,
            f"dense-oracle agreement {gs_err:.2e} / {ann_err:.2e} <= 1e-8; "
            f"bound spread S: {gs_spread:.2f}x, r: {ann_spread:.2f}x <= 2x",
        )

    def test_A3_catenoid_cauchy_gap(self, spectrum, profile):
        ratios = []
        for eps in (1e-4, 1e-5, 1e-6, 1e-7):
            sc = compute_scales(profile, eps)
            h = SphereField.zonal_band(spectrum, 2, 1.0)
            h = h * (0.5 * sc.r_eps**2 / h.holder_norm())
            piece = build_catenoid_piece(sc, h, 1.0, TOL_SOLVER)
            ratios.append(cauchy_gap(piece.cauchy, simple_cauchy_catenoid(sc, h)) / sc.r_eps**2)
        ok = max(ratios) <= 12.0 and max(ratios) / min(ratios) <= 2.0
        verdict(
            "A3", ok,
            f"|S_eps - S_0|/r_eps^2 in [{min(ratios):.2f}, {max(ratios):.2f}] over eps 1e-4..1e-7",
        )

    def test_A4_neck_cauchy_gap(self, spectrum, profile):
        ratios = []
        for eps in (1e-4, 1e-5, 1e-6, 1e-7):
            sc = compute_scales(profile, eps)
            patch = BandField.zeros(spectrum, RadialGrid(sc.r_eps / 4, 0.35, 150))
            b = sc.r_eps**2
            A = RigidParams(
                T=0.1 * b * sc.r_eps ** (N - 1) / sc.eps * 0.86,
                R=0.0,
                d=0.1 * b, e=0.1 * b * sc.r_eps ** (N - 2),
            )
            h2 = SphereField.zonal_band(spectrum, 2, 1.0) + SphereField.zonal_band(spectrum, 4, 0.5)
            h2 = h2 * (0.3 * b / h2.holder_norm())
            hI = SphereField.zonal_band(spectrum, 2, 1.0)
            hI = hI * (0.1 * b / hI.holder_norm())
            piece = build_neck_piece(patch, sc, A, hI, h2, tol=TOL_SOLVER, kappa=1.0,
                                     green=green_function(patch, sc.r_eps / 4))
            ratios.append(cauchy_gap(piece.cauchy_inner, simple_cauchy_neck(sc, A, h2)) / sc.r_eps**2)
        ok = max(ratios) <= 12.0 and max(ratios) / min(ratios) <= 2.0
        verdict(
            "A4", ok,
            f"|T_eps - T_0|/r_eps^2 in [{min(ratios):.2f}, {max(ratios):.2f}] with |A|,|h| <= kappa r_eps^2",
        )

    def test_A5_outer_cauchy_gap(self, spectrum, profile):
        def outer_gap(site, h, neck):
            """U_eps - U_0 at the site with the ring data h."""
            w = solve_outer_nonlinear(site, h, TOL_SOLVER, mean_curvature_graph(site.exterior))
            return cauchy_U_eps(w, neck) - simple_cauchy_outer(site, h)

        R0 = 0.45
        ratios = []
        for eps in (1e-5, 1e-6, 1e-7, 1e-8):
            sc = compute_scales(profile, eps)
            surf = seed_catenoid(profile, spectrum, scale=1.0)
            center_xy, _ = find_site(surf, sc)
            site = assemble_outer(surf, R0, center_xy, sc)
            h0 = SphereField.zeros(spectrum)
            piece = build_neck_piece(site.patch, sc, RigidParams.zeros(), h0, h0, tol=TOL_SOLVER,
                                     kappa=1.0, green=green_function(site.patch, sc.r_eps / 4))
            gap = outer_gap(site, h0, piece).holder_norm()
            ratios.append(gap / sc.r_eps ** (N - 2.0 / 3.0))
        sweep_ok = max(ratios) <= 8.0 and max(ratios) / min(ratios) <= 2.0

        # quadratic clause at a deliberately tilted (A.2)-admissible site
        eps = 1e-5
        sc = compute_scales(profile, eps)
        surf = seed_catenoid(profile, spectrum, scale=1.0)
        end = surf.top_end()
        Rs = np.geomspace(2, 1e4, 2000)
        _, g_ = end.height_profile(N, Rs)
        idx = int(np.argmin(np.abs(np.abs(g_) - 0.7 * sc.r_eps)))
        site = assemble_outer(surf, R0, end.axis_xy + Rs[idx] * np.eye(N)[0], sc)
        green = green_function(site.patch, sc.r_eps / 4)

        def gap_field(amp):
            h = SphereField.zonal_band(spectrum, 2, 1.0)
            h = h * (amp / h.holder_norm()) if amp else SphereField.zeros(spectrum)
            piece = build_neck_piece(
                site.patch, sc, RigidParams.zeros(), h, SphereField.zeros(spectrum),
                tol=TOL_SOLVER, kappa=1e9, green=green,
            )
            return outer_gap(site, h, piece)

        D0 = gap_field(0.0)
        amp = 1e-3
        inc1 = (gap_field(amp) - D0).holder_norm()
        inc2 = (gap_field(2 * amp) - D0).holder_norm()
        growth = inc2 / inc1
        quad_ok = growth <= 4.0 * 1.3
        ok = sweep_ok and quad_ok
        verdict(
            "A5", ok,
            f"|U_eps - U_0|/r_eps^(n-2/3) in [{min(ratios):.2f}, {max(ratios):.2f}]; "
            f"doubling |h_I| grows the gap {growth:.2f}x (at most ~4x within 30%)",
        )

    def test_A6_end_to_end_glue(self, glued):
        sc = glued.catenoid_piece.scales
        tol_match = 1e-8 * sc.r_eps ** (2 - N)
        res = mc_residual(glued)
        cert = glued.certificates["embeddedness"]
        tilt = glued.certificates["new_end_tilt"]
        ok = (
            glued.mismatch_norm <= tol_match
            and res["max_rel"] <= 2 * TOL_SOLVER
            and cert["embedded"]
            and tilt <= 1e-6
        )
        verdict(
            "A6", ok,
            f"mismatch {glued.mismatch_norm:.2e} <= {tol_match:.2e}; oracle sup|H| rel "
            f"{res['max_rel']:.2e} <= {2 * TOL_SOLVER:.0e}; embedded={cert['embedded']}; "
            f"plane tilt {tilt:.2e} rad <= 1e-6",
        )

    def test_A7_tower(self, tower):
        glued4, report = tower
        heights = report.plane_heights
        seps = report.separations
        eps_sum = sum(lv["eps"] for lv in report.levels)
        slab_height = report.slab[1] - report.slab[0]
        ratios = report.improperness_ratios
        ok = (
            len(heights) == 5
            and all(np.diff(heights) > 0)
            and slab_height <= 1.0 + eps_sum
            and all(r < 0.25 for r in ratios)
            and report.curvature_outside < 1.0
            and all(
                report.boxes[i]["c_j"] <= report.boxes[i + 1]["c_j"]
                for i in range(len(report.boxes) - 1)
            )
        )
        verdict(
            "A7", ok,
            f"5 planes strictly increasing; slab {slab_height:.3f} <= 1+sum(eps)={1 + eps_sum:.4f}; "
            f"separation ratios {['%.3f' % r for r in ratios]} (geometric decay); "
            f"sup|A| outside boxes {report.curvature_outside:.3f} < 1",
        )

    def test_A7_every_box_bounds_A_by_c_j(self, tower):
        # NeckBox's promise, |A| <= c_j inside the box, on the seed's box and
        # each glued level's
        _, report = tower
        assert len(report.boxes) == 4
        assert all(0 < b["sup_A"] <= b["c_j"] for b in report.boxes)

    def test_A7_every_level_glues_onto_the_upward_top_end(self, tower, profile):
        # each site is cut from the highest end of the surface it was glued
        # onto, and that end's plane lies above the seed's lower plane, the
        # one end that opens downward: no glue reads a downward end
        glued4, _ = tower
        outer = glued4.outer
        lower_plane = -outer.core_scale * psi_infinity(profile)
        assert min(e.plane_height for e in outer.ends) == lower_plane
        for k, level in enumerate(outer.glue_levels):
            ends = outer.seed_ends + [lv.new_end for lv in outer.glue_levels[:k]]
            assert level.site.end is max(ends, key=lambda e: e.plane_height)
            assert level.site.end.plane_height > lower_plane

    def test_A7_intrinsic_to_extrinsic_ratio_diverges_up_the_tower(self, tower):
        # a witness of improperness: a path from a glued level's new end
        # to the end below it runs through the level's neck box, so it is
        # at least 2 (|site - x0|_inf - halfwidth) long, x0 on the seed's
        # axis, while the two planes lie ever closer
        glued4, _ = tower
        outer = glued4.outer
        x0 = outer.seed_ends[0].axis_xy
        ratios = []
        for level in outer.glue_levels:
            intrinsic = 2.0 * (np.max(np.abs(level.site.center_xy - x0)) - level.box.halfwidth)
            extrinsic = level.new_end.plane_height - level.site.end.plane_height
            assert intrinsic > 0.0 and extrinsic > 0.0
            ratios.append(intrinsic / extrinsic)
        assert len(ratios) == 3
        assert all(later >= 10.0 * earlier for earlier, later in zip(ratios, ratios[1:]))

    def test_A7_every_level_box_takes_the_exact_waist(self, tower, glued):
        # each box holds its neck's waist: a level's spans a psi(s*) above and
        # below the catenoid's centre ring_height - a psi_cut, then its 0.2 a
        # phi* margin; the seed's spans 1.2 a psi(s*) about the origin.  The
        # waist is the seed's rule, written out: phi(s*) = phi* through the
        # closed form of phi
        def waist(a):
            phi_star = max((np.sqrt(N * (N - 1.0)) / a) ** (1.0 / N), 1.05)
            s_star = float(np.arccosh(phi_star ** (N - 1)) / (N - 1))
            phi, _, psi, _ = profile_values(N, np.array([s_star]))
            assert abs(phi[0] / phi_star - 1.0) <= 1e-11
            return phi_star, float(psi[0])

        for outer in (tower[0].outer, glued.outer):
            a = outer.core_scale
            _, psi_star = waist(a)
            assert outer.seed_box.z_range == (float(-1.2 * a * psi_star), float(1.2 * a * psi_star))
            for level in outer.glue_levels:
                sc, ring = level.catenoid_piece.scales, level.ring_height
                a = sc.eps_len
                phi_star, psi_star = waist(a)
                z_lo = ring - a * (sc.psi_cut + psi_star)
                z_hi = ring + a * (psi_star - sc.psi_cut)
                assert level.box.z_range == (float(min(z_lo, ring) - 0.2 * a * phi_star),
                                             float(max(z_hi, ring) + 0.2 * a * phi_star))

    def test_A7_tower_report_json(self, tower, tmp_path):
        from minsurflab.cli import dump_json

        _, report = tower
        path = tmp_path / "tower_report.json"
        dump_json(report.to_dict(), path)
        boxes = json.loads(path.read_text())["boxes"]
        # the seed's box and one per glued level
        assert len(boxes) == len(report.levels) + 1
        for box in boxes:
            assert set(box) == {"c_j", "center_xy", "halfwidth", "sup_A", "z_range"}
            assert len(box["center_xy"]) == N and len(box["z_range"]) == 2

    def test_A8_section_two_checks(self, spectrum, profile, glued):
        from minsurflab.geometry import graph_orbit_points
        from minsurflab.neck import angular_grid
        from minsurflab.profile import profile_values
        from minsurflab.verify import _upper_branch_height

        g = angular_grid(spectrum)
        # (i) parallel planes: zero PDE defect exactly
        m = 60
        r = np.linspace(0.5, 2.0, m)
        P = graph_orbit_points(r, g, np.zeros((m, g.t.size)))
        rep_planes = separation_check(P, np.full((m, g.t.size), 0.2), np.zeros((m, g.t.size)), N)
        planes_ok = rep_planes["defect_sup"] == 0.0

        # (ii) converged glue sheets: defect consistent with the quadratic
        # coefficient bounds over a 2x closeness sweep
        cat = glued.catenoid_piece
        sc = cat.scales
        site = glued.info["site"]
        ring_h = glued.info["ring_height"]
        neck = glued.neck_piece
        defects, qs = [], []
        for lo in (6.0, 12.0):
            radii = np.linspace(lo * sc.r_eps, 2 * lo * sc.r_eps, 60)
            upper = ring_h + _upper_branch_height(N, sc, radii)
            interp = neck.V.grid.interp_matrix(radii)
            lower = site["height"] + interp @ neck.V.values[0]
            u = (upper - lower)[:, None] * np.ones((1, g.t.size))
            heights = (lower - site["height"])[:, None] * np.ones((1, g.t.size))
            P1 = graph_orbit_points(radii, g, heights)
            from minsurflab.geometry import uniform_surface

            A2 = uniform_surface(P1, g, radii[1] - radii[0], order=2).second_fundamental_sq(N)
            rep = separation_check(P1, u, A2, N)
            defects.append(rep["defect_sup"])
            qs.append(rep["max_q"])
            assert rep["precondition_ok"]
        sheets_ok = defects[1] < defects[0] and qs[1] < qs[0]

        # (iii) thin inter-sheet domain is delta-stable at 0.4
        radii = np.linspace(6 * sc.r_eps, 24 * sc.r_eps, 70)
        interp = neck.V.grid.interp_matrix(radii)
        lower = interp @ neck.V.values[0]
        P_thin = graph_orbit_points(radii, g, lower[:, None] * np.ones((1, g.t.size)))
        from minsurflab.geometry import uniform_surface

        A2_thin = uniform_surface(P_thin, g, radii[1] - radii[0], order=2).second_fundamental_sq(N)
        rep_thin = delta_stability(P_thin, A2_thin, N, 0.4, domain_id="inter-sheet")
        thin_ok = rep_thin.stable

        # (iv) the full truncated catenoid at delta = 0 has a negative direction
        s = np.linspace(-4.0, 4.0, 120)
        phi, dphi, psi, dpsi = profile_values(N, s)
        F = phi[:, None] * np.ones((1, g.t.size))
        P_cat = np.stack([F * g.t[None, :], F * g.sinb[None, :],
                          psi[:, None] * np.ones((1, g.t.size))])
        A2_cat = (N * (N - 1.0) * phi ** (-2 * N))[:, None] * np.ones((1, g.t.size))
        rep_cat = delta_stability(P_cat, A2_cat, N, 0.0, domain_id="catenoid")
        cat_ok = not rep_cat.stable

        # (v) chord-arc calibration on the plane within 5 percent
        graph = plane_sample_graph(N, extent=10.0)
        center = int(np.argmin(np.linalg.norm(graph.points, axis=1)))
        cal = chord_arc(graph, center, 5.0)
        cal_ok = abs(cal["c_fit"] * 5.0 ** (N - 1) - 1.0) <= 0.05

        ok = planes_ok and sheets_ok and thin_ok and cat_ok and cal_ok
        verdict(
            "A8", ok,
            f"parallel-plane defect {rep_planes['defect_sup']:.1e} (exact 0); glue-sheet defect "
            f"{defects[0]:.2e}->{defects[1]:.2e} under 2x separation sweep; inter-sheet domain "
            f"delta-stable at 0.4 (min quotient {rep_thin.min_quotient:.2e}); catenoid delta=0 "
            f"has negative direction ({rep_cat.min_quotient:.2e}); plane chord-arc calib "
            f"{cal['c_fit'] * 25:.3f} within 5% of 1",
        )

    def test_A9_determinism(self, tmp_path):
        from minsurflab.cli import RunConfig, run

        payloads = []
        for name in ("run1", "run2"):
            cfg = RunConfig(out_dir=str(tmp_path / name))
            assert run("profile", cfg) == 0
            assert run("chordarc", cfg) == 0
            blob = b""
            for fn in ("profile.csv", "profile_summary.json", "chordarc_report.json"):
                blob += (tmp_path / name / fn).read_bytes()
            payloads.append(blob)
        ok = payloads[0] == payloads[1]
        verdict("A9", ok, f"byte-identical reports over repeated runs ({len(payloads[0])} bytes)")
