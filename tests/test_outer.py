import numpy as np
import pytest

from minsurflab.catenoid import ContractionError, PreconditionError, grid_profile
from minsurflab.neck import graph_residual
from minsurflab.outer import (
    cauchy_U_eps,
    find_site,
    nondegeneracy_check,
    seed_catenoid,
    simple_cauchy_outer,
    assemble_outer,
    solve_outer_nonlinear,
)
from minsurflab.profile import compute_scales
from minsurflab.spectral import SphereField

N = 3
EPS = 1e-6


@pytest.fixture(scope="module")
def surface(spectrum, profile):
    return seed_catenoid(profile, spectrum, scale=1.0)


@pytest.fixture(scope="module")
def sited(spectrum, profile):
    surf = seed_catenoid(profile, spectrum, scale=1.0)
    sc = compute_scales(profile, EPS)
    _, center_xy = find_site(surf, sc)
    site = assemble_outer(surf, 180.0 * sc.r_eps, center_xy, sc)
    return surf, site, sc


class TestAssemble:
    def test_seed_has_two_parallel_ends(self, surface):
        assert len(surface.ends) == 2
        hts = sorted(e.plane_height for e in surface.ends)
        assert hts[0] == pytest.approx(-hts[1])

    def test_far_site_gradient_below_r_eps(self, sited):
        surf, site, sc = sited
        _, grad = surf.top_end().height_profile(N, np.array([site.r_site]))
        assert abs(grad[0]) <= sc.r_eps
        assert site.patch.u.values[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_leaves_the_surface_unchanged(self, spectrum, profile):
        surf = seed_catenoid(profile, spectrum, scale=1.0)
        before = dict(vars(surf))
        ends = list(surf.ends)
        sc = compute_scales(profile, EPS)
        _, center_xy = find_site(surf, sc)
        assemble_outer(surf, 180.0 * sc.r_eps, center_xy, sc)
        assert vars(surf) == before
        assert surf.ends == ends and surf.glue_levels == [] and surf.neck_boxes == []

    def test_neck_site_rejected(self, surface, profile):
        sc = compute_scales(profile, EPS)
        center_xy = np.array([1.2, 0.0, 0.0])  # essentially at the seed waist
        with pytest.raises(PreconditionError, match="site rejected|range"):
            assemble_outer(surface, 0.35, center_xy, sc)

    def test_assumption_records(self, sited):
        surf, site, sc = sited
        patch = site.patch
        # (A.3): the C^2 size of the site graph stays below 1
        grid, u = patch.grid, patch.u.values
        c2 = (np.max(np.abs(u)) + np.max(np.abs(u @ grid.D.T / grid.r))
              + np.max(np.abs(u @ (grid.D @ grid.D).T / grid.r**2)))
        assert c2 <= 1.0
        # (A.1): grid covers [r_eps/8, r0] inside [r0/2, 2 r0]
        assert patch.grid.r_out == pytest.approx(patch.r0)


class TestNondegeneracy:
    def test_seed_above_threshold(self, surface):
        val = nondegeneracy_check(surface, -2.0, m=400)
        assert val > 1e-6

    def test_kernel_injection_drives_to_zero(self, surface):
        base = nondegeneracy_check(surface, -2.0, m=400)

        def transl(s):
            return grid_profile(N, s)["phi"] ** (-N / 2.0)

        inj = nondegeneracy_check(
            surface, -2.0, m=400, extra_fields=[(1, transl)], threshold=0.0
        )
        assert inj < base / 30.0

    def test_stable_under_refinement(self, surface):
        v1 = nondegeneracy_check(surface, -2.0, m=400)
        v2 = nondegeneracy_check(surface, -2.0, m=800)
        assert 0.5 <= v1 / v2 <= 2.0

    def test_rejects_bad_delta(self, surface):
        with pytest.raises(PreconditionError):
            nondegeneracy_check(surface, -1.0, m=400)


class TestOuterNonlinear:
    def test_zero_data_identity(self, sited, spectrum):
        surf, site, sc = sited
        w = solve_outer_nonlinear(site, SphereField.zeros(spectrum), tol=5e-3)
        assert np.max(np.abs(w.values)) == 0.0
        exterior = site.exterior
        _, res_rel = graph_residual(exterior.with_height(exterior.grid, exterior.u + w))
        assert res_rel < 5e-3

    def test_linear_response_scaling(self, sited, spectrum):
        surf, site, sc = sited
        norms = []
        sizes = (0.5 * sc.r_eps**2, 2.0 * sc.r_eps**2)
        for amp in sizes:
            h = SphereField.zonal_band(spectrum, 2, 1.0)
            h = h * (amp / h.holder_norm())
            w = solve_outer_nonlinear(site, h, tol=5e-3)
            norms.append(np.max(np.abs(w.values)) / amp)
        # response constant stable over a 4x data range
        assert max(norms) / min(norms) < 1.3

    def test_plane_heights_untouched(self, sited, spectrum):
        surf, site, sc = sited
        before = sorted(e.plane_height for e in surf.ends)
        h = SphereField.zonal_band(spectrum, 2, 1.0)
        h = h * (sc.r_eps**2 / h.holder_norm())
        w = solve_outer_nonlinear(site, h, tol=5e-3)
        after = sorted(e.plane_height for e in surf.ends)
        assert np.max(np.abs(np.array(before) - np.array(after))) < 1e-8
        # the perturbation decays by construction: its far tail is small
        assert np.max(np.abs(w.values[:, -1])) < 1e-8

    def test_solves_on_one_site_are_independent(self, sited, spectrum):
        surf, site, sc = sited
        h = SphereField.zonal_band(spectrum, 2, 1.0)
        h = h * (sc.r_eps**2 / h.holder_norm())
        w1 = solve_outer_nonlinear(site, h, tol=5e-3)
        kept = w1.values.copy()
        w2 = solve_outer_nonlinear(site, 2.0 * h, tol=5e-3)
        assert w2 is not w1 and not np.shares_memory(w1.values, w2.values)
        assert np.array_equal(w1.values, kept)
        assert not np.array_equal(w2.values, kept)


class TestCauchyU:
    def test_simple_map_superposition(self, sited, spectrum):
        surf, site, sc = sited
        h1 = SphereField.zonal_band(spectrum, 2, 1.0) * (0.3 * sc.r_eps**2)
        h2 = SphereField.zeros(spectrum)
        h2.low[0] = 0.2 * sc.r_eps**2
        lhs = simple_cauchy_outer(site, h1 + h2)
        rhs = simple_cauchy_outer(site, h1) + simple_cauchy_outer(site, h2)
        scale = max(lhs.holder_norm(), 1e-300)
        assert (lhs - rhs).holder_norm() < 1e-8 * scale

    def test_gap_scaled_by_paper_rate(self, sited, spectrum, profile):
        from minsurflab.neck import RigidParams, build_neck_piece

        surf, site, sc = sited
        h0 = SphereField.zeros(spectrum)
        piece = build_neck_piece(site.patch, sc, RigidParams.zeros(N), h0, h0, tol=5e-3, kappa=1.0)
        w = solve_outer_nonlinear(site, h0, tol=5e-3)
        gap = (cauchy_U_eps(w, piece) - simple_cauchy_outer(site, h0)).holder_norm()
        assert gap / sc.r_eps ** (N - 2.0 / 3.0) < 50.0
