import numpy as np
import pytest

from table_reference import end_height_profile, five_spline_table, upper_branch_height
from minsurflab import outer, verify
from minsurflab.catenoid import (
    ContractionError,
    PreconditionError,
    ResidualError,
    grid_profile,
)
from minsurflab.cylinder import BandField, UniformGrid
from minsurflab.diffops import fd_derivative
from minsurflab.neck import graph_residual, mean_curvature_graph
from minsurflab.outer import (
    CORE_SPAN,
    EndModel,
    NeckBox,
    cauchy_U_eps,
    find_site,
    nondegeneracy_check,
    nondegeneracy_delta,
    seed_catenoid,
    simple_cauchy_outer,
    assemble_outer,
    solve_outer_nonlinear,
)
from minsurflab.profile import Scales, compute_scales, solve_profile
from minsurflab.spectral import SphereField, band_spectrum

N = 3
EPS = 1e-6


@pytest.fixture(scope="module")
def surface(spectrum, profile):
    return seed_catenoid(profile, spectrum, scale=1.0)


@pytest.fixture(scope="module")
def sited(spectrum, profile):
    surf = seed_catenoid(profile, spectrum, scale=1.0)
    sc = compute_scales(profile, EPS)
    center_xy, _ = find_site(surf, sc)
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
        assert site.patch.values[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_leaves_the_surface_unchanged(self, spectrum, profile):
        surf = seed_catenoid(profile, spectrum, scale=1.0)
        before = dict(vars(surf))
        ends = list(surf.ends)
        sc = compute_scales(profile, EPS)
        center_xy, _ = find_site(surf, sc)
        assemble_outer(surf, 180.0 * sc.r_eps, center_xy, sc)
        assert vars(surf) == before
        assert surf.ends == ends and surf.glue_levels == () and surf.neck_boxes == []

    def test_site_height_reads_the_top_end_upward(self, sited):
        # the top end opens upward: the site sits its end's height above the plane
        surf, site, _ = sited
        end = site.end
        assert end is surf.top_end()
        assert site.height == end.plane_height + end.height_profile(N, [site.r_site])[0][0]

    def test_neck_site_rejected(self, surface, profile):
        sc = compute_scales(profile, EPS)
        center_xy = np.array([1.2, 0.0, 0.0])  # essentially at the seed waist
        with pytest.raises(PreconditionError, match="site rejected|range"):
            assemble_outer(surface, 0.35, center_xy, sc)

    def test_assumption_records(self, sited):
        surf, site, sc = sited
        patch = site.patch
        # (A.3): the C^2 size of the site graph stays below 1
        grid, u = patch.grid, patch.values
        c2 = (np.max(np.abs(u)) + np.max(np.abs(u @ grid.D.T / grid.r))
              + np.max(np.abs(u @ (grid.D @ grid.D).T / grid.r**2)))
        assert c2 <= 1.0
        # the patch ends where the exterior begins, at the ring radius r0
        assert patch.grid.r_out == site.exterior.grid.r_in


class TestFindSite:
    """find_site picks the ring radius r0 as well as the site."""

    @pytest.mark.parametrize("eps, branch", [(1e-6, "floor"), (1e-9, "site")])
    def test_r0_follows_the_rule(self, spectrum, profile, eps, branch):
        # on the scale-0.3 seed, eps=1e-6 takes the floor R0_OVER_R_EPS r_eps
        # and eps=1e-9 the fraction 1e-3 r_site of the site radius
        surf = seed_catenoid(profile, spectrum, scale=0.3)
        sc = compute_scales(profile, eps)
        center_xy, r0 = find_site(surf, sc)
        r_site = float(np.linalg.norm(center_xy - surf.top_end().axis_xy))
        expected = {"floor": outer.R0_OVER_R_EPS * sc.r_eps, "site": 1e-3 * r_site}[branch]
        assert r0 == pytest.approx(expected, rel=1e-12)
        assert 60.0 * sc.r_eps <= r0 <= r_site / 10.0

    def test_refuses_a_site_without_room_as_the_glue_does(self):
        from minsurflab.gluing import glue_end

        n = 5
        spec, prof = band_spectrum(n, 8), solve_profile(n, 16.0, 8e-3)
        surf = seed_catenoid(prof, spec, scale=0.3)
        with pytest.raises(PreconditionError, match="leaves no room above r_eps") as site_exc:
            find_site(surf, compute_scales(prof, 1e-6))
        with pytest.raises(PreconditionError) as glue_exc:
            glue_end(surf, 1e-6)
        assert str(glue_exc.value) == str(site_exc.value)


def unit_box(x: float, z: float) -> NeckBox:
    """Half-width 1 about (x, 0, 0) and heights z +- 0.5."""
    return NeckBox(center_xy=np.array([x, 0.0, 0.0]), halfwidth=1.0,
                   z_range=(z - 0.5, z + 0.5), c_j=2.0)


class TestNeckBox:
    def test_meets_overlapping_boxes_only(self):
        box = unit_box(0.0, 0.0)
        # unit_box(2.0, 1.0) touches it at a corner
        for other in (unit_box(1.5, 0.25), unit_box(2.0, 1.0), box):
            assert box.meets(other) and other.meets(box)
        # apart horizontally, then in height
        for other in (unit_box(2.5, 0.0), unit_box(0.0, 1.5)):
            assert not box.meets(other) and not other.meets(box)

    def test_contains(self):
        box = unit_box(0.0, 0.0)
        xy = np.array([[0.5, -1.0, 0.2], [1.5, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, -1.0]])
        z = np.array([0.0, 0.0, 0.75, -0.5])
        assert box.contains(xy, z).tolist() == [True, False, False, True]
        assert not unit_box(3.0, 0.0).contains(xy, z).any()


def jacobi_quotient(n: int, ell: int, field, m: int) -> float:
    """Normalized residual |L_l f| / (|f| max|V_l|) of a band-ell field
    f(s) under the core's band operator on 4 m nodes of |s| <= CORE_SPAN:
    near zero for a genuine Jacobi field, on the scale the check's
    singular values are normalized to."""
    s = np.linspace(-CORE_SPAN, CORE_SPAN, 4 * m)
    vals = field(s)
    vpot = -(ell * (ell + n - 2.0) + ((n - 2) / 2.0) ** 2) + grid_profile(n, s)["pot"]
    res = fd_derivative(vals, s[1] - s[0], 0, 2, 2) + vpot * vals
    num = np.linalg.norm(res[1:-1]) / max(np.linalg.norm(vals[1:-1]), 1e-300)
    return num / np.abs(vpot).max()


class TestEndTable:
    """The end table's one four-row spline against one spline per row."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_height_profile_has_the_bits_of_five_splines(self, n):
        rng = np.random.default_rng(n)
        five = five_spline_table(n)
        # radii from just off the waist to the table's end, in units of a
        a = 0.3
        R = a * np.exp(rng.uniform(1e-6, 0.999 * five["logphi_max"], 20000))
        s = np.linspace(-0.7, 14.3, 3001)
        spec = band_spectrum(n, 8)
        w = BandField(spec, UniformGrid(s), rng.standard_normal((9, s.size)) * 1e-6)
        for field in (None, w):
            end = EndModel(a=a, w=field, axis_xy=np.zeros(n), plane_height=0.0)
            for one, ref in zip(end.height_profile(n, R), end_height_profile(five, end, n, R)):
                assert np.array_equal(one, ref)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_upper_branch_height_has_the_bits_of_five_splines(self, n):
        rng = np.random.default_rng(10 + n)
        eps = 1e-6
        s_eps = np.log(eps) / ((n - 1) * (3 * n - 2))
        # the height reads eps_len and s_eps only
        sc = Scales(n=n, eps=eps, s_eps=s_eps, r_eps=0.0, psi_cut=0.0)
        radii = sc.eps_len * np.exp(rng.uniform(-1.0, 30.0, 20000))
        assert np.array_equal(verify._upper_branch_height(n, sc, radii),
                              upper_branch_height(five_spline_table(n), sc, radii))


class TestNondegeneracy:
    def test_seed_above_threshold(self, surface):
        val = nondegeneracy_check(surface)
        assert val > 1e-6

    def test_kernel_injection_drives_to_zero(self, surface):
        base = nondegeneracy_check(surface)

        def transl(s):
            return grid_profile(N, s)["phi"] ** (-N / 2.0)

        # the translation Jacobi field would drive the check's minimum to zero
        inj = min(base, jacobi_quotient(N, 1, transl, outer.NONDEGENERACY_NODES))
        assert inj < base / 30.0

    def test_stable_under_refinement(self, surface, monkeypatch):
        v1 = nondegeneracy_check(surface)
        monkeypatch.setattr(outer, "_NONDEGENERACY", {})
        monkeypatch.setattr(outer, "NONDEGENERACY_NODES", 2 * outer.NONDEGENERACY_NODES)
        v2 = nondegeneracy_check(surface)
        assert 0.5 <= v1 / v2 <= 2.0

    @pytest.fixture()
    def builds(self, monkeypatch):
        """A cold check cache, and the bands each build of a band matrix is
        for."""
        monkeypatch.setattr(outer, "_NONDEGENERACY", {})
        calls = []
        build = outer._band_matrix_conjugated

        def spy(n, ell, s, delta):
            calls.append(ell)
            return build(n, ell, s, delta)

        monkeypatch.setattr(outer, "_band_matrix_conjugated", spy)
        return calls

    def test_degenerate_band_refused_on_every_call(self, surface, builds, monkeypatch):
        spy = outer._band_matrix_conjugated

        def zero_column(n, ell, s, delta):
            A = spy(n, ell, s, delta)
            if ell == 3:
                A[:, s.size // 2] = 0.0  # sigma_min = 0
            return A

        monkeypatch.setattr(outer, "_band_matrix_conjugated", zero_column)
        with pytest.raises(ContractionError):
            nondegeneracy_check(surface)
        assert len(builds) == surface.spectrum.L + 1
        with pytest.raises(ContractionError):
            nondegeneracy_check(surface)
        assert len(builds) == surface.spectrum.L + 1

    def test_computed_once_per_n_L(self, spectrum, profile, builds):
        bands = list(range(spectrum.L + 1))
        first = nondegeneracy_check(seed_catenoid(profile, spectrum, scale=1.0))
        assert builds == bands
        # another seed with the same (n, L) builds no band matrix
        other = seed_catenoid(profile, spectrum, scale=0.3)
        assert nondegeneracy_check(other) == first
        assert builds == bands

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_admissible_weight_passes(self, n):
        # why the weight can be fixed: sigma_min stays far above the 1e-6
        # refusal across the window (-(n+2)/2, -n/2), at both ends and at the
        # midpoint the check uses
        mid = nondegeneracy_delta(n)
        assert mid == -(n + 1) / 2
        for delta in (-(n + 2) / 2 + 1e-9, mid, -n / 2 - 1e-9):
            assert outer._smallest_singular_value(n, 8, delta, outer.NONDEGENERACY_NODES) > 1e-6

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_banded_sigma_min_matches_dense_svd(self, n):
        delta = nondegeneracy_delta(n)
        spec = band_spectrum(n, 8)
        tridiagonal = spec.gamma >= abs(delta)
        assert tridiagonal.sum() == 7
        for m in (400, 800):
            s = np.linspace(-CORE_SPAN, CORE_SPAN, m)
            for ell in np.flatnonzero(tridiagonal):
                A = outer._band_matrix_conjugated(n, int(ell), s, delta)
                dense = np.linalg.svd(A, compute_uv=False)[-1]
                gap = abs(outer._sigma_min_tridiagonal(A) - dense)
                assert gap <= 1e-12 * np.linalg.norm(A, 2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_value_matches_dense_check(self, n, monkeypatch):
        delta = nondegeneracy_delta(n)
        banded = outer._smallest_singular_value(n, 8, delta, 400)
        monkeypatch.setattr(outer, "_sigma_min_tridiagonal",
                            lambda A: np.linalg.svd(A, compute_uv=False)[-1])
        dense = outer._smallest_singular_value(n, 8, delta, 400)
        assert banded == pytest.approx(dense, rel=1e-12, abs=0.0)


class TestOuterNonlinear:
    def test_zero_data_identity(self, sited, spectrum):
        surf, site, sc = sited
        w = solve_outer_nonlinear(site, SphereField.zeros(spectrum), 5e-3,
                                  mean_curvature_graph(site.exterior))
        assert np.max(np.abs(w.values)) == 0.0
        _, res_rel = graph_residual(site.exterior + w)
        assert res_rel < 5e-3

    def test_linear_response_scaling(self, sited, spectrum):
        surf, site, sc = sited
        norms = []
        sizes = (0.5 * sc.r_eps**2, 2.0 * sc.r_eps**2)
        for amp in sizes:
            h = SphereField.zonal_band(spectrum, 2, 1.0)
            h = h * (amp / h.holder_norm())
            w = solve_outer_nonlinear(site, h, 5e-3, mean_curvature_graph(site.exterior))
            norms.append(np.max(np.abs(w.values)) / amp)
        # response constant stable over a 4x data range
        assert max(norms) / min(norms) < 1.3

    def test_plane_heights_untouched(self, sited, spectrum):
        surf, site, sc = sited
        before = sorted(e.plane_height for e in surf.ends)
        h = SphereField.zonal_band(spectrum, 2, 1.0)
        h = h * (sc.r_eps**2 / h.holder_norm())
        w = solve_outer_nonlinear(site, h, 5e-3, mean_curvature_graph(site.exterior))
        after = sorted(e.plane_height for e in surf.ends)
        assert np.max(np.abs(np.array(before) - np.array(after))) < 1e-8
        # the perturbation decays by construction: its far tail is small
        assert np.max(np.abs(w.values[:, -1])) < 1e-8

    def test_solves_on_one_site_are_independent(self, sited, spectrum):
        surf, site, sc = sited
        h = SphereField.zonal_band(spectrum, 2, 1.0)
        h = h * (sc.r_eps**2 / h.holder_norm())
        w1 = solve_outer_nonlinear(site, h, 5e-3, mean_curvature_graph(site.exterior))
        kept = w1.values.copy()
        w2 = solve_outer_nonlinear(site, 2.0 * h, 5e-3, mean_curvature_graph(site.exterior))
        assert w2 is not w1 and not np.shares_memory(w1.values, w2.values)
        assert np.array_equal(w1.values, kept)
        assert not np.array_equal(w2.values, kept)

    def test_nan_residual_is_refused(self, sited, spectrum, monkeypatch):
        # a NaN compares False with the tolerance either way round
        surf, site, sc = sited
        monkeypatch.setattr(outer, "graph_residual", lambda u: (float("nan"), float("nan")))
        with pytest.raises(ResidualError, match="nan"):
            solve_outer_nonlinear(site, SphereField.zeros(spectrum), 5e-3,
                                  mean_curvature_graph(site.exterior))


class TestCauchyU:
    def test_simple_map_superposition(self, sited, spectrum):
        surf, site, sc = sited
        h1 = SphereField.zonal_band(spectrum, 2, 1.0) * (0.3 * sc.r_eps**2)
        h2 = SphereField.zeros(spectrum)
        h2.c[0] = 0.2 * sc.r_eps**2
        lhs = simple_cauchy_outer(site, h1 + h2)
        rhs = simple_cauchy_outer(site, h1) + simple_cauchy_outer(site, h2)
        scale = max(lhs.holder_norm(), 1e-300)
        assert (lhs - rhs).holder_norm() < 1e-8 * scale

    def test_gap_scaled_by_paper_rate(self, sited, spectrum, profile):
        from minsurflab.neck import RigidParams, build_neck_piece, green_function

        surf, site, sc = sited
        h0 = SphereField.zeros(spectrum)
        piece = build_neck_piece(site.patch, sc, RigidParams.zeros(), h0, h0, tol=5e-3, kappa=1.0,
                                 green=green_function(site.patch, sc.r_eps / 4))
        w = solve_outer_nonlinear(site, h0, 5e-3, mean_curvature_graph(site.exterior))
        gap = (cauchy_U_eps(w, piece) - simple_cauchy_outer(site, h0)).holder_norm()
        assert gap / sc.r_eps ** (N - 2.0 / 3.0) < 50.0
