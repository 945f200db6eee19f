import numpy as np
import pytest

from minsurflab import outer
from minsurflab.catenoid import ContractionError, PreconditionError, default_delta, grid_profile
from minsurflab.diffops import fd_derivative
from minsurflab.neck import graph_residual
from minsurflab.outer import (
    CORE_SPAN,
    NeckBox,
    cauchy_U_eps,
    find_site,
    nondegeneracy_check,
    seed_catenoid,
    simple_cauchy_outer,
    assemble_outer,
    solve_outer_nonlinear,
)
from minsurflab.profile import compute_scales
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


class TestNondegeneracy:
    def test_seed_above_threshold(self, surface):
        val = nondegeneracy_check(surface, -2.0, m=400)
        assert val > 1e-6

    def test_kernel_injection_drives_to_zero(self, surface):
        base = nondegeneracy_check(surface, -2.0, m=400)

        def transl(s):
            return grid_profile(N, s)["phi"] ** (-N / 2.0)

        # the translation Jacobi field would drive the check's minimum to zero
        inj = min(base, jacobi_quotient(N, 1, transl, 400))
        assert inj < base / 30.0

    def test_stable_under_refinement(self, surface):
        v1 = nondegeneracy_check(surface, -2.0, m=400)
        v2 = nondegeneracy_check(surface, -2.0, m=800)
        assert 0.5 <= v1 / v2 <= 2.0

    def test_rejects_bad_delta(self, surface):
        with pytest.raises(PreconditionError):
            nondegeneracy_check(surface, -1.0, m=400)

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
            nondegeneracy_check(surface, -2.0, m=400)
        assert len(builds) == surface.spectrum.L + 1
        with pytest.raises(ContractionError):
            nondegeneracy_check(surface, -2.0, m=400)
        assert len(builds) == surface.spectrum.L + 1

    def test_computed_once_per_n_L_delta_m(self, spectrum, profile, builds):
        bands = list(range(spectrum.L + 1))
        first = nondegeneracy_check(seed_catenoid(profile, spectrum, scale=1.0), -2.0, m=400)
        assert builds == bands
        # another seed with the same (n, L, delta, m) builds no band matrix
        other = seed_catenoid(profile, spectrum, scale=0.3)
        assert nondegeneracy_check(other, -2.0, m=400) == first
        assert builds == bands
        nondegeneracy_check(other, -2.0, m=300)
        assert builds == bands + bands

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_banded_sigma_min_matches_dense_svd(self, n):
        delta = default_delta(n)
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
        delta = default_delta(n)
        banded = outer._smallest_singular_value(n, 8, delta, 400)
        monkeypatch.setattr(outer, "_sigma_min_tridiagonal",
                            lambda A: np.linalg.svd(A, compute_uv=False)[-1])
        dense = outer._smallest_singular_value(n, 8, delta, 400)
        assert banded == pytest.approx(dense, rel=1e-12, abs=0.0)


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
        h2.c[0] = 0.2 * sc.r_eps**2
        lhs = simple_cauchy_outer(site, h1 + h2)
        rhs = simple_cauchy_outer(site, h1) + simple_cauchy_outer(site, h2)
        scale = max(lhs.holder_norm(), 1e-300)
        assert (lhs - rhs).holder_norm() < 1e-8 * scale

    def test_gap_scaled_by_paper_rate(self, sited, spectrum, profile):
        from minsurflab.neck import RigidParams, build_neck_piece

        surf, site, sc = sited
        h0 = SphereField.zeros(spectrum)
        piece = build_neck_piece(site.patch, sc, RigidParams.zeros(), h0, h0, tol=5e-3, kappa=1.0)
        w = solve_outer_nonlinear(site, h0, tol=5e-3)
        gap = (cauchy_U_eps(w, piece) - simple_cauchy_outer(site, h0)).holder_norm()
        assert gap / sc.r_eps ** (N - 2.0 / 3.0) < 50.0
