import numpy as np
import pytest
from scipy.integrate import quad

from minsurflab import neck
from minsurflab.catenoid import PreconditionError, ResidualError, cauchy_gap, picard
from minsurflab.neck import (
    RigidParams,
    angular_grid,
    build_neck_piece,
    graph_operator,
    green_function,
    mean_curvature_graph,
    poisson_neck,
    rigid_deviation_rows,
    simple_cauchy_neck,
)
from minsurflab.profile import compute_scales, profile_values
from minsurflab.cylinder import BandField
from minsurflab.radial import RadialGrid, solve_mixed
from radial_reference import default_nu, weighted_norm
from table_reference import green_two_reads
from minsurflab.spectral import SphereField, apply_Dtheta, project_high, sphere_area

N = 3
EPS = 1e-6
R0 = 0.35


def clencurt_weights(x: np.ndarray) -> np.ndarray:
    """Clenshaw-Curtis quadrature weights for Chebyshev points on [a, b]."""
    m = x.size
    N = m - 1
    theta = np.pi * np.arange(m) / N
    w = np.zeros(m)
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[-1] = 1.0 / (N**2 - 1)
        for k in range(1, N // 2):
            v -= 2.0 * np.cos(2 * k * theta[1:-1]) / (4 * k**2 - 1)
        v -= np.cos(N * theta[1:-1]) / (N**2 - 1)
    else:
        w[0] = w[-1] = 1.0 / N**2
        for k in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * k * theta[1:-1]) / (4 * k**2 - 1)
    w[1:-1] = 2.0 * v / N
    return w[::-1] * (x[-1] - x[0]) / 2.0


def flat_patch(spectrum, r0: float, m: int, r_in: float) -> BandField:
    """Zero-height patch on m nodes over [r_in, r0]."""
    return BandField.zeros(spectrum, RadialGrid(r_in, r0, m))


@pytest.fixture(scope="module")
def scales(profile):
    return compute_scales(profile, EPS)


@pytest.fixture(scope="module")
def patch(spectrum, scales):
    return flat_patch(spectrum, R0, m=150, r_in=scales.r_eps / 4)


@pytest.fixture(scope="module")
def green(patch, scales):
    return green_function(patch, scales.r_eps / 4)


class TestMeanCurvature:
    def test_zero_graph(self, patch):
        H = mean_curvature_graph(patch)
        assert np.max(np.abs(H)) < 1e-10

    def test_affine_graph_is_minimal(self, spectrum, scales):
        p = flat_patch(spectrum, R0, m=120, r_in=1e-2 * R0)
        p.values[0] = 0.02  # constant
        p.values[1] = 0.05 * p.grid.r  # linear tilt
        H = mean_curvature_graph(p)
        # spectral roundoff is amplified by the inverse metric at the inner
        # collar; measure against the local curvature scale 1/r
        assert np.max(np.abs(H) * p.grid.r[:, None]) < 1e-6

    def test_catenoid_end_height_second_order(self, spectrum, profile):
        """Sampled catenoid-end height: the solver-path H converges to 0 at
        second order under refinement of the radial grid."""
        from minsurflab.geometry import graph_orbit_points, uniform_surface
        from minsurflab.outer import _end_splines

        spl = _end_splines(N)
        g = angular_grid(spectrum)
        sups, steps = [], []
        for m in (60, 120):
            r = np.linspace(2.0, 4.0, m)
            s_of = spl["s_of_logphi"](np.log(r))
            u = (spl["psi_inf"] - spl["profile"](s_of)[2])[:, None] * np.ones((1, g.t.size))
            P = graph_orbit_points(r, g, u)
            H = uniform_surface(P, g, r[1] - r[0], order=2).mean_curvature(N)
            sups.append(np.max(np.abs(H[2:-2])))
            steps.append(r[1] - r[0])
        assert sups[1] < sups[0] / 3.0  # second-order convergence to zero
        curv_scale = 1.0  # |A| <= sqrt(6) phi^-3 <= 0.31 on this window
        assert sups[1] <= 10.0 * steps[1] ** 2 * curv_scale


class TestLinearizedOp:
    def test_flat_reduces_to_laplacian(self, spectrum, patch, rng):
        w = BandField.zeros(spectrum, patch.grid)
        w.values[2] = np.exp(-0.5 * ((np.log(patch.grid.r) - np.log(0.02)) / 0.7) ** 2)
        out = graph_operator(patch).apply(w)
        r = patch.grid.r
        prof = w.values[2]
        D = patch.grid.D
        lam = spectrum.lam[2]
        exact = (D @ (D @ prof) + (N - 2) * (D @ prof) - lam * prof) / r**2
        assert np.max(np.abs(out.values[2] - exact)) < 1e-7 * np.max(np.abs(exact))

    def test_directional_derivative_oracle(self, spectrum, scales):
        """(H(u + t w) - H(u))/t -> Lambda_u w at first order in t, for a
        radial background."""
        p = flat_patch(spectrum, R0, m=140, r_in=R0 * 2e-2)
        p.values[0] = 0.05 * np.exp(-0.5 * ((p.grid.r - 0.12) / 0.05) ** 2)
        w = BandField.zeros(spectrum, p.grid)
        w.values[0] = np.exp(-0.5 * ((p.grid.r - 0.15) / 0.06) ** 2)
        lam_w = graph_operator(p).apply(w)
        g = angular_grid(spectrum)
        H0 = mean_curvature_graph(p)
        errs = []
        for t in (1e-5, 5e-6):
            Ht = mean_curvature_graph(p + BandField(w.spectrum, w.grid, t * w.values))
            dd = (Ht - H0) / t
            from minsurflab.cylinder import rows_from_collocation

            rows = rows_from_collocation(dd, g)
            errs.append(np.max(np.abs(rows[0][5:-5] - lam_w.values[0][5:-5])))
        assert errs[1] < 0.7 * errs[0]  # observed order t

    def test_discrete_symmetry(self, spectrum, rng):
        p = flat_patch(spectrum, R0, m=120, r_in=R0 * 3e-2)
        p.values[0] = 0.03 * np.exp(-0.5 * ((p.grid.r - 0.15) / 0.06) ** 2)
        grid = p.grid
        rho = grid.rho
        # smooth compactly-supported band fields
        envelope = np.exp(-0.5 * ((rho - rho.mean()) / (0.09 * (rho[-1] - rho[0]))) ** 2)
        w = BandField.zeros(spectrum, grid)
        v = BandField.zeros(spectrum, grid)
        w.values[2] = envelope * np.sin(2 * rho)
        v.values[2] = envelope * np.cos(3 * rho)
        Lw = graph_operator(p).apply(w)
        Lv = graph_operator(p).apply(v)
        meas = clencurt_weights(rho) * grid.r**N  # Lebesgue r^{n-1} dr = r^n d rho
        a = np.sum(meas * w.values[2] * Lv.values[2])
        b = np.sum(meas * v.values[2] * Lw.values[2])
        assert abs(a - b) <= 1e-8 * max(abs(a), abs(b))


class TestGreenFunction:
    def test_flat_closed_form(self, patch, green, scales):
        rin = scales.r_eps / 4
        c1 = rin ** (2 - N) / (rin ** (2 - N) - R0 ** (2 - N))
        exact = c1 * (green.grid.r ** (2 - N) - R0 ** (2 - N))
        assert np.max(np.abs(green.values - exact)) < 1e-10 * np.max(np.abs(exact))
        assert green.a0 == pytest.approx(-c1 * R0 ** (2 - N), rel=1e-6)

    def test_zero_on_outer_boundary(self, green):
        assert abs(green.values[-1]) < 1e-12

    def test_flux_normalization(self, green):
        # conserved flux r^{n-1} gamma_0' / W^3 per unit sphere volume, read
        # at the third node; the patch is flat, so W = 1
        grid = green.grid
        dgam = (grid.D @ green.values) / grid.r
        flux = grid.r[2] ** (N - 1) * dgam[2] * sphere_area(N)
        target = -(N - 2) * sphere_area(N)
        assert abs(flux / target - 1.0) < 0.02

    def test_asymptotic_fit_exponent(self, green):
        # n = 3: the defect from (1 + extra) r^{2-n} + a0 grows like
        # r log(1/r); its fitted exponent over the mid-decade is near 1
        r = green.grid.r
        base = r ** (2 - N)
        mid = (r > 6 * green.grid.r_in) & (r < green.grid.r_out / 3)
        X = np.stack(
            [np.ones(mid.sum()), base[mid], r[mid] * np.log(1 / r[mid]), r[mid]], axis=1
        )
        coef, *_ = np.linalg.lstsq(X, (green.values - base)[mid], rcond=None)
        assert coef[0] == pytest.approx(green.a0, rel=1e-12)
        defect = green.values - (1.0 + coef[1]) * base - green.a0
        slope = np.polyfit(np.log(r[mid]), np.log(np.abs(defect[mid]) + 1e-300), 1)[0]
        assert 0.5 < slope < 1.5

    def test_inner_truncation_stability(self, patch, scales, green):
        g2 = green_function(patch, scales.r_eps / 8)
        probe = np.geomspace(scales.r_eps / 2, R0 / 2, 40)
        v1 = green.at(probe)[0]
        v2 = g2.at(probe)[0]
        assert np.max(np.abs(v1 - v2) / np.abs(v1)) < 0.01

    def test_one_read_has_the_bits_of_two(self, patch, scales, green):
        # gamma_0 and its slope through one interpolation matrix, against
        # one matrix each, on the neck's own radii and on a probe
        neck_grid = RadialGrid(scales.r_eps, R0, patch.grid.m)
        for r in (neck_grid.r, np.geomspace(scales.r_eps / 2, R0 / 2, 40)):
            for one, two in zip(green.at(r), green_two_reads(green, r)):
                assert np.array_equal(one, two)

    def test_rejects_large_inner_radius(self, patch):
        with pytest.raises(PreconditionError):
            green_function(patch, 0.3 * R0)


class TestSigmaEps:
    """The opened-neck deviation w_{eps, A} over the working annulus
    [r_eps/2, r0/2] of the flat patch."""

    @pytest.fixture(scope="class")
    def working(self, patch, scales):
        return neck.resample(patch, RadialGrid(scales.r_eps / 2, R0 / 2, patch.grid.m))

    def test_zero_parameters_give_green_term(self, working, scales, green):
        dev = rigid_deviation_rows(working, scales, RigidParams.zeros(), green)
        expect = EPS / (N - 2) * (green.at(working.grid.r)[0] - green.a0)
        assert np.max(np.abs(dev.values[0] - expect)) < 1e-12 * np.max(np.abs(expect))

    def test_pure_vertical_shift(self, working, scales, green):
        d = 0.3 * scales.r_eps**2
        dev0 = rigid_deviation_rows(working, scales, RigidParams.zeros(), green)
        devd = rigid_deviation_rows(working, scales, RigidParams(0.0, 0.0, d, 0.0), green)
        assert np.max(np.abs(devd.values[0] - dev0.values[0] - d)) < 1e-15

    def test_pure_coefficient_shift(self, working, scales, green):
        e = 0.2 * scales.r_eps**2 * scales.r_eps ** (N - 2)
        dev = rigid_deviation_rows(working, scales, RigidParams(0.0, 0.0, 0.0, e), green)
        near = working.grid.r < 3 * scales.r_eps
        coef = np.polyfit(working.grid.r[near] ** (2 - N), dev.values[0][near], 1)[0]
        assert coef == pytest.approx((EPS + e) / (N - 2), rel=0.01)

    def test_deviation_envelope_shape(self, working, scales, green):
        """|grad^k w| <= c r^{-k} (r_eps r + eps r^{2-n}) with c of order one."""
        dev = rigid_deviation_rows(working, scales, RigidParams.zeros(), green)
        r = working.grid.r
        env = scales.r_eps * r + scales.eps * r ** (2 - N)
        w0 = np.abs(dev.values[0]) + np.abs(dev.values[1])
        w1 = np.abs(working.grid.D @ dev.values[0]) / r
        assert np.max(w0 / env) < 5.0 and np.max(w1 / (env / r)) < 10.0


class TestAnnulusMixed:
    """solve_mixed about the flat graph on the annulus [r, r0]."""

    @staticmethod
    def solve(spectrum, f, r):
        return solve_mixed(graph_operator(flat_patch(spectrum, R0, m=f.grid.m, r_in=r)), f)

    def test_zero_source(self, spectrum, scales):
        f = BandField.zeros(spectrum, RadialGrid(scales.r_eps, R0, 150))
        w = self.solve(spectrum, f, scales.r_eps)
        assert np.max(np.abs(w.values)) == 0.0

    def test_radial_closed_form_oracle(self, spectrum, scales):
        """u = 0, radial source: exact quadrature solution of the regular-
        selection problem to 1e-8."""
        r_in = scales.r_eps
        grid = RadialGrid(r_in, R0, 160)
        f = BandField.zeros(spectrum, grid)

        def source(r):
            return np.exp(-0.5 * ((np.log(r) - np.log(0.01)) / 0.8) ** 2)

        f.values[0] = source(grid.r)
        w = self.solve(spectrum, f, r_in)

        def inner_integral(sigma):
            val, _ = quad(lambda tau: tau ** (N - 1) * source(tau), r_in, sigma,
                          epsabs=1e-14, epsrel=1e-12)
            return val

        exact = np.array([
            -quad(lambda sg: sg ** (1 - N) * inner_integral(sg), r, R0,
                  epsabs=1e-14, epsrel=1e-12)[0]
            for r in grid.r
        ])
        err = np.max(np.abs(w.values[0] - exact)) / np.max(np.abs(exact))
        assert err < 1e-8

    def test_bound_constant_stable_in_inner_radius(self, spectrum, scales):
        nu = -7.0 / 3.0
        ratios = []
        for r in (scales.r_eps / 2, scales.r_eps, 2 * scales.r_eps):
            grid = RadialGrid(r, R0, 150)
            f = BandField.zeros(spectrum, grid)
            f.values[2] = (grid.r / r) ** (nu - 2) * np.exp(
                -0.5 * ((np.log(grid.r / r)) / 1.0) ** 2
            )
            w = self.solve(spectrum, f, r)
            ratios.append(weighted_norm(w, 2, 0.5, nu) / weighted_norm(f, 0, 0.5, nu - 2))
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() <= 2.0


class TestPoisson:
    def test_zero_data(self, spectrum, scales):
        p = flat_patch(spectrum, R0, m=150, r_in=scales.r_eps)
        w = poisson_neck(graph_operator(p), SphereField.zeros(spectrum))
        assert np.max(np.abs(w.values)) == 0.0

    def test_flat_harmonic_identity_without_cutoff(self, spectrum, scales):
        # the bare power law h_2 (r/r_eps)^a, a = (2-n)/2 - gamma_2, is
        # harmonic over a flat patch: the annulus solve of its defect, the
        # correction poisson_neck subtracts, is roundoff
        p = flat_patch(spectrum, R0, m=150, r_in=scales.r_eps)
        h = SphereField.zonal_band(spectrum, 2, 1.0)
        h = h * (0.3 * scales.r_eps**2 / h.holder_norm())
        w0 = BandField.zeros(spectrum, p.grid)
        w0.values[2] = h.c[2] * (p.grid.r / scales.r_eps) ** ((2 - N) / 2.0 - spectrum.gamma[2])
        op = graph_operator(p)
        corr = solve_mixed(op, op.apply(w0))
        assert np.max(np.abs(corr.values)) < 1e-8 * np.max(np.abs(w0.values))

    def test_trace_identity_with_cutoff(self, spectrum, scales):
        p = flat_patch(spectrum, R0, m=150, r_in=scales.r_eps)
        h = SphereField.zonal_band(spectrum, 2, 1.0) + SphereField.zonal_band(spectrum, 4, -0.5)
        h = h * (0.3 * scales.r_eps**2 / h.holder_norm())
        w = poisson_neck(graph_operator(p), h)
        tr = project_high(w.trace(0))
        assert np.allclose(tr.c[2:], h.c[2:], rtol=1e-10, atol=1e-22)

    def test_slope_defect_shrinks_with_eps(self, spectrum, profile):
        nu = default_nu(N)
        vals = []
        for eps in (1e-4, 1e-6):
            sc = compute_scales(profile, eps)
            p = flat_patch(spectrum, R0, m=150, r_in=sc.r_eps)
            h = SphereField.zonal_band(spectrum, 2, 1.0)
            h = h * (0.3 * sc.r_eps**2 / h.holder_norm())
            w = poisson_neck(graph_operator(p), h)
            # slope-trace defect against the flat multiplier (Prop-7.2 shape)
            model = apply_Dtheta(h) * (-1.0) - (N - 2.0) * h
            defect = (project_high(w.d_trace(0)) - model).holder_norm()
            r_eps = p.grid.r_in
            vals.append(defect / (h.holder_norm() * (r_eps ** (N + nu) + r_eps ** (2.0 / 3.0))))
        # defect / (|h| (r^{n+nu} + r^{2/3})) stays bounded as eps shrinks
        assert max(vals) < 10.0

    def test_rejects_low_modes(self, spectrum, scales):
        p = flat_patch(spectrum, R0, m=150, r_in=scales.r_eps)
        h = SphereField.zeros(spectrum)
        h.c[0] = 1e-9
        with pytest.raises(PreconditionError):
            poisson_neck(graph_operator(p), h)


class TestNeckPiece:
    def test_zero_data_ball(self, spectrum, patch, green, scales, monkeypatch):
        corrections = []

        def recording_picard(*args, **kwargs):
            result = picard(*args, **kwargs)
            corrections.append(result[0])
            return result

        monkeypatch.setattr(neck, "picard", recording_picard)
        h0 = SphereField.zeros(spectrum)
        piece = build_neck_piece(patch, scales, RigidParams.zeros(), h0, h0, tol=5e-3, kappa=1.0, green=green)
        assert piece.residual_rel <= 5e-3
        assert len(corrections) == 1
        v_norm = weighted_norm(corrections[0], 2, 0.5, default_nu(N))
        # correction stays within a factor 10 of the contraction ball shape
        ball = scales.r_eps ** (10.0 / 3.0 - default_nu(N))
        assert v_norm <= 10.0 * ball * 1e3 or v_norm < 1e-6

    def test_outer_trace_matches_ring_data(self, spectrum, patch, green, scales):
        h0 = SphereField.zeros(spectrum)
        hI = SphereField.zonal_band(spectrum, 2, 1.0)
        hI = hI * (0.1 * scales.r_eps**2 / hI.holder_norm())
        piece = build_neck_piece(patch, scales, RigidParams.zeros(), hI, h0, tol=5e-3, kappa=1.0, green=green)
        outer_val = piece.V.trace(-1)
        # u0 = 0 here: outer trace equals h_I by construction
        assert np.max(np.abs(outer_val.c[2:] - hI.c[2:])) < 1e-12 * max(1e-30, np.max(np.abs(hI.c[2:])))

    def test_triple_norm_precondition(self, spectrum, patch, green, scales):
        h0 = SphereField.zeros(spectrum)
        big = RigidParams(0.0, 0.0, 3.0 * scales.r_eps**2, 0.0)
        with pytest.raises(PreconditionError):
            build_neck_piece(patch, scales, big, h0, h0, tol=5e-3, kappa=1.0, green=green)

    def test_nan_oracle_residual_is_refused(self, spectrum, patch, green, scales, monkeypatch):
        # a NaN compares False with the tolerance either way round
        monkeypatch.setattr(neck, "graph_residual", lambda V: (float("nan"), float("nan")))
        h0 = SphereField.zeros(spectrum)
        with pytest.raises(ResidualError, match="nan"):
            build_neck_piece(patch, scales, RigidParams.zeros(), h0, h0, tol=5e-3, kappa=1.0, green=green)


class TestCauchyT:
    def test_simple_map_zero(self, spectrum, scales):
        val, slope = simple_cauchy_neck(scales, RigidParams.zeros(), SphereField.zeros(spectrum))
        assert val.holder_norm() == 0.0
        assert slope.c[0] == pytest.approx(-EPS * scales.r_eps ** (2 - N), rel=1e-14)

    def test_pure_coefficient_shift_slope(self, spectrum, scales):
        e = 0.1 * scales.r_eps**2 * scales.r_eps ** (N - 2)
        val, slope = simple_cauchy_neck(
            scales, RigidParams(0.0, 0.0, 0.0, e), SphereField.zeros(spectrum)
        )
        base = -EPS * scales.r_eps ** (2 - N)
        assert slope.c[0] - base == pytest.approx(-e * scales.r_eps ** (2 - N), rel=1e-12)

    def test_gap_bounded(self, spectrum, patch, green, scales):
        h0 = SphereField.zeros(spectrum)
        h2 = SphereField.zonal_band(spectrum, 2, 1.0)
        h2 = h2 * (0.3 * scales.r_eps**2 / h2.holder_norm())
        A = RigidParams.zeros()
        piece = build_neck_piece(patch, scales, A, h0, h2, tol=5e-3, kappa=1.0, green=green)
        gap = cauchy_gap(piece.cauchy_inner, simple_cauchy_neck(scales, A, h2))
        assert gap / scales.r_eps**2 < 20.0
