import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minsurflab import catenoid, geometry
from minsurflab.catenoid import (
    ContractionError,
    PreconditionError,
    ResidualError,
    _NeckGeometry,
    _oracle_residual,
    build_catenoid_piece,
    cauchy_gap,
    default_delta,
    grid_profile,
    simple_cauchy_catenoid,
    smooth_step,
)
from band_reference import norm_exp
from oracle_reference import oracle_residual_whole
from minsurflab.cylinder import BandField, UniformGrid, collocation_bound, collocation_from_rows
from minsurflab.geometry import OrbitSurface
from minsurflab.profile import compute_scales, solve_profile
from minsurflab.spectral import SphereField, ZonalGrid, band_spectrum, project_high

N = 3
EPS = 1e-6
TOL = 5e-3
DELTA = default_delta(N)


@pytest.fixture(scope="module")
def piece_zero(spectrum, profile):
    return build_catenoid_piece(
        profile, compute_scales(profile, EPS), SphereField.zeros(spectrum), 1.0, TOL
    )


@pytest.fixture(scope="module")
def h_zonal(spectrum, profile):
    """piece_zonal's boundary data: band 2 at 0.5 r_eps^2."""
    sc = compute_scales(profile, EPS)
    h = SphereField.zonal_band(spectrum, 2, 1.0)
    return h * (0.5 * sc.r_eps**2 / h.holder_norm())


@pytest.fixture(scope="module")
def piece_zonal(profile, h_zonal):
    return build_catenoid_piece(profile, compute_scales(profile, EPS), h_zonal, 1.0, TOL)


class TestBuild:
    def test_zero_data_converges_inside_ball_shape(self, spectrum, profile, piece_zero):
        assert piece_zero.residual <= TOL
        # h_II = 0 leaves the exact truncated catenoid up to discretization;
        # the correction follows the contraction-ball shape: the ratio to
        # e^{((3n-2)/2 - delta) s_eps} r_eps^2 is stable across eps and stays
        # under the frozen measured constant of the surrogate norms.
        other = build_catenoid_piece(
            profile, compute_scales(profile, 1e-5), SphereField.zeros(spectrum), 1.0, TOL
        )
        ratios = []
        for piece in (piece_zero, other):
            sc = piece.scales
            ball = np.exp(((3 * N - 2) / 2.0 - DELTA) * sc.s_eps) * sc.r_eps**2
            # h_II = 0 makes the decaying extension zero, so w is the Picard
            # correction.  Its k=0 norm on s <= s_eps + 8, where the
            # admissible decay makes the supremum attained (the far tail is
            # pure homogeneous decay plus roundoff), is the honest smallness
            # measure when the correction is discretization noise
            s = piece.w.grid.s
            keep = s <= sc.s_eps + 8.0 + 1e-12
            near = BandField(piece.w.spectrum, UniformGrid(s[keep]), piece.w.values[:, keep])
            v_norm_sup = norm_exp(near, 0, 0.5, DELTA)
            ratios.append(v_norm_sup / ball)
        assert max(ratios) <= 400.0
        assert max(ratios) / min(ratios) <= 6.0

    def test_zonal_data_converges_quickly(self, piece_zonal):
        assert piece_zonal.iterations <= 25
        assert piece_zonal.residual <= TOL
        assert np.median(piece_zonal.contractions) <= 0.9

    def test_norm_precondition_rejected(self, spectrum, profile):
        sc = compute_scales(profile, EPS)
        kappa = 1.0
        h = SphereField.zonal_band(spectrum, 2, 1.0)
        h = h * (2.0 * kappa * sc.r_eps**2 / h.holder_norm())
        with pytest.raises(PreconditionError, match="kappa"):
            build_catenoid_piece(profile, sc, h, kappa, TOL)

    def test_low_mode_data_rejected(self, spectrum, profile):
        h = SphereField.zeros(spectrum)
        h.c[0] = 1e-9
        with pytest.raises(PreconditionError, match="low-mode"):
            build_catenoid_piece(profile, compute_scales(profile, EPS), h, 1.0, TOL)

    def test_eps_threshold_rejected(self, spectrum, profile):
        with pytest.raises(PreconditionError, match="threshold"):
            build_catenoid_piece(
                profile, compute_scales(profile, 0.5), SphereField.zeros(spectrum), 1.0, TOL
            )

    def test_unconverged_solve_raises_at_the_requested_eps(self, spectrum, profile, caplog):
        # one iteration can never settle: the solve must fail at the eps it
        # was asked for, not retry silently at another scale
        with caplog.at_level(logging.WARNING):
            with pytest.raises(ContractionError) as excinfo:
                build_catenoid_piece(
                    profile, compute_scales(profile, EPS), SphereField.zeros(spectrum), 1.0, TOL,
                    max_iter=1,
                )
        assert f"eps={EPS:.3e}" in str(excinfo.value)
        assert "update norms" in str(excinfo.value)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_grid_mismatch_rejected(self, spectrum):
        # the piece's grid [s_eps, s_eps + 15] runs past a table cut at 12
        short = solve_profile(N, 12.0, 8e-3)
        with pytest.raises(PreconditionError, match=r"s_max >= 14\.013"):
            build_catenoid_piece(short, compute_scales(short, EPS), SphereField.zeros(spectrum),
                                 1.0, TOL)

    def test_nan_oracle_residual_is_refused(self, spectrum, profile, monkeypatch):
        # a NaN compares False with the tolerance either way round
        monkeypatch.setattr(catenoid, "_oracle_residual", lambda *args: float("nan"))
        with pytest.raises(ResidualError, match="nan"):
            build_catenoid_piece(profile, compute_scales(profile, EPS),
                                 SphereField.zeros(spectrum), 1.0, TOL)

    def test_transition_field_bound(self, piece_zero):
        # |N_eps . N_0 - 1| <= c e^{(2n-2) s_eps} over the ramp of the
        # transition field, c measured modest
        s = piece_zero.w.grid.s
        data = grid_profile(N, s)
        chi = smooth_step(s - s[0])
        ndotn = (1.0 - chi) * (-data["dphi"] / data["phi"]) + chi
        defect = np.max(np.abs(ndotn - 1.0))
        assert defect <= 10.0 * np.exp((2 * N - 2) * piece_zero.scales.s_eps)

    def test_high_mode_trace_reproduced_exactly(self, piece_zonal, h_zonal):
        data = grid_profile(N, piece_zonal.w.grid.s)
        g_expect = h_zonal.c[2:] * data["phi"][0] ** ((N - 2) / 2.0)
        tr = piece_zonal.w.trace(0)
        assert np.allclose(tr.c[2:], g_expect, rtol=1e-12, atol=1e-18)

    def test_boundary_is_graph_of_data_over_cut_sphere(self, piece_zonal, h_zonal, zgrid):
        """Sampled boundary points sit at (r_eps theta, h_II(theta)) up to the
        solve's low-mode trace, which is itself recorded and small."""
        sc = piece_zonal.scales
        geo = _NeckGeometry(N, piece_zonal.w.grid.s, zgrid, sc.eps_len)
        w_hat = collocation_from_rows(piece_zonal.w.values, zgrid) / sc.eps_len
        P = geo.surface_points(w_hat, 0, w_hat.shape[0])
        # boundary ring: at s_eps the transition field is exactly vertical
        horiz = np.hypot(P[0, 0], P[1, 0]) * sc.eps_len
        assert np.max(np.abs(horiz - sc.r_eps)) < 1e-14 * sc.r_eps
        height = P[2, 0] * sc.eps_len - sc.eps_len * geo.psi[0]
        c = h_zonal.c
        expect = c[0] + c[1] * zgrid.t + c[2:] @ zgrid.Z[2:]
        low_trace = (piece_zonal.w.trace(0) * float(geo.conj[0])).c[:2]
        assert np.max(np.abs(height - expect)) <= np.abs(low_trace).sum() + 1e-12 * sc.r_eps**2

    def test_oracle_residual_factor_two(self, piece_zonal):
        # the independent-stencil oracle already produced piece.residual;
        # the builder enforces residual <= tol, acceptance wants 2 tol slack
        assert piece_zonal.residual <= 2 * TOL

    def test_oracle_streams_its_surface(self, piece_zonal, zgrid):
        # the oracle's offset grid has about 6000 rows; each block resamples,
        # collocates and builds only its own rows, and sup |H| is a running
        # maximum, so its peak is the spline's coefficients, the offset
        # grid's profile and one block's temporaries, 3.9 MB (it was 31.7 MB
        # with the whole surface and its derivatives held, and 7.8 MB with
        # the resampled rows, their collocation values and H held whole)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            res = _oracle_residual(N, zgrid, piece_zonal.scales, piece_zonal.w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res == piece_zonal.residual
        assert peak <= 5 * 2**20

    @pytest.mark.parametrize("n, eps", [(3, 1e-6), (4, 1e-6), (5, 1e-9)])
    def test_streamed_oracle_equals_the_whole_one(self, n, eps):
        # at n=5 the data 0.3 r_eps^2 trips the cubic-regime guard at eps 1e-6
        spec, prof = band_spectrum(n, 8), solve_profile(n, 16.0, 8e-3)
        sc = compute_scales(prof, eps)
        h = SphereField.zonal_band(spec, 2, 1.0)
        piece = build_catenoid_piece(prof, sc, h * (0.3 * sc.r_eps**2 / h.holder_norm()), 1.0, TOL)
        grid = ZonalGrid(n, 8, 48)
        assert piece.residual == oracle_residual_whole(n, grid, sc, piece.w)


class TestGuard:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 5),
        nodes=st.integers(1, 40),
        exponents=st.lists(st.floats(-300.0, 3.0), min_size=9, max_size=9),
        aligned=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_bound_is_never_below_the_collocation(self, n, nodes, exponents, aligned, seed):
        # bands of magnitudes 1e-300 to 1e3, mixed signs, some rows zero;
        # rows of one sign meet the bound at the node nearest the pole, up
        # to the rounding of the two sums
        grid = ZonalGrid(n, 8, 48)
        rng = np.random.default_rng(seed)
        rows = 10.0 ** np.array(exponents)[:, None] * rng.uniform(-1.0, 1.0, (9, nodes))
        rows[rng.random(9) < 0.2] = 0.0
        if aligned:
            rows = np.abs(rows)
        assert collocation_bound(rows, grid) >= np.max(np.abs(collocation_from_rows(rows, grid)))

    def test_tripped_guard_raises_the_exact_value(self, monkeypatch):
        # at n=5, eps 1e-6 the data 0.3 r_eps^2 trips the guard; the message
        # carries max |w| over the collocation nodes as before the row bound
        spec, prof = band_spectrum(5, 8), solve_profile(5, 16.0, 8e-3)
        sc = compute_scales(prof, 1e-6)
        h = SphereField.zonal_band(spec, 2, 1.0)
        h = h * (0.3 * sc.r_eps**2 / h.holder_norm())
        message = r"cubic-regime guard tripped: \|phi\^\(-n/2\) eps\^\(-1/\(n-1\)\) w\| = 5\.840e-01$"
        with pytest.raises(ContractionError, match=message) as bounded:
            build_catenoid_piece(prof, sc, h, 1.0, TOL)
        monkeypatch.setattr(catenoid, "collocation_bound", lambda rows, grid: np.inf)
        with pytest.raises(ContractionError) as exact:
            build_catenoid_piece(prof, sc, h, 1.0, TOL)
        assert str(bounded.value) == str(exact.value)

    def test_row_bound_changes_no_bit(self, spectrum, profile, h_zonal, piece_zonal, monkeypatch):
        # the guard collocating every step's rows builds the same piece
        monkeypatch.setattr(catenoid, "collocation_bound", lambda rows, grid: np.inf)
        exact = build_catenoid_piece(profile, compute_scales(profile, EPS), h_zonal, 1.0, TOL)
        assert np.array_equal(exact.w.values, piece_zonal.w.values)
        assert exact.residual == piece_zonal.residual
        assert exact.iterations == piece_zonal.iterations


class TestOracleTail:
    def test_bare_rows_keep_the_bare_points(self, zgrid, piece_zonal):
        # a field at the bound of a bare row, of either sign, leaves that
        # row's points the bare catenoid's bit for bit; the bound sweeps 30
        # decades over the rows, so the bare ones end where it crosses the
        # threshold
        sc = piece_zonal.scales
        s = piece_zonal.w.grid.s
        geo = _NeckGeometry(N, s, zgrid, sc.eps_len)
        bound = np.logspace(-25.0, 5.0, s.size)
        bare = geo.bare_rows(bound)
        assert bare[:100].all() and not bare[-100:].any()
        field = np.broadcast_to(bound[:, None], (s.size, zgrid.t.size))
        bare_points = geo.surface_points(np.zeros(field.shape), 0, s.size)[:, bare]
        for sign in (1.0, -1.0):
            assert np.array_equal(geo.surface_points(sign * field, 0, s.size)[:, bare], bare_points)

    def test_warm_oracles_equal_the_whole_one(self, spectrum, profile, zgrid, monkeypatch):
        # the first oracle on the grid keeps the bare catenoid's block peaks;
        # a piece that reaches farther, then one that reaches less far,
        # stop their walks at the kept blocks and give the whole oracle's bits
        monkeypatch.setattr(catenoid, "_BARE_PEAKS", {})
        sc = compute_scales(profile, EPS)
        h = SphereField.zonal_band(spectrum, 2, 1.0)
        kept = []
        for amplitude in (0.1, 0.5, 0.0):
            piece = build_catenoid_piece(profile, sc, h * (amplitude * sc.r_eps**2 / h.holder_norm()),
                                         1.0, TOL)
            assert piece.residual == oracle_residual_whole(N, zgrid, sc, piece.w)
            (tail,) = catenoid._BARE_PEAKS.values()
            kept.append(len(tail))
        # band 2 at 0.5 r_eps^2 moves rows farther up than at 0.1, and zero
        # data less far: its oracle adds the blocks between
        assert 0 < kept[0] == kept[1] < kept[2]
        # a warm oracle walks fewer blocks than a cold one, to the same bits
        blocks = []
        forms = OrbitSurface.fundamental_forms

        def counted(self, *args):
            blocks.append(args[0].shape[1])
            return forms(self, *args)

        monkeypatch.setattr(OrbitSurface, "fundamental_forms", counted)
        warm = _oracle_residual(N, zgrid, sc, piece.w)
        walked = len(blocks)
        monkeypatch.setattr(catenoid, "_BARE_PEAKS", {})
        assert _oracle_residual(N, zgrid, sc, piece.w) == warm
        assert walked + kept[2] == len(blocks) - walked

    def test_nan_in_a_kept_block_is_the_result(self, piece_zonal, zgrid, monkeypatch):
        monkeypatch.setattr(catenoid, "_BARE_PEAKS", {})
        sc = piece_zonal.scales
        assert _oracle_residual(N, zgrid, sc, piece_zonal.w) == piece_zonal.residual
        (key, tail), = catenoid._BARE_PEAKS.items()
        catenoid._BARE_PEAKS[key] = {**tail, max(tail): np.float64(np.nan)}
        assert np.isnan(_oracle_residual(N, zgrid, sc, piece_zonal.w))

    def test_one_block_buffer_set_per_grid_size(self, spectrum, profile, h_zonal, zgrid,
                                                monkeypatch):
        # every walk on a grid of one size writes its forms into one set,
        # made by the first walk and kept: two catenoid builds, a neck build
        # and an outer solve make one between them, and a grid of another
        # size gets its own
        from minsurflab.neck import RigidParams, build_neck_piece, green_function
        from minsurflab.outer import assemble_outer, find_site, seed_catenoid, solve_outer_nonlinear

        made = []
        init = geometry.BlockBuffers.__init__

        def recorded(self, m):
            made.append(m)
            init(self, m)

        monkeypatch.setattr(geometry, "_BUFFERS", {})
        monkeypatch.setattr(geometry.BlockBuffers, "__init__", recorded)
        sc = compute_scales(profile, EPS)
        h0 = SphereField.zeros(spectrum)
        for h in (h_zonal, h0):
            assert build_catenoid_piece(profile, sc, h, 1.0, TOL).residual <= TOL
        surf = seed_catenoid(profile, spectrum, scale=1.0)
        site = assemble_outer(surf, 180.0 * sc.r_eps, find_site(surf, sc)[0], sc)
        neck = build_neck_piece(site.patch, sc, RigidParams.zeros(), h0, h0, tol=TOL, kappa=1.0,
                                green=green_function(site.patch, sc.r_eps / 4))
        assert neck.residual_rel <= TOL
        solve_outer_nonlinear(site, h0, tol=TOL)
        assert made == [zgrid.t.size]
        other = ZonalGrid(N, 8, zgrid.t.size - 8)
        r = np.linspace(1.0, 2.0, 20)
        P = geometry.graph_orbit_points(r, other, np.zeros((r.size, other.t.size)))
        geometry.uniform_surface(P, other, r[1] - r[0]).mean_curvature(N)
        assert made == [zgrid.t.size, other.t.size]
        assert set(geometry._BUFFERS) == set(made)


class TestCauchyMaps:
    def test_simple_map_zero_data(self, spectrum, profile):
        sc = compute_scales(profile, EPS)
        val, slope = simple_cauchy_catenoid(sc, SphereField.zeros(spectrum))
        assert val.holder_norm() == 0.0
        assert slope.c[0] == pytest.approx(-sc.eps * sc.r_eps ** (2 - N), rel=1e-14)
        assert project_high(slope).holder_norm() == 0.0

    def test_simple_slope_affine_with_dtheta_multiplier(self, spectrum, profile):
        from minsurflab.spectral import apply_Dtheta

        sc = compute_scales(profile, EPS)
        h = SphereField.zonal_band(spectrum, 3, 0.25 * sc.r_eps**2)
        val, slope = simple_cauchy_catenoid(sc, h)
        base_val, base_slope = simple_cauchy_catenoid(sc, SphereField.zeros(spectrum))
        dv = slope - base_slope
        assert np.allclose(dv.c[2:], apply_Dtheta(h).c[2:], rtol=1e-14)
        assert np.allclose(val.c[2:], h.c[2:])

    def test_gap_bounded_at_two_eps(self, spectrum, profile):
        ratios = []
        for eps in (1e-5, 1e-6):
            sc = compute_scales(profile, eps)
            h = SphereField.zonal_band(spectrum, 2, 1.0)
            h = h * (0.5 * sc.r_eps**2 / h.holder_norm())
            piece = build_catenoid_piece(profile, sc, h, 1.0, TOL)
            ratios.append(cauchy_gap(piece.cauchy, simple_cauchy_catenoid(sc, h)) / sc.r_eps**2)
        assert max(ratios) < 20.0
        assert max(ratios) / min(ratios) < 1.5

    def test_solved_map_limits_to_simple_at_zero_data(self, piece_zero):
        sc = piece_zero.scales
        se = piece_zero.cauchy
        s0 = simple_cauchy_catenoid(sc, SphereField.zeros(piece_zero.w.spectrum))
        # value slot: pure low-mode trace of size O(r_eps^2)
        assert se[0].holder_norm() < 20 * sc.r_eps**2
        # slope slot tends to -eps r_eps^{2-n}
        rel = abs(se[1].c[0] - s0[1].c[0]) / abs(s0[1].c[0])
        assert rel < 0.1
