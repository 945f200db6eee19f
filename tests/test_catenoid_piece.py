import logging
import tracemalloc

import numpy as np
import pytest

from minsurflab.catenoid import (
    ContractionError,
    PreconditionError,
    _NeckGeometry,
    _oracle_residual,
    build_catenoid_piece,
    cauchy_maps_catenoid,
    contraction_median,
    default_delta,
    grid_profile,
    simple_cauchy_catenoid,
    smooth_step,
)
from minsurflab.cli import _restrict
from minsurflab.cylinder import collocation_from_rows, norm_exp
from minsurflab.profile import compute_scales
from minsurflab.spectral import SphereField, ZonalGrid, project_high

N = 3
EPS = 1e-6
TOL = 5e-3
DELTA = default_delta(N)


@pytest.fixture(scope="module")
def piece_zero(spectrum, profile):
    return build_catenoid_piece(
        profile, compute_scales(profile, EPS), SphereField.zeros(spectrum), 1.0, TOL, DELTA
    )


@pytest.fixture(scope="module")
def piece_zonal(spectrum, profile):
    sc = compute_scales(profile, EPS)
    h = SphereField.zonal_band(spectrum, 2, 1.0)
    h = h * (0.5 * sc.r_eps**2 / h.holder_norm())
    return build_catenoid_piece(profile, sc, h, 1.0, TOL, DELTA)


class TestBuild:
    def test_zero_data_converges_inside_ball_shape(self, spectrum, profile, piece_zero):
        assert piece_zero.residual <= TOL
        # h_II = 0 leaves the exact truncated catenoid up to discretization;
        # the correction follows the contraction-ball shape: the ratio to
        # e^{((3n-2)/2 - delta) s_eps} r_eps^2 is stable across eps and stays
        # under the frozen measured constant of the surrogate norms.
        other = build_catenoid_piece(
            profile, compute_scales(profile, 1e-5), SphereField.zeros(spectrum), 1.0, TOL, DELTA
        )
        ratios = []
        for piece in (piece_zero, other):
            sc = piece.scales
            ball = np.exp(((3 * N - 2) / 2.0 - DELTA) * sc.s_eps) * sc.r_eps**2
            # the k=0 norm of the correction on the window the CLI's v_norm
            # reads: the honest smallness measure when it is discretization noise
            v_norm_sup = norm_exp(_restrict(piece.v, sc.s_eps + 8.0), 0, 0.5, DELTA)
            ratios.append(v_norm_sup / ball)
        assert max(ratios) <= 400.0
        assert max(ratios) / min(ratios) <= 6.0

    def test_zonal_data_converges_quickly(self, piece_zonal):
        assert piece_zonal.iterations <= 25
        assert piece_zonal.residual <= TOL
        assert contraction_median(piece_zonal.contractions) <= 0.9

    def test_norm_precondition_rejected(self, spectrum, profile):
        sc = compute_scales(profile, EPS)
        kappa = 1.0
        h = SphereField.zonal_band(spectrum, 2, 1.0)
        h = h * (2.0 * kappa * sc.r_eps**2 / h.holder_norm())
        with pytest.raises(PreconditionError, match="kappa"):
            build_catenoid_piece(profile, sc, h, kappa, TOL, DELTA)

    def test_low_mode_data_rejected(self, spectrum, profile):
        h = SphereField.zeros(spectrum)
        h.c[0] = 1e-9
        with pytest.raises(PreconditionError, match="low-mode"):
            build_catenoid_piece(profile, compute_scales(profile, EPS), h, 1.0, TOL, DELTA)

    def test_eps_threshold_rejected(self, spectrum, profile):
        with pytest.raises(PreconditionError, match="threshold"):
            build_catenoid_piece(
                profile, compute_scales(profile, 0.5), SphereField.zeros(spectrum), 1.0, TOL, DELTA
            )

    def test_unconverged_solve_raises_at_the_requested_eps(self, spectrum, profile, caplog):
        # one iteration can never settle: the solve must fail at the eps it
        # was asked for, not retry silently at another scale
        with caplog.at_level(logging.WARNING):
            with pytest.raises(ContractionError) as excinfo:
                build_catenoid_piece(
                    profile, compute_scales(profile, EPS), SphereField.zeros(spectrum), 1.0, TOL,
                    DELTA, max_iter=1,
                )
        assert f"eps={EPS:.3e}" in str(excinfo.value)
        assert "update norms" in str(excinfo.value)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_transition_field_bound(self, piece_zero):
        # |N_eps . N_0 - 1| <= c e^{(2n-2) s_eps} over the ramp of the
        # transition field, c measured modest
        s = piece_zero.w.grid.s
        data = grid_profile(N, s)
        chi = smooth_step(s - s[0])
        ndotn = (1.0 - chi) * (-data["dphi"] / data["phi"]) + chi
        defect = np.max(np.abs(ndotn - 1.0))
        assert defect <= 10.0 * np.exp((2 * N - 2) * piece_zero.scales.s_eps)

    def test_high_mode_trace_reproduced_exactly(self, piece_zonal, profile):
        sc = piece_zonal.scales
        data = grid_profile(N, piece_zonal.w.grid.s)
        g_expect = piece_zonal.h_II.c[2:] * data["phi"][0] ** ((N - 2) / 2.0)
        tr = piece_zonal.w.trace(0)
        assert np.allclose(tr.c[2:], g_expect, rtol=1e-12, atol=1e-18)

    def test_boundary_is_graph_of_data_over_cut_sphere(self, piece_zonal, zgrid):
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
        c = piece_zonal.h_II.c
        expect = c[0] + c[1] * zgrid.t + c[2:] @ zgrid.Z[2:]
        low_trace = (piece_zonal.w.trace(0) * float(geo.conj[0])).c[:2]
        assert np.max(np.abs(height - expect)) <= np.abs(low_trace).sum() + 1e-12 * sc.r_eps**2

    def test_oracle_residual_factor_two(self, piece_zonal):
        # the independent-stencil oracle already produced piece.residual;
        # the builder enforces residual <= tol, acceptance wants 2 tol slack
        assert piece_zonal.residual <= 2 * TOL

    def test_oracle_streams_its_surface(self, piece_zonal, zgrid):
        # the oracle's offset grid has about 6000 rows; built block by block
        # its surface never exists whole, and its peak is the resampled
        # collocation values, the output and one block's temporaries (it
        # was 31.7 MB with the whole surface and its derivatives held)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            res = _oracle_residual(N, zgrid, piece_zonal.scales, piece_zonal.w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res == piece_zonal.residual
        assert peak <= 10 * 2**20


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
            piece = build_catenoid_piece(profile, sc, h, 1.0, TOL, DELTA)
            ratios.append(cauchy_maps_catenoid(piece)[2] / sc.r_eps**2)
        assert max(ratios) < 20.0
        assert max(ratios) / min(ratios) < 1.5

    def test_solved_map_limits_to_simple_at_zero_data(self, piece_zero):
        se, s0, _ = cauchy_maps_catenoid(piece_zero)
        sc = piece_zero.scales
        # value slot: pure low-mode trace of size O(r_eps^2)
        assert se[0].holder_norm() < 20 * sc.r_eps**2
        # slope slot tends to -eps r_eps^{2-n}
        rel = abs(se[1].c[0] - s0[1].c[0]) / abs(s0[1].c[0])
        assert rel < 0.1
