import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
from stability_reference import delta_stability_loops, fields_by_hat_loop

from minsurflab.cylinder import collocation_from_rows
from minsurflab.geometry import graph_orbit_points, matrix_surface, uniform_surface
from minsurflab.neck import angular_grid
from minsurflab.outer import CORE_SPAN, CORE_STEP
from minsurflab.profile import profile_values
from minsurflab.verify import (
    STABILITY_BLOCK,
    _stability_fields,
    catenoid_sample_graph,
    chord_arc,
    delta_stability,
    graphical_radius,
    mc_residual,
    plane_sample_graph,
    second_fund,
    separation_check,
    sheet_separation_report,
)

N = 3


def catenoid_orbit_chart(scale=1.0, window=2.5, m=140, spectrum=None):
    g = angular_grid(spectrum)
    s = np.linspace(-window, window, m)
    phi, dphi, psi, dpsi = profile_values(N, s)
    F = scale * phi[:, None] * np.ones((1, g.t.size))
    P = np.stack([F * g.t[None, :], F * g.sinb[None, :],
                  scale * psi[:, None] * np.ones((1, g.t.size))])
    return P, s, phi


def reference_second_fund(glued):
    """(outside_sup, per-box sup_A) of second_fund, one sample at a time."""
    outer = glued.outer
    n = outer.n
    e0 = np.eye(n)[0]
    samples = []
    s = np.linspace(-CORE_SPAN, CORE_SPAN, 400)
    phi, _, psi, _ = profile_values(n, s)
    A_prof = np.sqrt(n * (n - 1.0)) * phi ** (-n) / outer.core_scale
    for k in range(s.size):
        # the seed's core sits at the origin
        pt = np.concatenate([e0 * outer.core_scale * phi[k], [outer.core_scale * psi[k]]])
        samples.append((pt, float(A_prof[k])))
    for level in outer.glue_levels:
        V = level.neck_piece.V
        g = angular_grid(V.spectrum)
        P = graph_orbit_points(V.grid.r, g, collocation_from_rows(V.values, g))
        A2 = np.sqrt(matrix_surface(P, g, V.grid.D).second_fundamental_sq(n))
        for i in range(0, V.grid.m, 4):
            pt = np.concatenate([level.site.center_xy + e0 * V.grid.r[i],
                                 [level.site.height + V.values[0, i]]])
            samples.append((pt, float(np.max(A2[i]))))
        sc = level.catenoid_piece.scales
        phis, _, psis, _ = profile_values(n, np.linspace(sc.s_eps, sc.s_eps + 12.0, 300))
        Avals = np.sqrt(n * (n - 1.0)) * phis ** (-n) / sc.eps_len
        for j in range(phis.size):
            pt = np.concatenate([level.site.center_xy + e0 * sc.eps_len * phis[j],
                                 [level.ring_height + sc.eps_len * (psis[j] - sc.psi_cut)]])
            samples.append((pt, float(Avals[j])))
    boxes = outer.neck_boxes
    outside, per_box = 0.0, [0.0] * len(boxes)
    for pt, Ai in samples:
        inside = False
        for b_idx, b in enumerate(boxes):
            z0, z1 = b.z_range
            if np.max(np.abs(pt[:n] - b.center_xy)) <= b.halfwidth and z0 <= pt[n] <= z1:
                per_box[b_idx] = max(per_box[b_idx], Ai)
                inside = True
        if not inside:
            outside = max(outside, Ai)
    return outside, per_box


class TestMcResidual:
    def test_core_chart_streams_bit_identically(self, glued_surface):
        # the core chart is built block by block as the engine walks it; its
        # residual is the one of the whole chart, and the oracle's peak is
        # the output and one block's temporaries (22.2 MB with the whole
        # chart and its derivatives held)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            core = mc_residual(glued_surface)["core"]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        outer = glued_surface.outer
        g = angular_grid(outer.spectrum)
        s = -CORE_SPAN + CORE_STEP * np.arange(int(round(2 * CORE_SPAN / CORE_STEP)) + 1)
        sf = np.linspace(s[0] + 0.05, s[-1] - 0.05, 2 * s.size)
        sf = sf + 0.37 * (sf[1] - sf[0])
        sf = sf[sf <= s[-1] - 0.05]
        phi, _, psi, _ = profile_values(N, sf)
        F = phi[:, None] * np.ones((1, g.t.size))
        P = np.stack([F * g.t[None, :], F * g.sinb[None, :], psi[:, None] * np.ones((1, g.t.size))])
        H = uniform_surface(P, g, sf[1] - sf[0], order=4).mean_curvature(N)
        assert core["sup_H"] == float(np.max(np.abs(H[3:-3])) / outer.core_scale)


class TestSecondFund:
    def test_catenoid_profile_against_revolution_oracle(self, spectrum):
        """|A| from chart second derivatives vs the profile formula
        sqrt(n(n-1)) phi^{-n} for the unit-neck catenoid."""
        g = angular_grid(spectrum)
        P, s, phi = catenoid_orbit_chart(spectrum=spectrum, m=600)
        surf = uniform_surface(P, g, s[1] - s[0], order=4)
        A = np.sqrt(surf.second_fundamental_sq(N))
        exact = np.sqrt(N * (N - 1.0)) * phi ** (-N)
        rel = np.abs(A[4:-4] - exact[4:-4, None]) / exact.max()
        assert np.max(rel) < 1e-4

    def test_plane_is_flat(self, spectrum):
        g = angular_grid(spectrum)
        r = np.linspace(0.5, 2.0, 80)
        P = graph_orbit_points(r, g, np.zeros((80, g.t.size)))
        A2 = uniform_surface(P, g, r[1] - r[0], order=2).second_fundamental_sq(N)
        assert np.max(np.abs(A2)) < 1e-16

    def test_glued_profile_outside_boxes(self, glued_surface):
        prof = second_fund(glued_surface)
        assert prof["outside_sup"] < 1.0
        assert all(b["sup_A"] >= 0 for b in prof["boxes"])

    def test_every_box_bounds_A_by_c_j(self, glued_surface):
        # NeckBox's promise: |A| <= c_j inside the box (about 0.91 c_j here)
        boxes = second_fund(glued_surface)["boxes"]
        assert len(boxes) == 2
        assert all(0 < b["sup_A"] <= b["c_j"] for b in boxes)

    def test_matches_the_per_sample_reference(self, glued_surface):
        prof = second_fund(glued_surface)
        outside, per_box = reference_second_fund(glued_surface)
        assert prof["outside_sup"] == outside
        assert [b["sup_A"] for b in prof["boxes"]] == per_box


class TestEmbeddedness:
    def test_parallel_planes_certificate(self):
        pts = np.linspace(0, 1, 50)[:, None] * np.ones((1, 3))
        h = 0.37
        rep = sheet_separation_report(pts, np.zeros(50), np.full(50, h))
        assert rep["positive"]
        assert rep["min_separation"] == pytest.approx(h)

    def test_negative_control_returns_witness(self, glued_surface):
        from minsurflab.verify import embeddedness

        cert = embeddedness(glued_surface)
        assert cert["embedded"]
        # lower the new sheet through the old one
        outer = glued_surface.outer
        level = outer.glue_levels[-1]
        lowered = dataclasses.replace(level, ring_height=level.ring_height - 2.0 * cert["min_separation"])
        outer = dataclasses.replace(outer, glue_levels=outer.glue_levels[:-1] + (lowered,))
        shifted = embeddedness(dataclasses.replace(glued_surface, outer=outer))
        assert not shifted["embedded"]
        assert "witness" in shifted

    def test_reads_the_end_its_site_was_cut_from(self, glued_surface, monkeypatch):
        """A site below its end's plane still has its old sheet read from
        that end, not from the highest end below the site."""
        from minsurflab.outer import EndModel
        from minsurflab.verify import embeddedness

        outer = glued_surface.outer
        end = outer.ends[0]
        level = outer.glue_levels[-1]
        site = dataclasses.replace(level.site, height=end.plane_height - 0.05)
        level = dataclasses.replace(level, site=site)
        outer = dataclasses.replace(outer, glue_levels=outer.glue_levels[:-1] + (level,))
        read = []
        height_profile = EndModel.height_profile

        def spy(self, n, R):
            read.append(self)
            return height_profile(self, n, R)

        monkeypatch.setattr(EndModel, "height_profile", spy)
        embeddedness(dataclasses.replace(glued_surface, outer=outer))
        assert read and all(e is end for e in read)

    def test_overlapping_boxes_are_not_embedded(self, glued_surface):
        from minsurflab.verify import embeddedness

        outer = glued_surface.outer
        level = outer.glue_levels[-1]
        # the level's box moved onto the seed's
        box = dataclasses.replace(level.box, center_xy=outer.seed_box.center_xy,
                                  z_range=outer.seed_box.z_range)
        level = dataclasses.replace(level, box=box)
        outer = dataclasses.replace(outer, glue_levels=outer.glue_levels[:-1] + (level,))
        cert = embeddedness(dataclasses.replace(glued_surface, outer=outer))
        assert cert["boxes_disjoint"] is False
        assert cert["embedded"] is False
        assert cert["min_separation"] > 0

    def test_glued_certificate_contents(self, glued_surface):
        cert = glued_surface.certificates["embeddedness"]
        assert cert["boxes_disjoint"]
        assert cert["min_separation"] > 0
        assert all(g > 0 for g in cert["plane_gaps"])


class TestChordArc:
    def test_plane_calibration(self):
        g = plane_sample_graph(N, extent=10.0)
        center = int(np.argmin(np.linalg.norm(g.points, axis=1)))
        for R in (3.0, 5.0):
            rep = chord_arc(g, center, R)
            assert abs(rep["ratio_R"] - 1.0) < 0.05
            # calibration identity: c_fit R^{n-1} -> 1
            assert abs(rep["c_fit"] * R ** (N - 1) - 1.0) < 0.05

    def test_catenoid_across_neck_bounded(self):
        g = catenoid_sample_graph(N, scale=1.0, s_window=3.2)
        start = int(np.argmin(np.linalg.norm(g.points - np.array([1.0, 0, 0, 0]), axis=1)))
        ratios = []
        for R in (2.0, 4.0, 8.0):
            rep = chord_arc(g, start, R)
            ratios.append(rep["ratio_R"])
        assert max(ratios) < 3.0

    def test_window_guard(self):
        g = plane_sample_graph(N, extent=4.0)
        center = int(np.argmin(np.linalg.norm(g.points, axis=1)))
        rep = chord_arc(g, center, 3.9)
        assert rep["window_boundary_touched"]


class TestGraphicalRadius:
    def test_plane_unbounded_by_window(self):
        g = plane_sample_graph(N, extent=6.0)
        center = int(np.argmin(np.linalg.norm(g.points, axis=1)))
        rep = graphical_radius(g, center, C_A=1e-6)
        assert rep["R_graph"] > 4.0
        assert rep["delta_c"] >= 0.45

    def test_catenoid_neck_bounded_by_curvature(self):
        g = catenoid_sample_graph(N, scale=1.0, s_window=3.0)
        start = int(np.argmin(np.linalg.norm(g.points - np.array([1.0, 0, 0, 0]), axis=1)))
        C_A = float(np.sqrt(N * (N - 1.0)))  # |A| at the unit neck
        rep = graphical_radius(g, start, C_A=C_A)
        # frozen measurement: the slope-1 criterion alone admits a laxer
        # constant than the uniform lemma radius; the scaling shape is
        # what the covariance test certifies
        assert 0.0 < rep["R_times_CA"] <= 2.6

    def test_scaling_covariance(self):
        reps = []
        for lam in (1.0, 2.0):
            g = catenoid_sample_graph(N, scale=lam, s_window=3.0)
            start = int(np.argmin(np.linalg.norm(g.points - np.array([lam, 0, 0, 0]), axis=1)))
            reps.append(graphical_radius(g, start, C_A=np.sqrt(6.0) / lam))
        ratio = reps[1]["R_graph"] / reps[0]["R_graph"]
        assert abs(ratio - 2.0) < 0.04 * 2.0


class TestDeltaStability:
    def _flat_disk(self, spectrum, m=48):
        g = angular_grid(spectrum)
        r = np.linspace(0.02, 1.0, m)
        P = graph_orbit_points(r, g, np.zeros((m, g.t.size)))
        A2 = np.zeros((m, g.t.size))
        return P, A2

    def test_flat_disk_stable_for_every_delta(self, spectrum):
        P, A2 = self._flat_disk(spectrum)
        for delta in (0.0, 0.3, 0.6):
            rep = delta_stability(P, A2, N, delta, domain_id="disk")
            assert rep.stable
            assert rep.min_quotient >= -1e-10

    def test_warning_outside_flatness_window_names_domain(self, spectrum, caplog):
        P, A2 = self._flat_disk(spectrum)
        with caplog.at_level(logging.WARNING, logger="minsurflab.verify"):
            delta_stability(P, A2, N, 0.7, domain_id="disk")
        assert "disk: delta=0.7 at n=3 is outside the flatness window" in caplog.text

    def _catenoid(self, spectrum, window=4.0, m=120):
        P, _, phi = catenoid_orbit_chart(window=window, m=m, spectrum=spectrum)
        A2 = (N * (N - 1.0) * phi ** (-2 * N))[:, None] * np.ones((1, P.shape[2]))
        return P, A2

    def test_catenoid_delta_zero_unstable(self, spectrum):
        P, A2 = self._catenoid(spectrum)
        rep = delta_stability(P, A2, N, 0.0, domain_id="catenoid")
        assert not rep.stable
        assert rep.min_quotient < -1e-3

    def test_monotone_in_delta(self, spectrum):
        P, A2 = self._catenoid(spectrum, window=2.0, m=80)
        q = [delta_stability(P, A2, N, d, "catenoid").min_quotient for d in (0.0, 0.25, 0.5)]
        # raising delta weakens the negative potential: quotient nondecreasing
        assert q[0] <= q[1] <= q[2]

    def test_reproducible_given_seed(self, spectrum):
        P, A2 = self._flat_disk(spectrum)
        a = delta_stability(P, A2, N, 0.4, "disk")
        b = delta_stability(P, A2, N, 0.4, "disk")
        assert a.min_quotient == b.min_quotient

    @pytest.mark.parametrize("shape", [(5, 5), (7, 48), (20, 13), (48, 48), (70, 48), (120, 48)])
    def test_fields_equal_the_hat_loop_reference(self, shape):
        """The hats set by index arithmetic, fewer than 240 of them on the
        small grids, against the loop over hat nodes, bit for bit."""
        assert np.array_equal(_stability_fields(*shape), fields_by_hat_loop(*shape))

    @pytest.mark.parametrize("chart", ["disk", "catenoid"])
    def test_min_quotient_equals_the_column_loop_reference(self, spectrum, chart):
        """delta_stability against the loops over hat nodes and over
        columns, bit for bit; a cap or random field holds the minimum on
        both charts."""
        P, A2 = self._flat_disk(spectrum) if chart == "disk" else self._catenoid(spectrum)
        for delta in (0.0, 0.3, 0.6):
            rep = delta_stability(P, A2, N, delta, domain_id=chart)
            assert (rep.min_quotient, rep.stable) == delta_stability_loops(P, A2, N, delta)

    def test_peak_memory_bounded_by_the_stability_fields(self, spectrum):
        P, A2 = self._catenoid(spectrum)
        tracemalloc.start()
        try:
            delta_stability(P, A2, N, 0.0, domain_id="catenoid")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (N, 280) test fields and one block of the energy's columns,
        # about 1.2x; a block of 32 columns peaked at about 1.7x
        assert peak <= 1.25 * P.shape[1] * P.shape[2] * 280 * 8

    @pytest.mark.parametrize("m", [7, 60, 120])
    def test_gradient_energy_equals_the_difference_matrix_reference(self, spectrum, rng, m):
        """The energy form against dense centred-difference matrices (one-sided
        rows at both ends) applied as Da @ phi and phi @ Db.T, bit for bit,
        on a catenoid chart and on fields with 90 percent zeros and scales
        1e-8 and 1e8, over several full blocks of columns and a partial one."""
        from minsurflab.spectral import sphere_area
        from minsurflab.verify import _first_form, _stability_forms

        P, _, _ = catenoid_orbit_chart(spectrum=spectrum, m=m)
        Na, Nb = P.shape[1], P.shape[2]
        E, F, G, det, vol = _first_form(P, N)
        dA = vol * sphere_area(N - 1)

        def difference_matrix(k):
            D = np.zeros((k, k))
            for i in range(1, k - 1):
                D[i, i - 1], D[i, i + 1] = -0.5, 0.5
            D[0, 0], D[0, 1] = -1.0, 1.0
            D[-1, -2], D[-1, -1] = -1.0, 1.0
            return D

        Da, Db = difference_matrix(Na), difference_matrix(Nb)
        vecs = rng.standard_normal((Na * Nb, 75))
        assert vecs.shape[1] > 2 * STABILITY_BLOCK and vecs.shape[1] % STABILITY_BLOCK
        # sparse and scaled columns in the first block and in the partial last one
        for c in (2, 3, 71, 72):
            vecs[:, c] *= rng.random(Na * Nb) < 0.1
        vecs[:, [4, 73]] *= 1e-8
        vecs[:, [5, 74]] *= 1e8
        expect = np.empty(vecs.shape[1])
        for c in range(vecs.shape[1]):
            phi = vecs[:, c].reshape(Na, Nb)
            pa, pb = Da @ phi, phi @ Db.T
            expect[c] = np.sum((G * pa**2 - 2 * F * pa * pb + E * pb**2) / det * dA)
        apply_grad_energy, dA_forms = _stability_forms(P, N)
        assert np.array_equal(dA_forms, dA)
        assert np.array_equal(apply_grad_energy(vecs), expect)


class TestSeparationCheck:
    def _plane_chart(self, spectrum, m=60):
        g = angular_grid(spectrum)
        r = np.linspace(0.5, 2.0, m)
        P = graph_orbit_points(r, g, np.zeros((m, g.t.size)))
        return P, np.zeros((m, g.t.size))

    def test_parallel_planes_zero_defect(self, spectrum):
        P, _ = self._plane_chart(spectrum)
        u = np.full(P.shape[1:], 0.2)
        A2 = np.zeros_like(u)
        rep = separation_check(P, u, A2, N)
        assert rep["precondition_ok"]
        assert rep["defect_sup"] == 0.0

    def test_orientation_symmetry(self, spectrum):
        g = angular_grid(spectrum)
        m = 60
        r = np.linspace(0.5, 2.0, m)
        u = 0.05 + 0.01 * np.exp(-((r - 1.2) ** 2) / 0.1)[:, None] * np.ones((1, g.t.size))
        P1 = graph_orbit_points(r, g, np.zeros((m, g.t.size)))
        P2 = graph_orbit_points(r, g, u)
        A2 = np.zeros((m, g.t.size))
        rep12 = separation_check(P1, u, A2, N)
        rep21 = separation_check(P2, -u, A2, N)
        assert rep12["defect_sup"] == pytest.approx(rep21["defect_sup"], rel=0.05)

    def test_catenoid_end_defect_vanishes_as_end_flattens(self, spectrum):
        """Separation of the catenoid end from its own asymptotic plane:
        the PDE defect shrinks as the window moves out, consistent with
        coefficient bounds quadratic in the closeness."""
        from minsurflab.outer import _end_splines

        g = angular_grid(spectrum)
        spl = _end_splines(N)
        sups = []
        for r_lo in (3.0, 6.0):
            m = 90
            r = np.linspace(r_lo, 2 * r_lo, m)
            s_of = spl["s_of_logphi"](np.log(r))
            phi_of, _, psi_of, _ = spl["profile"](s_of)
            u_prof = spl["psi_inf"] - psi_of
            heights = -u_prof[:, None] * np.ones((1, g.t.size))
            P = graph_orbit_points(r, g, heights)
            A2 = (N * (N - 1.0) * phi_of ** (-2 * N))[:, None] * np.ones((1, g.t.size))
            u = u_prof[:, None] * np.ones((1, g.t.size))
            rep = separation_check(P, u, A2, N)
            assert rep["precondition_ok"]
            sups.append(rep["defect_sup"])
        assert sups[1] < sups[0] / 4.0

    def test_harnack_ratio_bounded_on_glue_sheets(self, spectrum, glued_surface):
        """Separation of the two sheets near the newest neck: the measured
        Harnack ratio on concentric balls is stable under radius halving."""
        from minsurflab.verify import _upper_branch_height

        glued = glued_surface
        outer = glued.outer
        cat = glued.catenoid_piece
        sc = cat.scales
        site = glued.info["site"]
        ring_h = glued.info["ring_height"]
        radii = np.geomspace(3 * sc.r_eps, 40 * sc.r_eps, 50)
        upper = ring_h + _upper_branch_height(N, sc, radii)
        interp = glued.neck_piece.V.grid.interp_matrix(radii)
        lower = site["height"] + interp @ glued.neck_piece.V.values[0]
        u = upper - lower
        # 1-d chart graph along the radius: Harnack ratios via index balls
        ratios = []
        mid = radii.size // 2
        for half in (radii.size // 3, radii.size // 6):
            window = u[mid - half : mid + half]
            ratios.append(window.max() / window.min())
        assert ratios[1] <= ratios[0] <= 50.0
