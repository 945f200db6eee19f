import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minsurflab import gluing, verify
from minsurflab import outer as outer_module
from minsurflab.catenoid import PreconditionError
from minsurflab.gluing import (
    BoundaryTriple,
    GlueError,
    conglomerate_C,
    default_schedule,
    glue_end,
    model_C0,
    model_invert,
    prepare_glue,
    stack_tower,
    triple_norm,
)
from minsurflab.neck import RigidParams, mean_curvature_graph
from minsurflab.outer import seed_catenoid, solve_outer_nonlinear
from minsurflab.profile import profile_values
from minsurflab.spectral import SphereField, project_high
from radial_reference import outer_solve_afresh, u0_multipliers

N = 3
EPS = 1e-6
# the kappa and tol_piece that glue_end passes by default
GLUE = {"kappa": 16.0, "tol_piece": 5e-3}


@pytest.fixture(scope="module")
def ctx(spectrum, profile):
    surf = seed_catenoid(profile, spectrum, scale=1.0)
    return prepare_glue(surf, EPS, **GLUE)


def random_triple(ctx, rng, scale=0.3):
    spec = ctx.surface.spectrum
    sc = ctx.scales
    b = scale * sc.r_eps**2
    h_I = SphereField(spec, rng.normal(size=spec.L + 1))
    h_I = h_I * (b / h_I.holder_norm())
    h_II = SphereField.zonal_band(spec, 2, rng.normal()) + SphereField.zonal_band(spec, 5, rng.normal())
    h_II = h_II * (b / h_II.holder_norm())
    A = RigidParams(
        T=b * sc.r_eps ** (N - 1) / sc.eps * rng.normal() * 0.2,
        R=0.0,
        d=0.2 * b * rng.normal(),
        e=0.2 * b * sc.r_eps ** (N - 2) * rng.normal(),
    )
    return BoundaryTriple(h_I, A, h_II)


class TestSimpleMaps:
    def test_zero_triple_maps_to_zero(self, ctx, spectrum):
        t = BoundaryTriple.zeros(spectrum)
        out = model_C0(t, ctx)
        assert triple_norm(out) == 0.0

    def test_pure_vertical_shift_hits_middle_value_slot(self, ctx, spectrum):
        sc = ctx.scales
        d = 0.3 * sc.r_eps**2
        t = BoundaryTriple.zeros(spectrum)
        t.A = RigidParams(0.0, 0.0, d, 0.0)
        ring, val, slope = model_C0(t, ctx)
        assert ring.holder_norm() == 0.0
        assert val.c[0] == pytest.approx(d, rel=1e-14)
        assert project_high(val).holder_norm() == 0.0
        assert slope.holder_norm() == 0.0

    def test_block_decoupling_exact(self, ctx, spectrum):
        sc = ctx.scales
        b = sc.r_eps**2
        # h_I only -> first slot only
        t = BoundaryTriple.zeros(spectrum)
        t.h_I = SphereField.zonal_band(spectrum, 3, b)
        ring, val, slope = model_C0(t, ctx)
        assert ring.holder_norm() > 0
        assert val.holder_norm() <= 1e-10 * ring.holder_norm()
        assert slope.holder_norm() <= 1e-10 * ring.holder_norm()
        # rigid parameters only -> low-mode middle slots only
        t = BoundaryTriple.zeros(spectrum)
        t.A = RigidParams(0.0, 0.0, 0.2 * b, 0.1 * b * sc.r_eps ** (N - 2))
        ring, val, slope = model_C0(t, ctx)
        assert ring.holder_norm() == 0.0
        assert project_high(val).holder_norm() <= 1e-10 * val.holder_norm()
        # h_II only -> high-mode slots (value slot keeps h_II itself)
        t = BoundaryTriple.zeros(spectrum)
        t.h_II = SphereField.zonal_band(spectrum, 2, b)
        ring, val, slope = model_C0(t, ctx)
        assert ring.holder_norm() == 0.0
        assert np.abs(slope.c[:2]).sum() <= 1e-10 * np.abs(slope.c).sum()

    def test_round_trip_identity(self, ctx, rng):
        sc = ctx.scales
        for _ in range(4):
            t = random_triple(ctx, rng)
            rt = model_invert(model_C0(t, ctx), ctx)
            gap = (
                (rt.h_I - t.h_I).holder_norm()
                + (rt.h_II - t.h_II).holder_norm()
                + RigidParams(
                    rt.A.T - t.A.T, rt.A.R - t.A.R, rt.A.d - t.A.d, rt.A.e - t.A.e
                ).norm(sc)
            )
            assert gap <= 1e-10 * max(t.norm(sc), 1e-300)

    def test_u0_multipliers_match_the_per_band_loop(self, ctx):
        # one call on 1 in each band's first row against one call per band
        assert np.array_equal(ctx.u0_mult, u0_multipliers(ctx.site))

    def test_invert_reads_only_the_low_modes_of_the_value_slot(self, ctx, spectrum, rng):
        # high modes in the middle value slot lie outside the model's range
        # and leave the inverse unchanged, bit for bit
        ring, val, slope = model_C0(random_triple(ctx, rng), ctx)
        high = SphereField.zonal_band(spectrum, 2, 1.0) + SphereField.zonal_band(spectrum, 5, -2.0)
        noisy = val + high * (0.5 * ctx.scales.r_eps**2 / high.holder_norm())
        assert project_high(noisy).holder_norm() > 0.0
        plain = model_invert((ring, val, slope), ctx)
        t = model_invert((ring, noisy, slope), ctx)
        assert np.array_equal(t.h_I.c, plain.h_I.c)
        assert np.array_equal(t.h_II.c, plain.h_II.c)
        assert dataclasses.astuple(t.A) == dataclasses.astuple(plain.A)


class TestConglomerate:
    def test_components_assemble_from_piece_maps(self, ctx, spectrum):
        t = BoundaryTriple.zeros(spectrum)
        mismatch, cat, neck = conglomerate_C(t, ctx)
        val = neck.cauchy_inner[0] - cat.cauchy[0]
        assert np.allclose(val.c[2:], mismatch[1].c[2:], atol=1e-18)
        slope = neck.cauchy_inner[1] - cat.cauchy[1]
        assert np.allclose(slope.c[:2], mismatch[2].c[:2], atol=1e-18)

    def test_monotone_shrink_in_eps(self, spectrum, profile):
        norms = []
        for eps in (1e-5, 1e-6):
            surf = seed_catenoid(profile, spectrum, scale=1.0)
            c = prepare_glue(surf, eps, **GLUE)
            t = BoundaryTriple.zeros(spectrum)
            norms.append(triple_norm(conglomerate_C(t, c)[0]))
        assert norms[1] < norms[0]


class TestFixedPointGlue:
    def test_restart_and_return_with_a_mismatch_that_grows_once(self, ctx, spectrum,
                                                                monkeypatch):
        """A scripted conglomerate_C whose mismatch norms run 8, 4, 6, 2, 0.5
        units against a tolerance of 1 unit: the third evaluation grows, so
        the damped step restarts from the second (the best so far), and the
        fifth meets the tolerance and is the glue returned."""
        unit = 1e-3 * ctx.scales.r_eps**2
        ring = SphereField.zonal_band(spectrum, 2, 1.0)
        ring = ring * (unit / ring.holder_norm())
        zero = SphereField.zeros(spectrum)
        evaluations = []  # (triple, mismatch, catenoid token, neck token)

        def scripted_C(t, c):
            k = len(evaluations)
            mismatch = (ring * (8.0, 4.0, 6.0, 2.0, 0.5)[k], zero.copy(), zero.copy())
            evaluations.append((t, mismatch, f"cat{k}", f"neck{k}"))
            return mismatch, f"cat{k}", f"neck{k}"

        C0_at, inverted = [], []  # per step: the triple C0 takes, the rhs inverted

        def recording_C0(t, c):
            C0_at.append(t)
            return model_C0(t, c)

        def recording_invert(rhs, c):
            inverted.append(rhs)
            return model_invert(rhs, c)

        def capture(c, t, cat, neck, history):
            return t, cat, neck, history

        monkeypatch.setattr(gluing, "conglomerate_C", scripted_C)
        monkeypatch.setattr(gluing, "model_C0", recording_C0)
        monkeypatch.setattr(gluing, "model_invert", recording_invert)
        monkeypatch.setattr(gluing, "assemble_glued_surface", capture)
        t, cat, neck, history = gluing.fixed_point_glue(ctx, tol_match=1.0 * unit)

        assert len(evaluations) == 5 and len(C0_at) == len(inverted) == 4

        def matched_to(k, mismatch):
            # the k-th step inverts C0 at its triple minus this mismatch, slot by slot
            c_0 = model_C0(C0_at[k], ctx)
            return all(np.array_equal(r.c, (a - b).c)
                       for r, a, b in zip(inverted[k], c_0, mismatch))

        # the first two steps and the one after the restart continue from
        # the last evaluation; the restart continues from the best one
        for k in (0, 1, 3):
            assert C0_at[k] is evaluations[k][0] and matched_to(k, evaluations[k][1])
        assert C0_at[2] is evaluations[1][0] and matched_to(2, evaluations[1][1])
        # ... with the step damped to theta = 0.6
        best_t, best_mismatch = evaluations[1][0:2]
        c_0 = model_C0(best_t, ctx)
        step = model_invert(tuple(a - b for a, b in zip(c_0, best_mismatch)), ctx)
        restarted = best_t.combine(step, 1.0 - 0.6, 0.6)
        assert np.array_equal(evaluations[3][0].h_I.c, restarted.h_I.c)
        # the glue returned is the last evaluation's
        assert t is evaluations[-1][0] and (cat, neck) == ("cat4", "neck4")
        assert history[-1] == triple_norm(evaluations[-1][1]) == min(history)
        assert history == [triple_norm(e[1]) for e in evaluations]

    def test_step_just_outside_the_ball_stops_the_glue(self, ctx, spectrum, monkeypatch):
        """A step to |h_II| = kappa r_eps^2 (1 + 1e-7) lies outside the
        working ball that the pieces accept, so the glue stops it with its
        trajectory instead of handing it to the catenoid piece."""
        sc = ctx.scales
        h_II = SphereField.zonal_band(spectrum, 2, 1.0)
        h_II = h_II * (ctx.kappa * sc.r_eps**2 * (1 + 1e-7) / h_II.holder_norm())
        outside = BoundaryTriple(SphereField.zeros(spectrum), RigidParams.zeros(), h_II)
        monkeypatch.setattr(gluing, "model_invert", lambda rhs, c: outside)
        with pytest.raises(GlueError, match="escaped the working ball") as failed:
            gluing.fixed_point_glue(ctx, tol_match=None)
        assert "trajectory" in str(failed.value)


class TestGlue:
    def test_refuses_eps_above_certified(self, spectrum, profile):
        surf = seed_catenoid(profile, spectrum, scale=1.0)
        with pytest.raises(PreconditionError, match="certified"):
            glue_end(surf, 0.5)

    def test_single_glue_end_to_end(self, spectrum, profile):
        surf = seed_catenoid(profile, spectrum, scale=1.0)
        before = sorted(e.plane_height for e in surf.ends)
        glued = glue_end(surf, EPS)
        assert len(glued.outer.ends) == 3
        sc = glued.catenoid_piece.scales
        assert glued.mismatch_norm <= 1e-8 * sc.r_eps ** (2 - N)
        after = sorted(e.plane_height for e in glued.outer.ends)
        # old asymptotic planes unchanged
        assert abs(after[0] - before[0]) < 1e-8
        assert abs(after[1] - before[1]) < 1e-8
        assert after[2] > after[1]
        assert glued.certificates["embeddedness"]["embedded"]
        assert glued.certificates["new_end_tilt"] < 1e-6
        assert glued.triple.norm(sc) <= 16 * sc.r_eps**2

    def test_delta_reaches_the_nondegeneracy_check(self, spectrum, profile, monkeypatch):
        # glue_end checks its surface at the midpoint -(n+1)/2 of the
        # admissible window, before any solve runs
        class Reached(Exception):
            pass

        def capture(n, L, delta, m):
            raise Reached(n, L, delta, m)

        def stop(*args, **kwargs):
            raise AssertionError("prepare_glue reached")

        monkeypatch.setattr(outer_module, "_NONDEGENERACY", {})
        monkeypatch.setattr(outer_module, "_smallest_singular_value", capture)
        monkeypatch.setattr(gluing, "prepare_glue", stop)
        surf = seed_catenoid(profile, spectrum, scale=1.0)
        with pytest.raises(Reached) as reached:
            glue_end(surf, EPS)
        assert reached.value.args == (N, spectrum.L, -(N + 1) / 2, outer_module.NONDEGENERACY_NODES)


class TestTower:
    def test_schedule_below_bounds_and_summable(self):
        eps0 = 3.125e-4
        sched = default_schedule(3, eps0)
        for k, e in enumerate(sched):
            assert e < min(2.0 ** -(k + 1), eps0 ** (k + 1))
        assert sum(sched) <= 1.0

    def test_trivial_tower_is_seed(self, spectrum, profile):
        surf = seed_catenoid(profile, spectrum, scale=0.3)
        out, report = stack_tower(1, surf, None)
        assert out is surf
        assert len(report.plane_heights) == 2
        # no glued surface, so no curvature to report
        assert report.curvature_outside is None

    def test_failed_level_keeps_partial_report(self, spectrum, profile, monkeypatch):
        def fail(*args, **kwargs):
            raise PreconditionError("no admissible gluing site")

        monkeypatch.setattr(gluing, "glue_end", fail)
        surf = seed_catenoid(profile, spectrum, scale=0.3)
        with pytest.raises(GlueError, match="level 2") as failed:
            stack_tower(2, surf, None)
        report = failed.value.report
        assert report.levels == [{"aborted": "no admissible gluing site"}]
        assert len(report.plane_heights) == 2
        assert report.curvature_outside is None

    def test_schedule_violation_rejected(self, spectrum, profile):
        surf = seed_catenoid(profile, spectrum, scale=0.3)
        with pytest.raises(PreconditionError, match="bound"):
            stack_tower(3, surf, schedule=[1e-4, 1e-4])

    @pytest.mark.parametrize("schedule", [[], [1e-4, 0.9], [1e-4, 1e-9, 1e-12]])
    def test_schedule_of_the_wrong_length_rejected(self, spectrum, profile, monkeypatch,
                                                   schedule):
        # K=2 glues one level: an entry past the first would never be held
        # to its bound, so no level is glued at all
        def glued(*args, **kwargs):
            raise AssertionError("a level was glued")

        monkeypatch.setattr(gluing, "glue_end", glued)
        surf = seed_catenoid(profile, spectrum, scale=0.3)
        with pytest.raises(PreconditionError, match="schedule has .* a tower of K=2 glues"):
            stack_tower(2, surf, schedule=schedule)


def refuse_embeddedness(glued):
    return {"embedded": False, "min_separation": -1.0, "witness": [0.0, 0.0, 0.0]}


class TestGlueKeepsItsInput:
    def test_glue_context_is_frozen(self, ctx):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.kappa = 1.0

    def test_outer_solves_read_the_context_curvature(self, ctx, rng):
        """The exterior's mean curvature that the context keeps is a fresh
        computation's, bit for bit; an outer solve through it gives the bits
        of a solve that computes it itself, for two ring data; and no solve
        changes it."""
        assert np.array_equal(ctx.H_exterior, mean_curvature_graph(ctx.site.exterior))
        kept = ctx.H_exterior.copy()
        for scale in (0.3, 0.9):
            h_I = random_triple(ctx, rng, scale).h_I
            w = solve_outer_nonlinear(ctx.site, h_I, ctx.tol_piece, ctx.H_exterior)
            assert np.array_equal(w.values, outer_solve_afresh(ctx.site, h_I, ctx.tol_piece).values)
        assert np.array_equal(ctx.H_exterior, kept)

    def test_glue_records_are_frozen(self, ctx, spectrum, profile, glued_surface):
        outer = glued_surface.outer
        level = outer.glue_levels[0]
        _, report = stack_tower(1, seed_catenoid(profile, spectrum, scale=0.3), None)
        records = [outer, outer.ends[0], level, glued_surface, level.catenoid_piece,
                   level.neck_piece, ctx.green, report]
        for record in records:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, dataclasses.fields(record)[0].name, None)

    def test_a_glue_builds_a_new_surface(self, spectrum, profile):
        """Two glues from one context change neither the seed, nor the
        context's surface, nor each other's result: each result holds its
        own one level over the seed's own neck box."""
        seed = seed_catenoid(profile, spectrum, scale=1.0)
        box = seed.seed_box
        ctx = prepare_glue(seed, EPS, **GLUE)
        first = gluing.fixed_point_glue(ctx, None)
        fields = dict(vars(first.outer))
        level = first.outer.glue_levels[0]
        second = gluing.fixed_point_glue(ctx, None)
        assert seed.glue_levels == () and ctx.surface.glue_levels == ()
        assert len(first.outer.glue_levels) == len(second.outer.glue_levels) == 1
        assert all(vars(first.outer)[k] is v for k, v in fields.items())
        assert first.outer.glue_levels[0] is level is not second.outer.glue_levels[0]
        assert seed.seed_box is box and first.outer.neck_boxes[0] is box
        assert first.mismatch_norm == first.info["history"][-1]

    def test_nondegeneracy_check_runs_once_per_seed(self, spectrum, profile, glued_surface,
                                                    monkeypatch):
        """glue_end checks every surface, and the check is computed once per
        (n, L): a surface with a level reads the value of the seed it grew
        from."""
        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        # a cold check cache, and the bands each build of a band matrix is for
        monkeypatch.setattr(outer_module, "_NONDEGENERACY", {})
        builds = []
        build = outer_module._band_matrix_conjugated

        def spy(n, ell, s, delta):
            builds.append(ell)
            return build(n, ell, s, delta)

        monkeypatch.setattr(outer_module, "_band_matrix_conjugated", spy)
        monkeypatch.setattr(gluing, "prepare_glue", stop)
        bands = list(range(spectrum.L + 1))
        with pytest.raises(Stop):
            glue_end(seed_catenoid(profile, spectrum, scale=1.0), EPS)
        assert builds == bands
        assert len(glued_surface.outer.glue_levels) == 1
        with pytest.raises(Stop):
            glue_end(glued_surface.outer, EPS)
        assert builds == bands
        assert list(outer_module._NONDEGENERACY) == [(N, spectrum.L)]

    def test_refused_glue_leaves_the_seed(self, spectrum, profile, monkeypatch):
        monkeypatch.setattr(verify, "embeddedness", refuse_embeddedness)
        surf = seed_catenoid(profile, spectrum, scale=1.0)
        ends = list(surf.ends)
        with pytest.raises(GlueError, match="embeddedness failed"):
            glue_end(surf, EPS)
        assert len(surf.ends) == 2 and all(a is b for a, b in zip(surf.ends, ends))
        assert surf.glue_levels == () and surf.neck_boxes == []

    def test_refused_level_keeps_a_consistent_report(self, spectrum, profile, monkeypatch):
        monkeypatch.setattr(verify, "embeddedness", refuse_embeddedness)
        surf = seed_catenoid(profile, spectrum, scale=1.0)
        with pytest.raises(GlueError, match="level 2") as failed:
            stack_tower(2, surf, schedule=[EPS])
        report = failed.value.report
        # the refused level's plane is not in the report
        assert len(report.plane_heights) == 2
        assert report.plane_heights == sorted(e.plane_height for e in surf.ends)
        assert report.boxes == []
        assert len(surf.ends) == 2 and surf.glue_levels == ()


class TestSeedBox:
    @pytest.mark.parametrize("scale", [0.3, 3.0])
    def test_waist_from_the_closed_form(self, spectrum, profile, scale):
        # at scale 0.3 the waist phi_star is (sqrt(6)/0.3)^(1/3) = 2.01; at
        # 3.0 it is 0.93, so the 1.05 clamp applies
        surf = seed_catenoid(profile, spectrum, scale=scale)
        raw = (np.sqrt(N * (N - 1.0)) / scale) ** (1.0 / N)
        assert (raw > 1.05) == (scale == 0.3)
        phi_star = max(raw, 1.05)
        s_star = np.arccosh(phi_star ** (N - 1)) / (N - 1)
        phis, _, psis, _ = profile_values(N, np.array([s_star]))
        assert abs(phis[0] / phi_star - 1.0) <= 1e-12
        box = surf.seed_box
        assert box.z_range == (float(-1.2 * scale * psis[0]), float(1.2 * scale * psis[0]))
        assert box.halfwidth == float(1.3 * scale * phi_star)


GLUE_PATH_IMPORTS = """
import json, sys
from minsurflab.catenoid import build_catenoid_piece
from minsurflab.outer import _end_splines, seed_catenoid
from minsurflab.profile import compute_scales, solve_profile
from minsurflab.spectral import SphereField, band_spectrum

profile = solve_profile(3, 16.0, 8e-3)
spectrum = band_spectrum(3, 8)
_end_splines(3)
seed_catenoid(profile, spectrum, scale=1.0).seed_box
build_catenoid_piece(compute_scales(profile, 1e-6), SphereField.zeros(spectrum),
                     1.0, 5e-3)
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy."))))
"""


def test_glue_path_loads_no_interpolate_optimize_sparse_or_spatial():
    """The end splines, the seed box and a catenoid piece's oracle
    run in a fresh interpreter without scipy's interpolate, optimize,
    sparse or spatial packages (each costs memory and import time)."""
    src = str(Path(gluing.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", GLUE_PATH_IMPORTS],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    packages = {".".join(name.split(".")[:2]) for name in loaded}
    heavy = {"scipy.interpolate", "scipy.optimize", "scipy.sparse", "scipy.spatial"}
    assert sorted(packages & heavy) == []
