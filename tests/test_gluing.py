import numpy as np
import pytest

from minsurflab import gluing, verify
from minsurflab.catenoid import PreconditionError, default_delta
from minsurflab.gluing import (
    BoundaryTriple,
    GlueError,
    SimpleMaps,
    conglomerate_C,
    default_schedule,
    glue_end,
    prepare_glue,
    stack_tower,
    triple_norm,
)
from minsurflab.neck import RigidParams
from minsurflab.outer import seed_catenoid
from minsurflab.spectral import SphereField, project_high, project_low
from radial_reference import u0_multipliers

N = 3
EPS = 1e-6
# the kappa, tol_piece and delta that glue_end passes by default
GLUE = {"kappa": 16.0, "tol_piece": 5e-3, "delta": default_delta(N)}


@pytest.fixture(scope="module")
def ctx(spectrum, profile):
    surf = seed_catenoid(profile, spectrum, scale=1.0)
    return prepare_glue(surf, EPS, **GLUE)


@pytest.fixture(scope="module")
def maps(ctx):
    return SimpleMaps(ctx)


def random_triple(ctx, rng, scale=0.3):
    spec = ctx.surface.spectrum
    sc = ctx.scales
    b = scale * sc.r_eps**2
    h_I = SphereField(spec, rng.normal(size=N + 1), rng.normal(size=spec.L - 1))
    h_I = h_I * (b / h_I.holder_norm())
    h_II = SphereField.zonal_band(spec, 2, rng.normal()) + SphereField.zonal_band(spec, 5, rng.normal())
    h_II = h_II * (b / h_II.holder_norm())
    A = RigidParams(
        T=b * sc.r_eps ** (N - 1) / sc.eps * rng.normal(size=N) * 0.2,
        R=np.zeros(N),
        d=0.2 * b * rng.normal(),
        e=0.2 * b * sc.r_eps ** (N - 2) * rng.normal(),
    )
    return BoundaryTriple(h_I, A, h_II)


class TestSimpleMaps:
    def test_zero_triple_maps_to_zero(self, spectrum, maps):
        t = BoundaryTriple.zeros(spectrum)
        out = maps.C0(t)
        assert triple_norm(out) == 0.0

    def test_pure_vertical_shift_hits_middle_value_slot(self, ctx, spectrum, maps):
        sc = ctx.scales
        d = 0.3 * sc.r_eps**2
        t = BoundaryTriple.zeros(spectrum)
        t.A = RigidParams(np.zeros(N), np.zeros(N), d, 0.0)
        ring, val, slope = maps.C0(t)
        assert ring.holder_norm() == 0.0
        assert val.low[0] == pytest.approx(d, rel=1e-14)
        assert project_high(val).holder_norm() == 0.0
        assert slope.holder_norm() == 0.0

    def test_block_decoupling_exact(self, ctx, spectrum, maps):
        sc = ctx.scales
        b = sc.r_eps**2
        # h_I only -> first slot only
        t = BoundaryTriple.zeros(spectrum)
        t.h_I = SphereField.zonal_band(spectrum, 3, b)
        ring, val, slope = maps.C0(t)
        assert ring.holder_norm() > 0
        assert val.holder_norm() <= 1e-10 * ring.holder_norm()
        assert slope.holder_norm() <= 1e-10 * ring.holder_norm()
        # rigid parameters only -> low-mode middle slots only
        t = BoundaryTriple.zeros(spectrum)
        t.A = RigidParams(np.zeros(N), np.zeros(N), 0.2 * b, 0.1 * b * sc.r_eps ** (N - 2))
        ring, val, slope = maps.C0(t)
        assert ring.holder_norm() == 0.0
        assert project_high(val).holder_norm() <= 1e-10 * val.holder_norm()
        # h_II only -> high-mode slots (value slot keeps h_II itself)
        t = BoundaryTriple.zeros(spectrum)
        t.h_II = SphereField.zonal_band(spectrum, 2, b)
        ring, val, slope = maps.C0(t)
        assert ring.holder_norm() == 0.0
        assert project_low(slope).holder_norm() <= 1e-10 * slope.holder_norm()

    def test_round_trip_identity(self, ctx, maps, rng):
        sc = ctx.scales
        for _ in range(4):
            t = random_triple(ctx, rng)
            rt = maps.invert(maps.C0(t))
            gap = (
                (rt.h_I - t.h_I).holder_norm()
                + (rt.h_II - t.h_II).holder_norm()
                + RigidParams(
                    rt.A.T - t.A.T, rt.A.R - t.A.R, rt.A.d - t.A.d, rt.A.e - t.A.e
                ).norm(sc)
            )
            assert gap <= 1e-10 * max(t.norm(sc), 1e-300)

    def test_u0_multipliers_match_the_per_band_loop(self, ctx, maps):
        # one call on 1 in each band's first row against one call per band
        assert np.array_equal(maps.u0_mult, u0_multipliers(ctx.site))

    def test_invert_rejects_out_of_range(self, ctx, spectrum, maps):
        sc = ctx.scales
        bad_val = SphereField.zonal_band(spectrum, 2, sc.r_eps**2)
        rhs = (SphereField.zeros(spectrum), bad_val, SphereField.zeros(spectrum))
        with pytest.raises(PreconditionError, match="range"):
            maps.invert(rhs)


class TestConglomerate:
    def test_components_assemble_from_piece_maps(self, ctx, spectrum):
        t = BoundaryTriple.zeros(spectrum, pole=ctx.site.pole)
        mismatch, pieces = conglomerate_C(t, ctx)
        cat = pieces["catenoid"]
        neck = pieces["neck"]
        val = neck.cauchy_inner[0] - cat.cauchy[0]
        assert np.allclose(val.zonal, mismatch[1].zonal, atol=1e-18)
        slope = neck.cauchy_inner[1] - cat.cauchy[1]
        assert np.allclose(slope.low, mismatch[2].low, atol=1e-18)

    def test_monotone_shrink_in_eps(self, spectrum, profile):
        norms = []
        for eps in (1e-5, 1e-6):
            surf = seed_catenoid(profile, spectrum, scale=1.0)
            c = prepare_glue(surf, eps, **GLUE)
            t = BoundaryTriple.zeros(spectrum, pole=c.site.pole)
            norms.append(triple_norm(conglomerate_C(t, c)[0]))
        assert norms[1] < norms[0]


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

    def test_delta_reaches_the_glue_context(self, spectrum, profile, monkeypatch):
        class Reached(Exception):
            pass

        def capture(ctx, **kwargs):
            raise Reached(ctx.delta)

        monkeypatch.setattr(gluing, "fixed_point_glue", capture)
        surf = seed_catenoid(profile, spectrum, scale=1.0)
        with pytest.raises(Reached) as reached:
            glue_end(surf, EPS, delta=-1.9)
        assert reached.value.args == (-1.9,)


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

    def test_schedule_violation_rejected(self, spectrum, profile):
        surf = seed_catenoid(profile, spectrum, scale=0.3)
        with pytest.raises(PreconditionError, match="bound"):
            stack_tower(3, surf, schedule=[1e-4, 1e-4])


def refuse_embeddedness(glued):
    return {"embedded": False, "min_separation": -1.0, "witness": [0.0, 0.0, 0.0]}


class TestGlueKeepsItsInput:
    def test_nondegeneracy_check_runs_once_per_seed(self, spectrum, profile, glued_surface,
                                                    monkeypatch):
        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        checked = []
        monkeypatch.setattr(gluing, "nondegeneracy_check",
                            lambda surface, *args, **kwargs: checked.append(surface))
        monkeypatch.setattr(gluing, "prepare_glue", stop)
        with pytest.raises(Stop):
            glue_end(seed_catenoid(profile, spectrum, scale=1.0), EPS)
        assert len(checked) == 1
        # a surface with a level was checked as the seed it grew from
        assert len(glued_surface.outer.glue_levels) == 1
        with pytest.raises(Stop):
            glue_end(glued_surface.outer, EPS)
        assert len(checked) == 1

    def test_refused_glue_leaves_the_seed(self, spectrum, profile, monkeypatch):
        monkeypatch.setattr(verify, "embeddedness", refuse_embeddedness)
        surf = seed_catenoid(profile, spectrum, scale=1.0)
        ends = list(surf.ends)
        with pytest.raises(GlueError, match="embeddedness failed"):
            glue_end(surf, EPS)
        assert len(surf.ends) == 2 and all(a is b for a, b in zip(surf.ends, ends))
        assert surf.glue_levels == [] and surf.neck_boxes == []

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
        assert len(surf.ends) == 2 and surf.glue_levels == []
