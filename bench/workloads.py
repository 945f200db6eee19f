"""The benchmark's three workloads and the checks on their outputs.

Every workload runs single-process and closed-loop: one caller starts each
glue or oracle call after the previous one returns.

- ``glue_sweep``: independent ``glue_end`` calls, each on a fresh
  ``seed_catenoid(scale=1.0)``, over (n, eps) points in n = 4, 5, one of
  which must refuse with ``PreconditionError``.
- ``tower``: ``stack_tower(4, seed_catenoid(scale=0.3))`` with the default
  schedule.
- ``verify``: the oracle suite on the n=3, eps=1e-6 glue built in set-up.

An operation is one glue, one tower level or one oracle call.  Its outcome
is wrong on an unexpected exception, a refusal where a glue was expected or
a glue where a refusal was expected, a failed invariant (embeddedness and
the other certificates), or, for the default seed, an output that differs
from ``reference.json`` by more than ``REL_TOL`` relative.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from minsurflab import catenoid, gluing, neck, outer, profile, spectral, verify
from minsurflab.catenoid import PreconditionError
from minsurflab.geometry import graph_orbit_points, uniform_surface

REFERENCE = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0
# any other seed scales every eps by one factor drawn from (1 - EPS_SPREAD, 1]
EPS_SPREAD = 1e-3
REL_TOL = 1e-12  # allowed relative drift against the stored reference

L_CUT = 8
S_MAX = 16.0
S_STEP = 8e-3
TOL_SOLVER = 5e-3
MC_REL_BOUND = 2 * TOL_SOLVER  # the A6 oracle bound on sup|H| relative

# The n=3, eps=1e-6 glue is left out: it is the verify workload's set-up, so
# setup_s there measures it, and the sweep fits the benchmark's time budget.
GLUE_POINTS = (  # (n, eps, expected outcome, eps scaled by the seed)
    (4, 1e-6, "ok", True),
    (4, 1e-9, "ok", True),
    # not scaled: the n=5 neck fixed point fails to contract (ContractionError)
    # for eps in a window just below 1e-10, e.g. eps = 0.99975e-10; a known
    # defect of the program, not of this workload's inputs
    (5, 1e-10, "ok", False),
    (5, 1e-6, "refused", True),
)
TOWER_K = 4
TOWER_SCALE = 0.3
VERIFY_GLUE = (3, 1e-6)


def eps_factor(seed: int) -> float:
    """1 for the default seed, else a seed-derived factor just below 1.

    The factor only shrinks eps, so every precondition holds as before: the
    tower schedule stays under its bound and the n=5, eps=1e-6 point still
    leaves no room above r_eps.
    """
    if seed == DEFAULT_SEED:
        return 1.0
    return 1.0 - EPS_SPREAD * float(np.random.default_rng(seed).random())


def module_state() -> list:
    """(module, name, contents) of every module-level dict of the package.

    The module caches are among them.  Restoring the contents saved right
    after import gives each set-up the cold caches of a fresh process, and
    restoring those saved after set-up starts each pass alike, whatever the
    caches are called.
    """
    return [(mod, attr, dict(value))
            for name, mod in sorted(sys.modules.items())
            if name == "minsurflab" or name.startswith("minsurflab.")
            for attr, value in vars(mod).items()
            if type(value) is dict and not attr.startswith("__")]


def restore_state(saved: list):
    for mod, attr, contents in saved:
        current = getattr(mod, attr, None)
        if isinstance(current, dict):
            current.clear()
            current.update(contents)


def _base(ns) -> dict:
    return {
        n: (spectral.band_spectrum(n, L_CUT), profile.solve_profile(n, S_MAX, S_STEP))
        for n in ns
    }


class Recorder:
    """Runs operations and keeps one record per operation."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.records = []

    def attempt(self, op, fn, expect="ok", seed_free=False):
        """Run ``fn() -> (values, checks)``; a raised error becomes data."""
        if self.tracer is not None:
            self.tracer.case = op
        record = {"op": op, "expect": expect, "seed_free": seed_free,
                  "values": {}, "checks": {}, "error": None}
        try:
            record["values"], record["checks"] = fn()
            record["status"] = "ok"
        except PreconditionError as exc:
            record["status"] = "refused"
            record["error"] = str(exc)
        except Exception as exc:  # the workload goes on; the record counts as wrong
            record["status"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
        self.records.append(record)
        return record


def _glue_values(glued) -> dict:
    r_eps = glued.catenoid_piece.scales.r_eps
    cert = glued.certificates["embeddedness"]
    return {
        "history": [float(v) for v in glued.info["history"]],
        "mismatch": float(glued.mismatch_norm),
        "mismatch_r2": float(glued.mismatch_norm / r_eps**2),
        "plane_heights": sorted(float(e.plane_height) for e in glued.outer.ends),
        "new_end_tilt": float(glued.certificates["new_end_tilt"]),
        "min_separation": float(cert["min_separation"]),
        "embedded": bool(cert["embedded"]),
    }


def _glue_checks(values: dict) -> dict:
    return {
        "embedded": values["embedded"],
        "best_of_history": values["mismatch"] == min(values["history"]),
        "finite": all(math.isfinite(v) for v in values["history"]),
    }


def _mc_residual_op(rec, op, surface):
    def run():
        res = verify.mc_residual(surface)
        return {"max_rel": float(res["max_rel"])}, {"bound": res["max_rel"] <= MC_REL_BOUND}

    return rec.attempt(op, run)


class GlueSweep:
    name = "glue_sweep"

    def __init__(self, seed: int):
        f = eps_factor(seed)
        # (op name, n, scaled eps, expected outcome)
        self.points = [(f"glue n={n} eps={eps:g}", n, eps * f if scaled else eps, expect)
                       for n, eps, expect, scaled in GLUE_POINTS]

    def setup(self) -> dict:
        state = {"base": _base(sorted({n for _, n, _, _ in self.points}))}
        state["inputs"] = self.fresh(state)
        return state

    def fresh(self, state) -> list:
        base = state["base"]
        return [outer.seed_catenoid(base[n][1], base[n][0], scale=1.0)
                for _, n, _, _ in self.points]

    def run(self, state, rec: Recorder):
        state["glued"] = []
        for (op, _, eps, expect), surface in zip(self.points, state["inputs"]):
            def glue(surface=surface, eps=eps):
                glued = gluing.glue_end(surface, eps)
                state["glued"].append((op, glued))
                values = _glue_values(glued)
                return values, _glue_checks(values)

            rec.attempt(op, glue, expect=expect)

    def finish(self, state, records: list, rec: Recorder) -> dict:
        r2 = [r["values"]["mismatch_r2"] for r in records if r["status"] == "ok"]
        rels = []
        for op, glued in state["glued"]:
            record = _mc_residual_op(rec, f"mc_residual {op}", glued)
            rels.append(record["values"].get("max_rel", math.nan))
        return {"mismatch_r2_max": max(r2, default=math.nan),
                "mc_residual_rel": max(rels, default=math.nan)}


class Tower:
    name = "tower"

    def __init__(self, seed: int):
        f = eps_factor(seed)
        eps0 = catenoid.recorded_eps0(16.0)
        self.schedule = [e * f for e in gluing.default_schedule(TOWER_K - 1, eps0)]

    def setup(self) -> dict:
        state = {"base": _base([3])}
        state["inputs"] = self.fresh(state)
        return state

    def fresh(self, state):
        spec, prof = state["base"][3]
        return outer.seed_catenoid(prof, spec, scale=TOWER_SCALE)

    def run(self, state, rec: Recorder):
        prof = state["base"][3][1]
        levels = list(range(2, TOWER_K + 1))
        state["glued"] = None
        # the report keeps no per-level matching history: record each glue
        per_level = []
        glue_end = gluing.glue_end

        def recording_glue_end(*args, **kwargs):
            glued = glue_end(*args, **kwargs)
            per_level.append([float(v) for v in glued.info["history"]])
            return glued

        gluing.glue_end = recording_glue_end
        try:
            if rec.tracer is not None:
                rec.tracer.case = "tower"
            glued, report = gluing.stack_tower(TOWER_K, state["inputs"], schedule=self.schedule)
        except Exception as exc:  # every level of a failed tower counts as wrong
            for k in levels:
                rec.attempt(f"tower level {k}", _raise(exc))
            return
        finally:
            gluing.glue_end = glue_end
        state["glued"] = glued
        heights = [float(h) for h in report.plane_heights]
        for k, level in zip(levels, report.levels):
            def values(level=level, k=k):
                r_eps = profile.compute_scales(prof, level["eps"]).r_eps
                cert = report.certificates[k - 2]
                vals = {
                    "eps": float(level["eps"]),
                    "history": per_level[k - 2],
                    "mismatch": float(level["mismatch"]),
                    "mismatch_r2": float(level["mismatch"] / r_eps**2),
                    "triple_norm": float(level["triple_norm"]),
                    "min_separation": float(cert["min_separation"]),
                    "embedded": bool(cert["embedded"]),
                }
                checks = {"embedded": vals["embedded"]}
                if k == TOWER_K:  # the report of the whole tower, as in A7
                    eps_sum = sum(lv["eps"] for lv in report.levels)
                    vals.update({
                        "plane_heights": heights,
                        "separations": [float(s) for s in report.separations],
                        "curvature_outside_boxes": float(report.curvature_outside),
                        "new_end_tilt": float(glued.certificates["new_end_tilt"]),
                    })
                    checks.update({
                        "planes": len(heights) == TOWER_K + 1 and bool(np.all(np.diff(heights) > 0)),
                        "slab": heights[-1] - heights[0] <= 1.0 + eps_sum,
                        "decay": all(r < 0.25 for r in report.improperness_ratios),
                        "curvature": report.curvature_outside < 1.0,
                    })
                return vals, checks

            rec.attempt(f"tower level {k}", values)

    def finish(self, state, records: list, rec: Recorder) -> dict:
        r2 = [r["values"]["mismatch_r2"] for r in records if r["status"] == "ok"]
        rel = math.nan
        if state["glued"] is not None:
            record = _mc_residual_op(rec, "mc_residual tower", state["glued"])
            rel = record["values"].get("max_rel", math.nan)
        return {"mismatch_r2_max": max(r2, default=math.nan), "mc_residual_rel": rel}


class Verify:
    name = "verify"

    def __init__(self, seed: int):
        n, eps = VERIFY_GLUE
        self.n = n
        self.eps = eps * eps_factor(seed)

    def setup(self) -> dict:
        state = {"base": _base([self.n])}
        spec, prof = state["base"][self.n]
        state["inputs"] = outer.seed_catenoid(prof, spec, scale=1.0)
        return state

    def setup_glue(self, state):
        """The glue the oracles check; part of set-up, not of the timed pass."""
        state["glued"] = gluing.glue_end(state["inputs"], self.eps)

    def fresh(self, state):
        return state["inputs"]

    def run(self, state, rec: Recorder):
        n = self.n
        spec = state["base"][n][0]
        glued = state["glued"]
        sqrt_a = float(np.sqrt(n * (n - 1.0)))

        def mc():
            res = verify.mc_residual(glued)
            return {"max_rel": float(res["max_rel"])}, {"bound": res["max_rel"] <= MC_REL_BOUND}

        def fund():
            res = verify.second_fund(glued)
            return ({"outside_sup": float(res["outside_sup"]),
                     "box_sup": [float(b["sup_A"]) for b in res["boxes"]]},
                    {"finite": math.isfinite(res["outside_sup"])})

        def embedded():
            cert = verify.embeddedness(glued)
            return ({"min_separation": float(cert["min_separation"]),
                     "embedded": bool(cert["embedded"])},
                    {"embedded": bool(cert["embedded"])})

        rec.attempt("mc_residual", mc)
        rec.attempt("second_fund", fund)
        rec.attempt("embeddedness", embedded)

        graphs = {}

        def plane_graph():
            if "plane" not in graphs:
                g = verify.plane_sample_graph(n, extent=10.0)
                graphs["plane"] = (g, int(np.argmin(np.linalg.norm(g.points, axis=1))))
            return graphs["plane"]

        def catenoid_graph():
            if "catenoid" not in graphs:
                g = verify.catenoid_sample_graph(n, scale=1.0, s_window=3.0)
                start = np.array([1.0] + [0.0] * n)
                graphs["catenoid"] = (g, int(np.argmin(np.linalg.norm(g.points - start, axis=1))))
            return graphs["catenoid"]

        def chord(graph_fn, R):
            def run():
                g, x = graph_fn()
                rep = verify.chord_arc(g, x, R)
                return ({"c_fit": float(rep["c_fit"]), "rho": float(rep["rho"])},
                        {"positive": rep["rho"] > 0})

            return run

        for R in (2.0, 4.0, 6.0):
            rec.attempt(f"chord_arc plane R={R:g}", chord(plane_graph, R), seed_free=True)
        for R in (2.0, 4.0, 8.0):
            rec.attempt(f"chord_arc catenoid R={R:g}", chord(catenoid_graph, R), seed_free=True)

        def radius():
            g, x = catenoid_graph()
            rep = verify.graphical_radius(g, x, C_A=sqrt_a)
            return ({"R_graph": float(rep["R_graph"]), "delta_c": float(rep["delta_c"])},
                    {"lemma": 0.0 < rep["R_times_CA"] <= 2.6})

        rec.attempt("graphical_radius catenoid", radius, seed_free=True)

        # the A8 constructions on the glued sheets
        g = neck.angular_grid(spec)
        cat = glued.catenoid_piece
        sc = cat.scales
        site = glued.info["site"]
        ring_h = glued.info["ring_height"]
        V = glued.neck_piece.V

        def thin():
            radii = np.linspace(6 * sc.r_eps, 24 * sc.r_eps, 70)
            lower = V.grid.interp_matrix(radii) @ V.values[0]
            P = graph_orbit_points(radii, g, lower[:, None] * np.ones((1, g.t.size)))
            A2 = uniform_surface(P, g, radii[1] - radii[0], order=2).second_fundamental_sq(n)
            rep = verify.delta_stability(P, A2, n, 0.4, domain_id="inter-sheet")
            return {"min_quotient": float(rep.min_quotient)}, {"stable": bool(rep.stable)}

        def truncated():
            s = np.linspace(-4.0, 4.0, 120)
            phi, _, psi, _ = profile.profile_values(n, s)
            F = phi[:, None] * np.ones((1, g.t.size))
            P = np.stack([F * g.t[None, :], F * g.sinb[None, :],
                          psi[:, None] * np.ones((1, g.t.size))])
            A2 = (n * (n - 1.0) * phi ** (-2 * n))[:, None] * np.ones((1, g.t.size))
            rep = verify.delta_stability(P, A2, n, 0.0, domain_id="catenoid")
            return {"min_quotient": float(rep.min_quotient)}, {"unstable": not rep.stable}

        rec.attempt("delta_stability inter-sheet", thin)
        rec.attempt("delta_stability catenoid", truncated, seed_free=True)

        def planes():
            m = 60
            r = np.linspace(0.5, 2.0, m)
            P = graph_orbit_points(r, g, np.zeros((m, g.t.size)))
            rep = verify.separation_check(
                P, np.full((m, g.t.size), 0.2), np.zeros((m, g.t.size)), n
            )
            return {"defect_sup": float(rep["defect_sup"])}, {"exact": rep["defect_sup"] == 0.0}

        rec.attempt("separation_check planes", planes, seed_free=True)
        sweep = []

        def sheets(lo):
            def run():
                radii = np.linspace(lo * sc.r_eps, 2 * lo * sc.r_eps, 60)
                upper = ring_h + verify._upper_branch_height(n, sc, radii)
                lower = site["height"] + V.grid.interp_matrix(radii) @ V.values[0]
                u = (upper - lower)[:, None] * np.ones((1, g.t.size))
                heights = (lower - site["height"])[:, None] * np.ones((1, g.t.size))
                P = graph_orbit_points(radii, g, heights)
                A2 = uniform_surface(P, g, radii[1] - radii[0], order=2).second_fundamental_sq(n)
                rep = verify.separation_check(P, u, A2, n)
                sweep.append((rep["defect_sup"], rep["max_q"]))
                checks = {"precondition": bool(rep["precondition_ok"])}
                if len(sweep) == 2:  # closer sheets, smaller defect and q
                    checks["sweep"] = sweep[1][0] < sweep[0][0] and sweep[1][1] < sweep[0][1]
                return {"defect_sup": float(rep["defect_sup"]), "max_q": float(rep["max_q"])}, checks

            return run

        for lo in (6.0, 12.0):
            rec.attempt(f"separation_check sheets lo={lo:g}", sheets(lo))

    def finish(self, state, records: list, rec: Recorder) -> dict:
        glued = state["glued"]
        r_eps = glued.catenoid_piece.scales.r_eps
        rels = [r["values"]["max_rel"] for r in records
                if r["op"] == "mc_residual" and r["status"] == "ok"]
        return {"mismatch_r2_max": float(glued.mismatch_norm / r_eps**2),
                "mc_residual_rel": max(rels, default=math.nan)}


def _raise(exc):
    def run():
        raise exc

    return run


WORKLOADS = {w.name: w for w in (GlueSweep, Tower, Verify)}


# -- checking -------------------------------------------------------------------------


def drift(value, ref) -> float:
    """Largest relative difference between two output trees (inf on a shape
    or type mismatch)."""
    if isinstance(ref, dict):
        if not isinstance(value, dict) or value.keys() != ref.keys():
            return math.inf
        return max((drift(value[k], ref[k]) for k in ref), default=0.0)
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return math.inf
        return max((drift(v, r) for v, r in zip(value, ref)), default=0.0)
    if isinstance(ref, (bool, str)) or isinstance(value, (bool, str)):
        return 0.0 if value == ref else math.inf
    if value == ref:
        return 0.0
    scale = max(abs(value), abs(ref))
    return abs(value - ref) / scale if scale > 0 else math.inf


def load_reference(workload: str) -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


def judge(records: list, reference: dict, seed: int) -> tuple[int, float, list]:
    """Count wrong outcomes; returns (failed, max drift, reasons)."""
    failed = 0
    worst = 0.0
    reasons = []
    for record in records:
        why = []
        if record["status"] != record["expect"]:
            why.append(f"status {record['status']} where {record['expect']} expected"
                       + (f" ({record['error']})" if record["error"] else ""))
        why += [f"check {name} failed" for name, ok in record["checks"].items() if not ok]
        if record["status"] == "ok" and (seed == DEFAULT_SEED or record["seed_free"]):
            if record["op"] not in reference:
                why.append("no stored reference")
            else:
                d = drift(record["values"], reference[record["op"]])
                worst = max(worst, d)
                if d > REL_TOL:
                    why.append(f"drift {d:.3e} above {REL_TOL:.0e}")
        if why:
            failed += 1
            reasons.append(f"{record['op']}: " + "; ".join(why))
    return failed, worst, reasons
