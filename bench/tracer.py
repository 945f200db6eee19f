"""Span tracer that times minsurflab's layers from outside.

The tracer replaces each listed layer function by a timing wrapper in every
``minsurflab`` module namespace bound to it (a function imported with
``from .profile import profile_values`` lives in several namespaces; a lazy
``from .verify import embeddedness`` inside a function reads the module
attribute at call time and so sees the wrapper too).  Methods are wrapped on
their class.  Spans (name, start, end, parent span, case id) are kept in
memory; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import defaultdict

PACKAGE = "minsurflab"

# (module, attribute path) of every wrapped layer function, by layer
LAYERS = {
    "profile": [
        ("profile", "integrate_profile"),
        ("profile", "profile_values"),
        ("profile", "solve_profile"),
        ("catenoid", "grid_profile"),
        ("outer", "_end_splines"),
    ],
    "cylinder": [
        ("cylinder", "norm_exp"),
        ("cylinder", "homogeneous_pair"),
        ("cylinder", "solve_band_dirichlet_robin"),
        ("cylinder", "solve_band_decaying_kernel"),
    ],
    "pieces": [
        ("catenoid", "solve_GS"),
        ("catenoid", "solve_PS"),
        ("radial", "solve_mixed"),
        ("neck", "solve_annulus_mixed"),
        ("neck", "green_function"),
        ("catenoid", "build_catenoid_piece"),
        ("neck", "build_neck_piece"),
    ],
    "spectral": [
        ("spectral", "ZonalGrid.d_beta"),
        ("spectral", "SphereField.holder_norm"),
    ],
    "geometry": [
        ("geometry", "OrbitSurface.fundamental_forms"),
        ("geometry", "OrbitSurface.mean_curvature"),
        ("geometry", "OrbitSurface.second_fundamental_sq"),
    ],
    "outer": [
        ("outer", "nondegeneracy_check"),
        ("outer", "assemble_outer"),
        ("outer", "solve_outer_nonlinear"),
        ("outer", "cauchy_U"),
    ],
    "gluing": [
        ("gluing", "prepare_glue"),
        ("gluing", "conglomerate_C"),
        ("gluing", "glue_end"),
        ("gluing", "stack_tower"),
    ],
    "verify": [
        ("verify", "embeddedness"),
        ("verify", "second_fund"),
        ("verify", "mc_residual"),
        ("verify", "chord_arc"),
        ("verify", "graphical_radius"),
        ("verify", "delta_stability"),
        ("verify", "separation_check"),
    ],
}

TARGETS = [f"{mod}.{attr}" for group in LAYERS.values() for mod, attr in group]

# fixed-point solves whose iteration counts are read from their results
ITERATION_COUNTS = (
    "catenoid.build_catenoid_piece",
    "neck.build_neck_piece",
    "outer.solve_outer_nonlinear",
)


class Tracer:
    """Timing wrappers around layer functions, with spans kept in memory."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = list(targets)
        self.clock = clock
        self.spans = []  # [id, name, start, end, parent id, case id]
        self.case = None
        self._stack = []
        self._patched = []  # (namespace object, attribute, original)
        self._probes = {
            "profile.integrate_profile": self._probe_span,
            "cylinder.homogeneous_pair": self._probe_homogeneous,
            "catenoid.build_catenoid_piece": self._probe_piece("catenoid.build_catenoid_piece"),
            "neck.build_neck_piece": self._probe_piece("neck.build_neck_piece"),
            "outer.solve_outer_nonlinear": self._probe_outer,
            "gluing.glue_end": self._probe_glue,
        }
        self.counters = defaultdict(float)
        self.glue_histories = []
        self._pair_keys = set()

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every target that exists; a target a later version of the
        program no longer has reports zero calls."""
        for target in self.targets:
            mod_name, _, attr_path = target.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner_name, _, attr = attr_path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, "__dict__", {}).get(attr)
            if not callable(original):
                continue
            if owner_name:
                self._set(owner, attr, original, self._wrap(target, original))
                continue
            wrapper = self._wrap(target, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper)
        return self

    def _set(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every original back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        probe = self._probes.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            record = [sid, name, 0.0, 0.0, stack[-1] if stack else None, self.case]
            spans.append(record)
            stack.append(sid)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return wrapper

    # -- probes: work and waste counts read at the layer boundary ---------------

    def _probe_span(self, args, kwargs, result):
        s_nodes = args[1] if len(args) > 1 else kwargs["s_nodes"]
        self.counters["profile.integrate_profile.span"] += float(s_nodes[-1])

    def _probe_homogeneous(self, args, kwargs, result):
        vpot, h, gamma = args[:3]
        digest = hashlib.blake2b(vpot.tobytes(), digest_size=16).hexdigest()
        self._pair_keys.add((digest, float(h), float(gamma)))

    # the probes read results with defaults: a measurement must never raise
    # into the program it measures

    def _probe_piece(self, name):
        def probe(args, kwargs, result):
            self.counters[f"{name}.iterations"] += getattr(result, "iterations", 0)

        return probe

    def _probe_outer(self, args, kwargs, result):
        site = getattr(result, "site", {})
        self.counters["outer.solve_outer_nonlinear.iterations"] += site.get("outer_iterations", 0)

    def _probe_glue(self, args, kwargs, result):
        self.glue_histories.append(list(getattr(result, "info", {}).get("history", [])))

    # -- summaries --------------------------------------------------------------

    def self_times(self) -> dict:
        """Per-name (calls, total span seconds, self seconds).

        A span's self time is its duration minus the durations of its direct
        child spans; spans are strictly nested, so children never overlap.
        """
        child = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, name, start, end, _, _ in self.spans:
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child[sid])
        return out

    def covered_seconds(self) -> float:
        """Summed duration of the root spans (the time inside any layer)."""
        return sum(end - start for _, _, start, end, parent, _ in self.spans if parent is None)

    def layer_metrics(self, passes: int = 1) -> dict:
        """Per-pass calls and self seconds of every target, plus work counts."""
        stats = self.self_times()
        out = {}
        for name in self.targets:
            calls, _, own = stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.self_s"] = own / passes
        out["profile.integrate_profile.span"] = (
            self.counters["profile.integrate_profile.span"] / passes
        )
        # a grid_profile call missed its cache when it had to integrate
        names = {sid: name for sid, name, *_ in self.spans}
        misses = {parent for _, name, _, _, parent, _ in self.spans
                  if name == "profile.profile_values" and parent is not None
                  and names[parent] == "catenoid.grid_profile"}
        out["catenoid.grid_profile.miss_frac"] = _ratio(
            len(misses), stats.get("catenoid.grid_profile", (0,))[0]
        )
        out["cylinder.homogeneous_pair.distinct_frac"] = _ratio(
            len(self._pair_keys), stats.get("cylinder.homogeneous_pair", (0,))[0]
        )
        for name in ITERATION_COUNTS:
            out[f"{name}.iterations"] = self.counters[f"{name}.iterations"] / passes
        useful = attempts = 0
        for history in self.glue_histories:
            best = float("inf")
            for value in history:
                attempts += 1
                if value < best:
                    useful += 1
                    best = value
        out["gluing.glue_end.useful_frac"] = _ratio(useful, attempts)
        return out


def wrapper_cost(samples: int = 20000) -> float:
    """Seconds one tracing wrapper adds to a call, measured on a no-op.

    Multiplied by the number of wrapped calls this gives the tracing
    overhead of a traced pass.
    """
    def noop():
        return None

    wrapped = Tracer([])._wrap("noop", noop)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)


def _ratio(num, den) -> float:
    return num / den if den else 0.0
