"""Configuration-driven entry points and report/export plumbing.

Every run is deterministic given its config: reports are JSON with
sorted keys, charts are CSV with full-precision floats, and each run
writes a manifest listing the inputs and the recorded constants.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .catenoid import admissible_delta, default_delta
from .verify import DELTA1

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CERTIFICATE = 4


class ConfigError(ValueError):
    pass


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass
class RunConfig:
    """Validated run parameters; every weight sits in its admissible window."""

    n: int = 3
    eps: float = 1e-6
    eps_schedule: list | None = None
    K: int = 4
    L: int = 8
    s_max: float = 16.0
    s_step: float = 8e-3
    tol_solver: float = 5e-3
    tol_match: float | None = None
    tol_verify: float = 1e-2
    kappa: float = 16.0
    delta: float | None = None
    seed_scale: float = 0.3
    out_dir: str = "out"

    def validate(self) -> "RunConfig":
        for name in ("n", "K", "L"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name}={getattr(self, name)!r} must be an integer")
        for name in ("eps", "s_max", "s_step", "tol_solver", "tol_verify", "kappa", "seed_scale"):
            if not _is_number(getattr(self, name)):
                raise ConfigError(f"{name}={getattr(self, name)!r} must be a number")
        for name in ("tol_match", "delta"):
            value = getattr(self, name)
            if value is not None and not _is_number(value):
                raise ConfigError(f"{name}={value!r} must be a number or null")
        schedule = self.eps_schedule
        if schedule is not None and not (
            isinstance(schedule, list) and all(_is_number(e) for e in schedule)
        ):
            raise ConfigError(f"eps_schedule={schedule!r} must be null or a list of numbers")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir={self.out_dir!r} must be a string")
        n = self.n
        if n < 3:
            raise ConfigError(f"n={n} must be >= 3")
        if not (0.0 < self.eps < 1.0):
            raise ConfigError(f"eps={self.eps} must lie in (0, 1)")
        if self.L < 2:
            raise ConfigError(f"L={self.L} must be >= 2")
        for name in ("seed_scale", "kappa", "tol_solver", "tol_verify", "tol_match"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"{name}={value} must be > 0")
        if self.delta is None:
            self.delta = default_delta(n)
        if not admissible_delta(n, self.delta):
            raise ConfigError(
                f"delta={self.delta} outside (-(n+2)/2, -n/2) = ({-(n + 2) / 2}, {-n / 2})"
            )
        if self.eps_schedule is not None:
            for e in self.eps_schedule:
                if not (0.0 < e < 1.0):
                    raise ConfigError(f"schedule entry {e} outside (0, 1)")
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        return self

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} holds {type(raw).__name__}, not a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        bad = set(raw) - known
        if bad:
            raise ConfigError(f"unknown config fields: {sorted(bad)}")
        return cls(**raw).validate()


def dump_json(obj, path: Path):
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not serializable: {type(o)}")

    path.write_text(json.dumps(obj, indent=1, sort_keys=True, default=default) + "\n")


def write_manifest(cfg: RunConfig, out: Path):
    manifest = {
        "version": __version__,
        "config": asdict(cfg),
        "constants": {
            "delta1": DELTA1,
            "s_eps_rule": "log(eps)/((n-1)(3n-2))",
            "r_eps_rule": "eps^(1/(n-1)) * phi(s_eps)",
        },
    }
    dump_json(manifest, out / "manifest.json")


def _context(cfg: RunConfig):
    from .profile import solve_profile
    from .spectral import band_spectrum

    spec = band_spectrum(cfg.n, cfg.L)
    prof = solve_profile(cfg.n, cfg.s_max, cfg.s_step)
    return spec, prof


def cmd_profile(cfg: RunConfig, out: Path) -> int:
    spec, prof = _context(cfg)
    (out / "profile.csv").write_text(prof.to_csv())
    dump_json(
        {
            "n": cfg.n,
            "A_asym": prof.A_asym,
            "s_max": prof.s_max,
            "first_integral_residual": float(np.max(prof.first_integral_residual())),
            "psi_top": float(prof.psi[-1]),
        },
        out / "profile_summary.json",
    )
    return EXIT_OK


def cmd_catenoid_piece(cfg: RunConfig, out: Path) -> int:
    from .catenoid import build_catenoid_piece, cauchy_maps_catenoid
    from .profile import compute_scales
    from .spectral import SphereField

    spec, prof = _context(cfg)
    sc = compute_scales(prof, cfg.eps)
    h = SphereField.zonal_band(spec, 2, 1.0)
    h = h * (0.3 * sc.r_eps**2 / h.holder_norm())
    piece = build_catenoid_piece(prof, sc, h, cfg.kappa, cfg.tol_solver, delta=cfg.delta)
    cauchy_maps_catenoid(piece)
    _export_rows("s", piece.w.grid.s, piece.w.values, out / "catenoid_piece.csv")
    dump_json(
        {
            "eps": sc.eps, "s_eps": sc.s_eps, "r_eps": sc.r_eps,
            "residual_unit": piece.residual,
            "iterations": piece.iterations,
            "contraction_median": piece.info["contraction_median"],
            "cauchy_gap": piece.info["cauchy_gap"],
            "cauchy_gap_over_reps2": piece.info["cauchy_gap_over_reps2"],
            "v_norm": piece.info["v_norm"],
        },
        out / "catenoid_summary.json",
    )
    return EXIT_OK


def _export_rows(name: str, x: np.ndarray, values: np.ndarray, path: Path):
    """CSV of band rows: one line per node x[j], full-precision floats."""
    rows = [f"{name}," + ",".join(f"row{i}" for i in range(values.shape[0]))]
    for j in range(x.size):
        rows.append(
            format(x[j], ".17g") + ","
            + ",".join(format(v, ".17g") for v in values[:, j])
        )
    path.write_text("\n".join(rows) + "\n")


def cmd_neck(cfg: RunConfig, out: Path) -> int:
    from .neck import RigidParams, build_neck_piece, cauchy_T, flat_patch
    from .profile import compute_scales
    from .spectral import SphereField

    spec, prof = _context(cfg)
    sc = compute_scales(prof, cfg.eps)
    r0 = 180.0 * sc.r_eps
    patch = flat_patch(spec, r0, m=150, r_in=sc.r_eps / 4)
    b = sc.r_eps**2
    A = RigidParams(np.zeros(cfg.n), np.zeros(cfg.n), 0.1 * b, 0.0)
    h2 = SphereField.zonal_band(spec, 2, 1.0)
    h2 = h2 * (0.3 * b / h2.holder_norm())
    h0 = SphereField.zeros(spec)
    piece = build_neck_piece(patch, sc, A, h0, h2, cfg.tol_solver, kappa=cfg.kappa)
    cauchy_T(piece)
    _export_rows("r", piece.V.grid.r, piece.V.values, out / "neck_piece.csv")
    dump_json(
        {
            "eps": sc.eps, "r_eps": sc.r_eps, "r0": r0,
            "residual_rel": piece.residual_rel,
            "iterations": piece.iterations,
            "cauchy_gap": piece.info["cauchy_gap"],
            "cauchy_gap_over_reps2": piece.info["cauchy_gap_over_reps2"],
        },
        out / "neck_summary.json",
    )
    return EXIT_OK


def _seed_surface(cfg: RunConfig):
    from .outer import seed_catenoid

    spec, prof = _context(cfg)
    return seed_catenoid(prof, spec, scale=cfg.seed_scale)


def cmd_glue(cfg: RunConfig, out: Path) -> int:
    from .gluing import glue_end

    surf = _seed_surface(cfg)
    glued = glue_end(
        surf, cfg.eps, kappa=cfg.kappa, tol_piece=cfg.tol_solver, tol_match=cfg.tol_match,
        delta=cfg.delta,
    )
    cert = glued.certificates["embeddedness"]
    dump_json(
        {
            "eps": cfg.eps,
            "ends": len(glued.outer.ends),
            "mismatch": glued.mismatch_norm,
            "history": glued.info["history"],
            "plane_heights": sorted(e.plane_height for e in glued.outer.ends),
            "embedded": cert["embedded"],
            "min_separation": cert["min_separation"],
            "new_end_tilt": glued.certificates.get("new_end_tilt"),
        },
        out / "glue_summary.json",
    )
    if not cert["embedded"]:
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_tower(cfg: RunConfig, out: Path) -> int:
    from .catenoid import PreconditionError
    from .gluing import GlueError, stack_tower

    surf = _seed_surface(cfg)
    try:
        glued, report = stack_tower(
            cfg.K, surf, schedule=cfg.eps_schedule, kappa=cfg.kappa, tol_piece=cfg.tol_solver,
            tol_match=cfg.tol_match, delta=cfg.delta,
        )
    except GlueError as exc:
        if exc.report is not None:
            dump_json(exc.report.to_dict(), out / "tower_report.json")
        if isinstance(exc.__cause__, PreconditionError):
            # a refused level exits with the code `glue` gives the same refusal
            raise PreconditionError(str(exc)) from exc
        raise
    dump_json(report.to_dict(), out / "tower_report.json")
    if any(not c.get("embedded", False) for c in report.certificates):
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    from .gluing import glue_end
    from .verify import mc_residual, second_fund

    surf = _seed_surface(cfg)
    glued = glue_end(
        surf, cfg.eps, kappa=cfg.kappa, tol_piece=cfg.tol_solver, tol_match=cfg.tol_match,
        delta=cfg.delta,
    )
    res = mc_residual(glued)
    prof2 = second_fund(glued)
    report = {
        "mc_residual": res,
        "curvature_outside_boxes": prof2["outside_sup"],
        "boxes": [{k: v for k, v in b.items() if k != "center_xy"} for b in prof2["boxes"]],
        "embeddedness": glued.certificates["embeddedness"],
    }
    dump_json(report, out / "verify_report.json")
    ok = res["max_rel"] <= 2 * cfg.tol_verify and glued.certificates["embeddedness"]["embedded"]
    return EXIT_OK if ok else EXIT_CERTIFICATE


def cmd_chordarc(cfg: RunConfig, out: Path) -> int:
    from .verify import catenoid_sample_graph, chord_arc, plane_sample_graph

    n = cfg.n
    plane = plane_sample_graph(n, extent=10.0)
    center = int(np.argmin(np.linalg.norm(plane.points, axis=1)))
    rows = []
    for R in (2.0, 4.0, 6.0):
        rep = chord_arc(plane, center, R)
        rows.append({"chart": "plane", "R": R, **{k: v for k, v in rep.items() if k != "component_size"}})
    cat = catenoid_sample_graph(n, scale=1.0, s_window=3.0)
    center = int(np.argmin(np.linalg.norm(cat.points - np.array([1.0] + [0] * n), axis=1)))
    for R in (2.0, 4.0, 8.0):
        rep = chord_arc(cat, center, R)
        rows.append({"chart": "catenoid", "R": R, **{k: v for k, v in rep.items() if k != "component_size"}})
    dump_json({"measurements": rows}, out / "chordarc_report.json")
    return EXIT_OK


def cmd_report(cfg: RunConfig, out: Path) -> int:
    rc = cmd_profile(cfg, out)
    rc = max(rc, cmd_glue(cfg, out))
    rc = max(rc, cmd_chordarc(cfg, out))
    summary = {}
    for name in ("profile_summary", "glue_summary", "chordarc_report"):
        p = out / f"{name}.json"
        if p.exists():
            summary[name] = json.loads(p.read_text())
    dump_json(summary, out / "report.json")
    return rc


COMMANDS = {
    "profile": cmd_profile,
    "catenoid-piece": cmd_catenoid_piece,
    "neck": cmd_neck,
    "glue": cmd_glue,
    "tower": cmd_tower,
    "verify": cmd_verify,
    "chordarc": cmd_chordarc,
    "report": cmd_report,
}


def run(subcommand: str, config: RunConfig) -> int:
    """Dispatch a subcommand; deterministic given the config."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(config, out)
    from .catenoid import ContractionError, PreconditionError, ResidualError
    from .gluing import GlueError
    from .profile import ProfileError, ScaleError

    try:
        rc = COMMANDS[subcommand](config, out)
    except (ConfigError, PreconditionError, ProfileError, ScaleError) as exc:
        log.error("config/precondition error: %s", exc)
        return EXIT_CONFIG
    except (ContractionError, ResidualError, GlueError) as exc:
        log.error("solver failure: %s", exc)
        return EXIT_SOLVER
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="minsurflab",
        description="Desk-scale laboratory for glued minimal hypersurfaces",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--eps", type=float, default=None)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig().validate()
        for name in ("out_dir", "eps"):
            arg = getattr(args, name if name != "out_dir" else "out")
            if arg is not None:
                setattr(cfg, name, arg)
        cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(args.subcommand, cfg)


if __name__ == "__main__":
    sys.exit(main())
