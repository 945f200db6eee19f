"""Configuration-driven entry points and report/export plumbing.

Every run is deterministic given its config: reports are JSON with
sorted keys, charts are CSV with full-precision floats, and each run
writes a manifest listing the inputs and the recorded constants.

Exit codes: 0 on success; 2 for a config or precondition refusal; 3 for a
solver failure, including a glue whose embeddedness certificate fails; 4
for a certificate outside its bound (the neck's gap, verify's residual).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .gluing import KAPPA, TOL_PIECE
from .outer import nondegeneracy_delta
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


def _number(name: str, value, nullable: bool = False):
    """Refuse a value that is not a finite number, or None where nullable."""
    if value is None and nullable:
        return
    if not _is_number(value):
        raise ConfigError(f"{name}={value!r} must be a number" + (" or null" if nullable else ""))
    # json reads NaN, Infinity and -Infinity; an int is always finite
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name}={value!r} must be finite")


@dataclass(frozen=True)
class RunConfig:
    """Run parameters, valid by construction: __post_init__ checks each
    field once, and dataclasses.replace checks again.  The nondegeneracy
    check's weight is fixed by n, so it is no field; the manifest records it."""

    n: int = 3
    eps: float = 1e-6
    eps_schedule: list | None = None
    K: int = 4
    L: int = 8
    s_max: float = 16.0
    s_step: float = 8e-3
    tol_solver: float = TOL_PIECE
    tol_match: float | None = None
    kappa: float = KAPPA
    seed_scale: float = 0.3
    out_dir: str = "out"

    def __post_init__(self):
        for name, least in (("n", 3), ("K", 1), ("L", 2)):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name}={value!r} must be an integer")
            if value < least:
                raise ConfigError(f"{name}={value} must be >= {least}")
        _number("eps", self.eps)
        if not 0.0 < self.eps < 1.0:
            raise ConfigError(f"eps={self.eps} must lie in (0, 1)")
        schedule = self.eps_schedule
        if schedule is not None and not (
            isinstance(schedule, list) and all(_is_number(e) for e in schedule)
        ):
            raise ConfigError(f"eps_schedule={schedule!r} must be null or a list of numbers")
        for e in schedule or ():
            if isinstance(e, float) and not math.isfinite(e):
                raise ConfigError(f"schedule entry {e!r} must be finite")
            if not 0.0 < e < 1.0:
                raise ConfigError(f"schedule entry {e} outside (0, 1)")
        _number("s_max", self.s_max)
        _number("s_step", self.s_step)
        for name in ("tol_solver", "tol_match", "kappa", "seed_scale"):
            value = getattr(self, name)
            _number(name, value, nullable=name == "tol_match")
            if value is not None and not value > 0:
                raise ConfigError(f"{name}={value} must be > 0")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir={self.out_dir!r} must be a string")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} holds {type(raw).__name__}, not a JSON object")
        bad = set(raw) - set(cls.__dataclass_fields__)
        if bad:
            raise ConfigError(f"unknown config fields: {sorted(bad)}")
        return cls(**raw)


def dump_json(obj, path: Path):
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not serializable: {type(o)}")

    path.write_text(json.dumps(obj, indent=1, sort_keys=True, default=default,
                               allow_nan=False) + "\n")


def write_manifest(cfg: RunConfig, out: Path):
    import scipy

    manifest = {
        "version": __version__,
        "config": asdict(cfg),
        "constants": {
            "delta1": DELTA1,
            "nondegeneracy_delta": nondegeneracy_delta(cfg.n),
            "s_eps_rule": "log(eps)/((n-1)(3n-2))",
            "r_eps_rule": "eps^(1/(n-1)) * phi(s_eps)",
        },
        "environment": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            # the BLAS and OpenMP pool sizes, which a run's last bits follow
            "threads": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    dump_json(manifest, out / "manifest.json")


def _context(cfg: RunConfig):
    from .profile import solve_profile
    from .spectral import band_spectrum

    spec = band_spectrum(cfg.n, cfg.L)
    prof = solve_profile(cfg.n, cfg.s_max, cfg.s_step)
    return spec, prof


def _write_csv(path: Path, header: list, columns):
    """CSV of columns under a header line of their names, one line per node, in
    full-precision floats; a band-row CSV's column rowl holds band l."""
    lines = [",".join(header)]
    lines += [",".join(format(v, ".17g") for v in row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")


def cmd_profile(cfg: RunConfig, out: Path) -> int:
    spec, prof = _context(cfg)
    _write_csv(out / "profile.csv", ["s", "phi", "psi", "dphi", "dpsi"],
               (prof.s, prof.phi, prof.psi, prof.dphi, prof.dpsi))
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


def _band2_datum(spec, sc):
    """The piece commands' boundary datum: band 2 scaled to 0.3 r_eps^2."""
    from .spectral import SphereField

    h = SphereField.zonal_band(spec, 2, 1.0)
    return h * (0.3 * sc.r_eps**2 / h.holder_norm())


def cmd_catenoid_piece(cfg: RunConfig, out: Path) -> int:
    from .catenoid import build_catenoid_piece, cauchy_gap, simple_cauchy_catenoid
    from .profile import compute_scales

    spec, prof = _context(cfg)
    sc = compute_scales(prof, cfg.eps)
    h = _band2_datum(spec, sc)
    piece = build_catenoid_piece(sc, h, cfg.kappa, cfg.tol_solver)
    gap = cauchy_gap(piece.cauchy, simple_cauchy_catenoid(sc, h))
    _write_csv(out / "catenoid_piece.csv", ["s"] + [f"row{l}" for l in range(cfg.L + 1)],
               (piece.w.grid.s, *piece.w.values))
    dump_json(_piece_summary(sc, piece, gap, s_eps=sc.s_eps, residual_unit=piece.residual),
              out / "catenoid_summary.json")
    return EXIT_OK


def _piece_summary(sc, piece, gap: float, **fields) -> dict:
    """The keys both piece summaries share, from the scales, the piece's
    Picard loop and its Cauchy gap, plus the command's own fields."""
    return {
        "eps": sc.eps, "r_eps": sc.r_eps,
        "iterations": piece.iterations,
        "last_contraction": piece.contractions[-1] if piece.contractions else None,
        "cauchy_gap": gap,
        "cauchy_gap_over_reps2": gap / sc.r_eps**2,
        **fields,
    }


def cmd_neck(cfg: RunConfig, out: Path) -> int:
    from .catenoid import cauchy_gap
    from .gluing import prepare_glue
    from .neck import RigidParams, build_neck_piece, simple_cauchy_neck
    from .spectral import SphereField

    # the glue's own site patch, r0 and Green's function, so the command
    # refuses what glue refuses
    ctx = prepare_glue(_seed_surface(cfg), cfg.eps, cfg.kappa, cfg.tol_solver)
    spec, sc, patch = ctx.surface.spectrum, ctx.scales, ctx.site.patch
    b = sc.r_eps**2
    A = RigidParams(0.0, 0.0, 0.1 * b, 0.0)
    h2 = _band2_datum(spec, sc)
    h0 = SphereField.zeros(spec)
    piece = build_neck_piece(patch, sc, A, h0, h2, cfg.tol_solver, kappa=cfg.kappa,
                             green=ctx.green)
    gap = cauchy_gap(piece.cauchy_inner, simple_cauchy_neck(sc, A, h2))
    _write_csv(out / "neck_piece.csv", ["r"] + [f"row{l}" for l in range(cfg.L + 1)],
               (piece.V.grid.r, *piece.V.values))
    # the gap in units of the glue's working ball kappa r_eps^2; a gap
    # outside the ball exits like a failed certificate
    over_ball = gap / (cfg.kappa * b)
    dump_json(_piece_summary(sc, piece, gap, r0=patch.grid.r_out, residual_rel=piece.residual_rel,
                             cauchy_gap_over_ball=over_ball),
              out / "neck_summary.json")
    return EXIT_OK if over_ball <= 1.0 else EXIT_CERTIFICATE


def _seed_surface(cfg: RunConfig):
    from .outer import seed_catenoid

    spec, prof = _context(cfg)
    return seed_catenoid(prof, spec, scale=cfg.seed_scale)


def _glue(cfg: RunConfig):
    """The one glue of the glue and verify commands, on the config's seed."""
    from .gluing import glue_end

    return glue_end(
        _seed_surface(cfg), cfg.eps, kappa=cfg.kappa, tol_piece=cfg.tol_solver,
        tol_match=cfg.tol_match,
    )


def cmd_glue(cfg: RunConfig, out: Path) -> int:
    glued = _glue(cfg)
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
    return EXIT_OK


def cmd_tower(cfg: RunConfig, out: Path) -> int:
    from .catenoid import PreconditionError
    from .gluing import GlueError, stack_tower

    surf = _seed_surface(cfg)
    try:
        glued, report = stack_tower(
            cfg.K, surf, schedule=cfg.eps_schedule, kappa=cfg.kappa, tol_piece=cfg.tol_solver,
            tol_match=cfg.tol_match,
        )
    except GlueError as exc:
        if exc.report is not None:
            dump_json(exc.report.to_dict(), out / "tower_report.json")
        if isinstance(exc.__cause__, PreconditionError):
            # a refused level exits with the code `glue` gives the same refusal
            raise PreconditionError(str(exc)) from exc
        raise
    dump_json(report.to_dict(), out / "tower_report.json")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    from .verify import mc_residual, second_fund

    glued = _glue(cfg)
    res = mc_residual(glued)
    prof2 = second_fund(glued)
    report = {
        "mc_residual": res,
        "curvature_outside_boxes": prof2["outside_sup"],
        "boxes": [{k: v for k, v in b.items() if k != "center_xy"} for b in prof2["boxes"]],
        "embeddedness": glued.certificates["embeddedness"],
    }
    dump_json(report, out / "verify_report.json")
    # the glue's oracle sup|H|, relative, is held to twice the piece tolerance
    return EXIT_OK if res["max_rel"] <= 2 * cfg.tol_solver else EXIT_CERTIFICATE


def cmd_chordarc(cfg: RunConfig, out: Path) -> int:
    from .verify import catenoid_sample_graph, chord_arc, plane_sample_graph

    n = cfg.n
    rows = []
    # each chart's balls are centred on its sample nearest a point: the
    # origin on the plane, the waist point e_1 on the catenoid
    for chart, graph, x, radii in (
        ("plane", plane_sample_graph(n, extent=10.0), 0.0, (2.0, 4.0, 6.0)),
        ("catenoid", catenoid_sample_graph(n, scale=1.0, s_window=3.0), np.eye(n + 1)[0],
         (2.0, 4.0, 8.0)),
    ):
        center = int(np.argmin(np.linalg.norm(graph.points - x, axis=1)))
        for R in radii:
            rep = chord_arc(graph, center, R)
            rows.append({"chart": chart, "R": R, **{k: v for k, v in rep.items() if k != "component_size"}})
    dump_json({"measurements": rows}, out / "chordarc_report.json")
    return EXIT_OK


def cmd_report(cfg: RunConfig, out: Path) -> int:
    # each command writes its file and returns EXIT_OK, or raises
    for command in (cmd_profile, cmd_glue, cmd_chordarc):
        command(cfg, out)
    names = ("profile_summary", "glue_summary", "chordarc_report")
    dump_json({name: json.loads((out / f"{name}.json").read_text()) for name in names},
              out / "report.json")
    return EXIT_OK


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
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(args.subcommand, cfg)


if __name__ == "__main__":
    sys.exit(main())
