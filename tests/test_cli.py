import dataclasses
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from graph_reference import CATENOID_SHAPE, PLANE_SHAPE, chord_arc_dict_remap, orbit_edges

import minsurflab
from minsurflab import gluing, verify
from minsurflab.catenoid import ContractionError, PreconditionError
from minsurflab.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    ConfigError,
    RunConfig,
    dump_json,
    main,
    run,
)
from minsurflab.verify import catenoid_sample_graph, plane_sample_graph


class TestConfig:
    def test_defaults_validate(self):
        # the glue defaults are gluing's, which glue_end and stack_tower read
        cfg = RunConfig()
        assert (cfg.kappa, cfg.tol_solver) == (gluing.KAPPA, gluing.TOL_PIECE)

    def test_rejects_bad_delta(self, tmp_path, capsys):
        # the weight is no field: a config naming it, even at the window's
        # midpoint, is refused like any retired field
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"delta": -2.0}))
        rc = main(["profile", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "unknown config fields: ['delta']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rejects_bad_eps(self):
        with pytest.raises(ConfigError, match="eps"):
            RunConfig(eps=2.0)

    def test_replace_checks_the_new_config(self):
        with pytest.raises(ConfigError, match="kappa=0 must be > 0"):
            dataclasses.replace(RunConfig(), kappa=0)

    def test_eps_is_set_by_the_config_alone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["glue", "--eps", "1e-6", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eps" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_file_with_unknown_field(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"n": 3, "bogus": 1}))
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig.from_file(str(p))

    def test_cli_exit_code_on_config_error(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"eps": 2.0}))
        rc = main(["profile", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("name, value", [
        ("nu", -7.0 / 3.0), ("m_radial", 150), ("r0", 0.1), ("piece_step", 5e-3), ("seed", 0),
    ])
    def test_removed_fields_are_refused(self, tmp_path, capsys, name, value):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({name: value}))
        rc = main(["profile", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "unknown config fields" in capsys.readouterr().err

    @pytest.mark.parametrize("document, message", [
        ("5", "not a JSON object"),
        ("null", "not a JSON object"),
        ('["n"]', "not a JSON object"),
        ('{"n": "3"}', "n='3' must be an integer"),
        ('{"n": true}', "n=True must be an integer"),
        ('{"K": 2.5}', "K=2.5 must be an integer"),
        ('{"L": 3.7}', "L=3.7 must be an integer"),
        ('{"eps": "1e-6"}', "eps='1e-6' must be a number"),
        ('{"kappa": false}', "kappa=False must be a number"),
        ('{"eps_schedule": 1e-7}', "eps_schedule=1e-07 must be null or a list of numbers"),
        ('{"eps_schedule": [1e-7, "1e-9"]}', "must be null or a list of numbers"),
        ('{"out_dir": 5}', "out_dir=5 must be a string"),
        ('{"seed_scale": 0}', "seed_scale=0 must be > 0"),
        ('{"kappa": 0}', "kappa=0 must be > 0"),
        ('{"kappa": -1}', "kappa=-1 must be > 0"),
        ('{"tol_solver": -1}', "tol_solver=-1 must be > 0"),
        # a retired field is refused like any unknown one
        ('{"tol_verify": 0}', "unknown config fields: ['tol_verify']"),
        ('{"tol_match": 0}', "tol_match=0 must be > 0"),
        # json reads NaN, Infinity and -Infinity; none is a usable number
        ('{"s_step": NaN}', "s_step=nan must be finite"),
        ('{"seed_scale": Infinity}', "seed_scale=inf must be finite"),
        ('{"s_max": -Infinity}', "s_max=-inf must be finite"),
        ('{"tol_match": Infinity}', "tol_match=inf must be finite"),
        ('{"eps_schedule": [1e-7, NaN]}', "schedule entry nan must be finite"),
    ])
    def test_malformed_config_is_refused(self, tmp_path, capsys, document, message):
        p = tmp_path / "cfg.json"
        p.write_text(document)
        rc = main(["profile", "--config", str(p), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


def _numbers(doc) -> list:
    """Every int or float leaf of a JSON document."""
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in _numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in _numbers(v)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


# the exact keys of each command's summary; the piece commands are the
# only readers of the pieces' diagnostics (last contraction factor, Cauchy
# gaps), which are computed where the summary is written
SUMMARY_KEYS = {
    "catenoid_summary.json": {
        "eps", "s_eps", "r_eps", "residual_unit", "iterations", "last_contraction",
        "cauchy_gap", "cauchy_gap_over_reps2",
    },
    "neck_summary.json": {
        "eps", "r_eps", "r0", "residual_rel", "iterations", "last_contraction",
        "cauchy_gap", "cauchy_gap_over_reps2", "cauchy_gap_over_ball",
    },
    "verify_report.json": {"mc_residual", "curvature_outside_boxes", "boxes", "embeddedness"},
}

# the band-row CSV each piece command writes, and its header: the node
# coordinate, then one column per band l = 0..L (default L = 8)
BAND_CSV = {
    "catenoid-piece": ("catenoid_piece.csv", "s," + ",".join(f"row{l}" for l in range(9))),
    "neck": ("neck_piece.csv", "r," + ",".join(f"row{l}" for l in range(9))),
}


class TestRun:
    @pytest.mark.parametrize("command, summary", [
        ("catenoid-piece", "catenoid_summary.json"),
        ("neck", "neck_summary.json"),
        ("verify", "verify_report.json"),
    ])
    def test_command_smoke(self, tmp_path, command, summary):
        assert main([command, "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / summary).read_text())
        assert set(report) == SUMMARY_KEYS[summary]
        numbers = _numbers(report)
        assert numbers and np.all(np.isfinite(numbers))
        if command == "verify":
            assert report["mc_residual"]["max_rel"] <= 2 * RunConfig().tol_solver
        if command in BAND_CSV:
            # both pieces hold their oracle residual within tol_solver, and
            # report their Picard loop's last contraction factor
            residual = report["residual_rel" if command == "neck" else "residual_unit"]
            assert residual <= RunConfig().tol_solver
            last = report["last_contraction"]
            assert isinstance(last, float) and np.isfinite(last)
            name, header = BAND_CSV[command]
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == header
            assert all(len(line.split(",")) == RunConfig().L + 2 for line in lines[1:])

    @pytest.mark.parametrize("kappa, expected_rc", [(16.0, EXIT_OK), (1.0, EXIT_CERTIFICATE)])
    def test_neck_gap_is_stated_against_the_working_ball(self, tmp_path, kappa, expected_rc):
        # at n=3 the neck on the glue's site patch settles in 3 iterations
        # with a Cauchy gap of 4.89 r_eps^2: inside the default ball 16
        # r_eps^2, outside a ball of r_eps^2, where the command must not exit 0
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"kappa": kappa}))
        assert main(["neck", "--config", str(p), "--out", str(tmp_path / "o")]) == expected_rc
        summary = json.loads((tmp_path / "o" / "neck_summary.json").read_text())
        ratio = summary["cauchy_gap_over_ball"]
        assert ratio == pytest.approx(summary["cauchy_gap"] / (kappa * summary["r_eps"] ** 2), rel=1e-12)
        assert ratio == pytest.approx(4.89 / kappa, rel=0.02)

    def test_neck_refuses_eps_above_the_certified_threshold(self, tmp_path, caplog):
        # the threshold check sits in prepare_glue, which the neck runs on
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"eps": 1e-3}))
        with caplog.at_level(logging.ERROR, logger="minsurflab.cli"):
            assert main(["neck", "--config", str(p), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "above the certified threshold" in caplog.text
        assert not (tmp_path / "neck_summary.json").exists()

    def test_glue_refused_as_not_embedded_exits_with_solver_code(self, tmp_path, monkeypatch,
                                                                 caplog):
        # glue_end raises GlueError when the certificate fails, before glue
        # writes its summary
        def refuse(glued):
            return {"embedded": False, "min_separation": -1.0, "witness": [0.0, 0.0, 0.0]}

        monkeypatch.setattr(verify, "embeddedness", refuse)
        with caplog.at_level(logging.ERROR, logger="minsurflab.cli"):
            assert run("glue", RunConfig(out_dir=str(tmp_path))) == EXIT_SOLVER
        assert "embeddedness failed" in caplog.text
        assert not (tmp_path / "glue_summary.json").exists()

    def test_report_holds_the_three_summaries_as_written(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == EXIT_OK
        names = ("profile_summary", "glue_summary", "chordarc_report")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report == {name: json.loads((tmp_path / f"{name}.json").read_text())
                          for name in names}
        # the default glue adds a third end, certifies it embedded, and
        # reports as its mismatch the last value of its history, exactly
        glue = report["glue_summary"]
        assert glue["ends"] == 3 and glue["embedded"] is True
        assert glue["mismatch"] == glue["history"][-1]

    def test_profile_smoke_with_summary(self, tmp_path):
        cfg = RunConfig(out_dir=str(tmp_path / "run"))
        assert run("profile", cfg) == EXIT_OK
        summary = json.loads((tmp_path / "run" / "profile_summary.json").read_text())
        assert "A_asym" in summary
        assert summary["first_integral_residual"] <= 1e-10
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["constants"]["delta1"]["3"] == pytest.approx(3.0 / 8.0)
        # the nondegeneracy check's weight is a constant of n, not a config field
        assert manifest["constants"]["nondegeneracy_delta"] == -2.0
        assert set(manifest["config"]) == {f.name for f in dataclasses.fields(RunConfig)}
        assert "delta" not in manifest["config"]
        # the environment a run's last bits depend on
        env = manifest["environment"]
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
        assert set(env["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
        assert all(env["threads"][k] == os.environ.get(k) for k in env["threads"])

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = RunConfig(out_dir=str(tmp_path / name))
            run("profile", cfg)
            outs.append((tmp_path / name / "profile_summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_chordarc_report_equals_reference(self, tmp_path):
        assert main(["chordarc", "--out", str(tmp_path)]) == EXIT_OK
        rows = json.loads((tmp_path / "chordarc_report.json").read_text())["measurements"]
        expected = []
        for chart, g, shape, near, radii in (
            ("plane", plane_sample_graph(3, extent=10.0), PLANE_SHAPE, np.zeros(4), (2.0, 4.0, 6.0)),
            ("catenoid", catenoid_sample_graph(3, scale=1.0, s_window=3.0), CATENOID_SHAPE,
             np.eye(4)[0], (2.0, 4.0, 8.0)),
        ):
            center = int(np.argmin(np.linalg.norm(g.points - near, axis=1)))
            edges = orbit_edges(shape, g.points)
            for R in radii:
                rep = chord_arc_dict_remap(g.points, edges, center, R)
                del rep["component_size"]
                expected.append({"chart": chart, "R": R, **rep})
        assert rows == expected

    @pytest.mark.parametrize("command, config, message", [
        ("profile", {"s_step": -1}, "s_max and step must be positive"),
        ("profile", {"s_max": 2.0}, "asymptotic fit defect"),
        ("catenoid-piece", {"eps": 1e-100}, "exceeds the profile grid"),
        ("profile", {"s_max": 720}, "where phi overflows"),
        # steps whose grid no array can hold: 3.2e301 and infinitely many nodes
        ("profile", {"s_step": 1e-300}, "more than an array holds"),
        ("profile", {"s_step": 5e-324}, "more than an array holds"),
        # the piece's datum 0.3 r_eps^2 lies outside a working ball of 0.2 r_eps^2
        ("catenoid-piece", {"kappa": 0.2}, "exceeds kappa r_eps^2"),
        # a table whose far end leaves psi_inf's tail remainder above 1e-10 psi_inf
        ("glue", {"s_max": 4}, "rebuild the profile with a larger s_max"),
        ("verify", {"s_max": 4}, "rebuild the profile with a larger s_max"),
        ("tower", {"s_max": 4}, "rebuild the profile with a larger s_max"),
        # the neck refuses what the glue refuses: at n=6 its site's r0
        # leaves no room above r_eps, before any solve runs
        ("neck", {"n": 6}, "leaves no room above r_eps"),
    ])
    def test_refused_profile_or_scales_exit_with_config_code(
        self, tmp_path, caplog, command, config, message
    ):
        # the config accepts these; the profile, compute_scales, psi_infinity
        # or the catenoid piece refuses them
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        with caplog.at_level(logging.ERROR):
            rc = main([command, "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert message in caplog.text

    def test_catenoid_piece_reads_no_profile_table(self, tmp_path):
        # the piece's grid [s_eps, s_eps + 15] runs past a table cut at 12,
        # and the piece's files are those of the default table's
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"s_max": 12}))
        assert main(["catenoid-piece", "--config", str(p), "--out", str(tmp_path / "short")]) \
            == EXIT_OK
        assert main(["catenoid-piece", "--out", str(tmp_path / "default")]) == EXIT_OK
        for name in ("catenoid_piece.csv", "catenoid_summary.json"):
            assert (tmp_path / "short" / name).read_bytes() == \
                (tmp_path / "default" / name).read_bytes()

    def test_module_entry_point_runs_with_runtime_warnings_as_errors(self, tmp_path):
        # the package __init__ imports no submodule, so -m finds no
        # minsurflab.cli in sys.modules before it runs the module
        src = str(Path(minsurflab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "minsurflab.cli", "profile",
             "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (out / "profile_summary.json").exists()

    def test_tower_forwards_tol_match(self, tmp_path, monkeypatch):
        seen = []

        def record(*args, **kwargs):
            seen.append(kwargs)
            raise PreconditionError("recorded")

        monkeypatch.setattr(gluing, "glue_end", record)
        cfg = RunConfig(out_dir=str(tmp_path / "tower"), K=2, tol_match=1e-9)
        assert run("tower", cfg) == EXIT_CONFIG
        assert seen == [{"kappa": cfg.kappa, "tol_piece": cfg.tol_solver, "tol_match": 1e-9}]

    def test_failed_tower_writes_partial_report(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise PreconditionError("no admissible gluing site")

        monkeypatch.setattr(gluing, "glue_end", fail)
        cfg = RunConfig(out_dir=str(tmp_path / "tower"), K=2)
        assert run("tower", cfg) == EXIT_CONFIG
        report = json.loads((tmp_path / "tower" / "tower_report.json").read_text())
        assert report["levels"] == [{"aborted": "no admissible gluing site"}]

    @pytest.mark.parametrize("K", [1, 2])
    def test_tower_report_without_a_glued_level_is_strict_json(self, tmp_path, monkeypatch, K):
        # K=1 glues nothing, and K=2 here refuses its only level
        def fail(*args, **kwargs):
            raise PreconditionError("no admissible gluing site")

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        monkeypatch.setattr(gluing, "glue_end", fail)
        cfg = RunConfig(out_dir=str(tmp_path / "tower"), K=K)
        assert run("tower", cfg) == (EXIT_OK if K == 1 else EXIT_CONFIG)
        text = (tmp_path / "tower" / "tower_report.json").read_text()
        report = json.loads(text, parse_constant=refuse)
        assert report["curvature_outside_boxes"] is None

    def test_report_with_a_non_finite_number_is_refused(self, tmp_path):
        with pytest.raises(ValueError):
            dump_json({"x": float("nan")}, tmp_path / "r.json")

    def test_tower_refuses_a_schedule_longer_than_its_levels(self, tmp_path, monkeypatch,
                                                             caplog):
        # K=2 glues one level; 0.9 would never be held to its bound
        def glued(*args, **kwargs):
            raise ContractionError("a level was glued")

        monkeypatch.setattr(gluing, "glue_end", glued)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"K": 2, "eps_schedule": [1e-4, 0.9]}))
        with caplog.at_level(logging.ERROR, logger="minsurflab.cli"):
            rc = main(["tower", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "schedule has 2 eps; a tower of K=2 glues K - 1 = 1 levels" in caplog.text
        assert not (tmp_path / "o" / "tower_report.json").exists()

    def test_unsettled_tower_level_exits_with_solver_code(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ContractionError("neck iteration not contracting")

        monkeypatch.setattr(gluing, "glue_end", fail)
        cfg = RunConfig(out_dir=str(tmp_path / "tower"), K=2)
        assert run("tower", cfg) == EXIT_SOLVER
        report = json.loads((tmp_path / "tower" / "tower_report.json").read_text())
        assert report["levels"] == [{"aborted": "neck iteration not contracting"}]

