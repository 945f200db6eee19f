import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from graph_reference import chord_arc_dict_remap

import minsurflab
from minsurflab import gluing
from minsurflab.catenoid import ContractionError, PreconditionError
from minsurflab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    ConfigError,
    RunConfig,
    main,
    run,
)
from minsurflab.verify import catenoid_sample_graph, plane_sample_graph


class TestConfig:
    def test_defaults_validate(self):
        cfg = RunConfig().validate()
        assert cfg.delta == -2.0

    def test_rejects_bad_delta(self):
        with pytest.raises(ConfigError, match="delta"):
            RunConfig(delta=-1.2).validate()

    def test_rejects_bad_eps(self):
        with pytest.raises(ConfigError, match="eps"):
            RunConfig(eps=2.0).validate()

    def test_config_file_with_unknown_field(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"n": 3, "bogus": 1}))
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig.from_file(str(p))

    def test_cli_exit_code_on_config_error(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"delta": -1.2}))
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
        ('{"delta": "-2"}', "delta='-2' must be a number or null"),
        ('{"eps_schedule": 1e-7}', "eps_schedule=1e-07 must be null or a list of numbers"),
        ('{"eps_schedule": [1e-7, "1e-9"]}', "must be null or a list of numbers"),
        ('{"out_dir": 5}', "out_dir=5 must be a string"),
        ('{"seed_scale": 0}', "seed_scale=0 must be > 0"),
        ('{"kappa": 0}', "kappa=0 must be > 0"),
        ('{"kappa": -1}', "kappa=-1 must be > 0"),
        ('{"tol_solver": -1}', "tol_solver=-1 must be > 0"),
        ('{"tol_verify": 0}', "tol_verify=0 must be > 0"),
        ('{"tol_match": 0}', "tol_match=0 must be > 0"),
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


class TestRun:
    @pytest.mark.parametrize("command, summary", [
        ("catenoid-piece", "catenoid_summary.json"),
        ("neck", "neck_summary.json"),
        ("verify", "verify_report.json"),
    ])
    def test_command_smoke(self, tmp_path, command, summary):
        assert main([command, "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / summary).read_text())
        numbers = _numbers(report)
        assert numbers and np.all(np.isfinite(numbers))
        if command == "verify":
            assert report["mc_residual"]["max_rel"] <= 2 * RunConfig().tol_verify

    def test_profile_smoke_with_summary(self, tmp_path):
        cfg = RunConfig(out_dir=str(tmp_path / "run")).validate()
        assert run("profile", cfg) == EXIT_OK
        summary = json.loads((tmp_path / "run" / "profile_summary.json").read_text())
        assert "A_asym" in summary
        assert summary["first_integral_residual"] <= 1e-10
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["constants"]["delta1"]["3"] == pytest.approx(3.0 / 8.0)

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = RunConfig(out_dir=str(tmp_path / name)).validate()
            run("profile", cfg)
            outs.append((tmp_path / name / "profile_summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_chordarc_report_equals_reference(self, tmp_path):
        assert main(["chordarc", "--out", str(tmp_path)]) == EXIT_OK
        rows = json.loads((tmp_path / "chordarc_report.json").read_text())["measurements"]
        expected = []
        for chart, g, near, radii in (
            ("plane", plane_sample_graph(3, extent=10.0), np.zeros(4), (2.0, 4.0, 6.0)),
            ("catenoid", catenoid_sample_graph(3, scale=1.0, s_window=3.0), np.eye(4)[0],
             (2.0, 4.0, 8.0)),
        ):
            center = int(np.argmin(np.linalg.norm(g.points - near, axis=1)))
            for R in radii:
                rep = chord_arc_dict_remap(g, center, R)
                del rep["component_size"]
                expected.append({"chart": chart, "R": R, **rep})
        assert rows == expected

    @pytest.mark.parametrize("command, config, message", [
        ("profile", {"s_step": -1}, "s_max and step must be positive"),
        ("profile", {"s_max": 2.0}, "asymptotic fit defect"),
        ("catenoid-piece", {"eps": 1e-100}, "exceeds the profile grid"),
        ("profile", {"s_max": 720}, "where phi overflows"),
    ])
    def test_refused_profile_or_scales_exit_with_config_code(
        self, tmp_path, caplog, command, config, message
    ):
        # validate accepts these; the profile or compute_scales refuses them
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        with caplog.at_level(logging.ERROR):
            rc = main([command, "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert message in caplog.text

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

    def test_tower_forwards_delta_and_tol_match(self, tmp_path, monkeypatch):
        seen = []

        def record(*args, **kwargs):
            seen.append(kwargs)
            raise PreconditionError("recorded")

        monkeypatch.setattr(gluing, "glue_end", record)
        cfg = RunConfig(out_dir=str(tmp_path / "tower"), K=2, delta=-1.9, tol_match=1e-9).validate()
        assert run("tower", cfg) == EXIT_CONFIG
        assert [(kw["delta"], kw["tol_match"]) for kw in seen] == [(-1.9, 1e-9)]

    def test_failed_tower_writes_partial_report(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise PreconditionError("no admissible gluing site")

        monkeypatch.setattr(gluing, "glue_end", fail)
        cfg = RunConfig(out_dir=str(tmp_path / "tower"), K=2).validate()
        assert run("tower", cfg) == EXIT_CONFIG
        report = json.loads((tmp_path / "tower" / "tower_report.json").read_text())
        assert report["levels"] == [{"aborted": "no admissible gluing site"}]

    def test_unsettled_tower_level_exits_with_solver_code(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ContractionError("neck iteration not contracting")

        monkeypatch.setattr(gluing, "glue_end", fail)
        cfg = RunConfig(out_dir=str(tmp_path / "tower"), K=2).validate()
        assert run("tower", cfg) == EXIT_SOLVER
        report = json.loads((tmp_path / "tower" / "tower_report.json").read_text())
        assert report["levels"] == [{"aborted": "neck iteration not contracting"}]

