import json
from pathlib import Path

import numpy as np
import pytest
from graph_reference import chord_arc_dict_remap

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
    section_export,
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


class TestRun:
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
            ("catenoid", catenoid_sample_graph(3), np.eye(4)[0], (2.0, 4.0, 8.0)),
        ):
            center = int(np.argmin(np.linalg.norm(g.points - near, axis=1)))
            for R in radii:
                rep = chord_arc_dict_remap(g, center, R)
                del rep["component_size"]
                expected.append({"chart": chart, "R": R, **rep})
        assert rows == expected

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


class TestSectionExport:
    def test_catenoid_horizontal_cut_is_unit_circle(self, spectrum, profile):
        from minsurflab.outer import seed_catenoid

        surf = seed_catenoid(profile, spectrum, scale=1.0)
        text = section_export(surf, {"axis": "vertical", "offset": 0.0})
        rows = [r for r in text.splitlines()[1:] if r and not r.startswith("#")]
        pts = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
        radii = np.linalg.norm(pts[:, :2], axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-9
        assert np.max(np.abs(pts[:, 3])) < 1e-12

    def test_empty_intersection(self, spectrum, profile):
        from minsurflab.outer import seed_catenoid

        surf = seed_catenoid(profile, spectrum, scale=1.0)
        text = section_export(surf, {"axis": "vertical", "offset": 5.0})
        assert "# empty intersection" in text

    def test_meridian_cut_shows_profile(self, spectrum, profile):
        from minsurflab.outer import seed_catenoid

        surf = seed_catenoid(profile, spectrum, scale=1.0)
        text = section_export(surf, {"axis": "meridian"})
        rows = [r for r in text.splitlines()[1:] if r and not r.startswith("#")]
        pts = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
        # both sheets present and the waist reaches radius 1
        assert pts[:, 0].min() < -1.0 and pts[:, 0].max() > 1.0
        assert np.min(np.abs(pts[:, 0])) >= 1.0 - 1e-9
