"""One admissibility rule for every (n, eps) the config accepts.

Over n = 3 ... 12 and eps in {1e-6, 1e-9, 1e-12} on the scale-0.3 seed,
`minsurflab neck` and `glue_end` each end one of three ways:

- success within bound: the neck exits 0 with its Cauchy gap inside the
  working ball (4 outside it); the glue has a finite mismatch history and
  is embedded;
- refusal: PreconditionError, exit 2;
- failure: ContractionError or GlueError, exit 3.

Both build on prepare_glue's context, so the neck refuses exactly where the
glue does, with the same message.  No cell writes a non-finite value.  The
test asserts these invariants, not which cells fail: the ROADMAP items that
fix the neck's band-0 mode and the large-n catenoid step move cells from
failure and refusal to success.
"""

import functools
import json
import logging

import numpy as np
import pytest

from minsurflab.catenoid import ContractionError, PreconditionError
from minsurflab.cli import EXIT_CERTIFICATE, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from minsurflab.gluing import GlueError, glue_end
from minsurflab.outer import seed_catenoid
from minsurflab.profile import solve_profile
from minsurflab.spectral import band_spectrum

SEED_SCALE = 0.3
REFUSAL = "config/precondition error: "


@functools.lru_cache(maxsize=None)
def _context(n: int):
    return band_spectrum(n, 8), solve_profile(n, 16.0, 8e-3)


def _assert_finite_outputs(out):
    """Every number in every JSON and CSV file the command wrote is finite."""
    for path in out.iterdir():
        if path.suffix == ".json":
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text, path.name
        elif path.suffix == ".csv":
            assert np.all(np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1))), path.name


def _neck(tmp_path, caplog, n: int, eps: float) -> tuple:
    """(exit code, refusal message or None) of `minsurflab neck` in process."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": n, "eps": eps, "seed_scale": SEED_SCALE}))
    out = tmp_path / "neck"
    caplog.clear()
    with caplog.at_level(logging.ERROR, logger="minsurflab.cli"):
        rc = main(["neck", "--config", str(cfg), "--out", str(out)])
    _assert_finite_outputs(out)
    summary = out / "neck_summary.json"
    if rc in (EXIT_OK, EXIT_CERTIFICATE):
        ratio = json.loads(summary.read_text())["cauchy_gap_over_ball"]
        assert (ratio <= 1.0) == (rc == EXIT_OK)
    else:
        assert rc in (EXIT_CONFIG, EXIT_SOLVER)
        assert not summary.exists()
    messages = [r.getMessage() for r in caplog.records if r.getMessage().startswith(REFUSAL)]
    assert bool(messages) == (rc == EXIT_CONFIG)
    return rc, messages[0][len(REFUSAL):] if messages else None


def _glue(n: int, eps: float):
    """The refusal message of glue_end, or None when it does not refuse."""
    spec, prof = _context(n)
    try:
        glued = glue_end(seed_catenoid(prof, spec, scale=SEED_SCALE), eps)
    except PreconditionError as exc:
        return str(exc)
    except (ContractionError, GlueError):
        return None
    assert np.all(np.isfinite(glued.info["history"]))
    assert np.isfinite(glued.mismatch_norm)
    assert glued.certificates["embeddedness"]["embedded"]
    return None


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("n", range(3, 13))
def test_neck_and_glue_end_alike(tmp_path, caplog, n, eps):
    _, neck_refusal = _neck(tmp_path, caplog, n, eps)
    glue_refusal = _glue(n, eps)
    # the neck refuses exactly where the glue does, with the same message
    assert neck_refusal == glue_refusal
