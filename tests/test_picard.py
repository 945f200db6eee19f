"""The shared Picard driver on cheap synthetic maps."""

from types import SimpleNamespace

import numpy as np
import pytest

from minsurflab.catenoid import ContractionError, picard


def field(values):
    return SimpleNamespace(values=np.asarray(values, dtype=float))


def test_linear_contraction_converges_with_expected_count():
    # v <- 0.4 v + b from 0: the k-th update is 0.4^(k-1) |b| and the iterate
    # approaches b / 0.6; with tol 1e-6 the first update under tol * max|v|
    # is the 16th (0.4^15 = 1.07e-6 <= 1.67e-6 < 0.4^14 = 2.68e-6)
    b = np.array([[1.0, -0.5, 0.25], [0.0, 1.0, -1.0]])
    v, it, contractions = picard(
        lambda v: field(0.4 * v.values + b), field(np.zeros_like(b)), 1e-6, 1e-300, 40,
        stage="linear",
    )
    assert it == 16
    assert np.allclose(v.values, b / 0.6, rtol=0, atol=1e-5)
    assert len(contractions) == it - 1
    assert contractions == pytest.approx([0.4] * (it - 1), rel=1e-9)
    assert np.median(contractions) == pytest.approx(0.4, rel=1e-9)


def test_stalling_map_stops_by_the_stall_rule():
    # the map jumps straight to a fixed point plus alternating 1e-7 noise:
    # updates of 2e-7 never reach tol * scale = 1e-9 but stop halving
    state = {"calls": 0}

    def step(v):
        state["calls"] += 1
        return field([1.0 + 1e-7 * (-1) ** state["calls"]])

    v, it, contractions = picard(step, field([0.0]), 1e-9, 1e-300, 40, stage="stall")
    assert it == 3
    assert v.values[0] == pytest.approx(1.0, abs=2e-7)
    assert contractions[-1] == pytest.approx(1.0)


@pytest.mark.xfail(strict=True, reason="the stall rule accepts a growing update (ROADMAP item 18)")
def test_growing_update_below_the_stall_cap_raises():
    # each update doubles the last, from 1e-9 to 5.1e-7 over ten steps, all
    # below 1e-5 * scale: a growing update never stops the loop, so the
    # driver gives up after max_iter steps; today the stall rule returns it
    # at the second
    state = {"update": 1e-9}

    def step(v):
        v_new = field(v.values + state["update"])
        state["update"] *= 2.0
        return v_new

    with pytest.raises(ContractionError, match="did not converge in 10 iterations"):
        picard(step, field([1.0]), 1e-12, 1e-300, 10, stage="growing")


def test_non_contracting_map_raises_with_history():
    with pytest.raises(ContractionError) as excinfo:
        picard(lambda v: field(2.0 * v.values + 1.0), field([0.0]), 1e-8, 1e-300, 5,
               stage="doubling")
    msg = str(excinfo.value)
    assert "doubling" in msg
    assert "5 iterations" in msg
    assert "last contraction 2.000" in msg
    assert "['1.00e+00', '2.00e+00', '4.00e+00', '8.00e+00', '1.60e+01']" in msg


def test_exception_inside_step_propagates_unchanged():
    class Boom(RuntimeError):
        pass

    err = Boom("guard")
    calls = []

    def step(v):
        calls.append(1)
        if len(calls) == 2:
            raise err
        return field(0.5 * v.values + 1.0)

    with pytest.raises(Boom) as excinfo:
        picard(step, field([0.0]), 1e-8, 1e-300, 40, stage="boom")
    assert excinfo.value is err
    assert len(calls) == 2


def test_floor_sets_the_scale_of_a_vanishing_iterate():
    # v <- 0.1 v from 1: without a floor the relative rule never fires, with a
    # floor of 1 it fires once the update is under tol
    with pytest.raises(ContractionError):
        picard(lambda v: field(0.1 * v.values), field([1.0]), 1e-6, 1e-300, 12, stage="x")
    _, it, _ = picard(lambda v: field(0.1 * v.values), field([1.0]), 1e-6, 1.0, 12, stage="x")
    assert it == 7  # update 0.9e-6 <= 1e-6 at the 7th step, 0.9e-5 at the 6th


def test_infinite_update_is_refused_not_accepted():
    # a finite step and then [inf, 2]: the update inf is not <= tol * inf,
    # and the iterate must not come back as converged
    steps = iter([[1.0, 2.0], [np.inf, 2.0]])
    with pytest.raises(ContractionError) as excinfo:
        picard(lambda v: field(next(steps)), field([0.0, 0.0]), 1e-8, 1e-300, 40, stage="blowup")
    msg = str(excinfo.value)
    assert "blowup" in msg and "iteration 2" in msg
    assert "['2.00e+00', 'inf']" in msg


def test_nan_update_stops_at_once():
    calls = []

    def step(v):
        calls.append(1)
        return field([np.nan])

    with pytest.raises(ContractionError) as excinfo:
        picard(step, field([0.0]), 1e-8, 1e-300, 40, stage="nan")
    msg = str(excinfo.value)
    assert len(calls) == 1
    assert "nan iteration 1" in msg and "['nan']" in msg
