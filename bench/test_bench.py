"""Tests of the benchmark's own code: tracer wrapping, self times, restore,
and the machine-speed rescaling of timed segments.

Run from the root of a checkout with ``python -m pytest bench``.
"""

import os
import signal
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def synthetic():
    """Two throwaway package modules: one defines the functions, one imports
    ``inner`` by name, as the layers import each other's functions."""
    clock = FakeClock()
    lib = types.ModuleType("minsurflab._synthetic_lib")
    user = types.ModuleType("minsurflab._synthetic_user")

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        lib.inner()
        user.inner()  # the same function through another namespace
        clock.now += 3.0

    lib.inner, lib.outer, user.inner = inner, outer, inner
    sys.modules[lib.__name__] = lib
    sys.modules[user.__name__] = user
    try:
        yield clock, lib, user
    finally:
        del sys.modules[lib.__name__], sys.modules[user.__name__]


def test_self_time_subtracts_child_spans(synthetic):
    clock, lib, user = synthetic
    tr = tracing.Tracer(["_synthetic_lib.outer", "_synthetic_lib.inner"], clock=clock)
    with tr:
        tr.case = "case-a"
        lib.outer()
    stats = tr.self_times()
    assert stats["_synthetic_lib.outer"] == (1, 8.0, 4.0)
    assert stats["_synthetic_lib.inner"] == (2, 4.0, 4.0)
    assert tr.covered_seconds() == 8.0
    outer_id = next(s[0] for s in tr.spans if s[1] == "_synthetic_lib.outer")
    assert [s[4] for s in tr.spans if s[1] == "_synthetic_lib.inner"] == [outer_id, outer_id]
    assert {s[5] for s in tr.spans} == {"case-a"}


def test_originals_restored(synthetic):
    from minsurflab import catenoid, gluing, outer, profile, spectral, verify

    bound = {mod: mod.profile_values for mod in (profile, catenoid, outer, gluing, verify)}
    d_beta = spectral.ZonalGrid.__dict__["d_beta"]
    _, lib, user = synthetic
    inner = lib.inner
    tr = tracing.Tracer(tracing.TARGETS + ["_synthetic_lib.inner"])
    with tr:
        for mod, fn in bound.items():
            assert mod.profile_values is not fn
            assert mod.profile_values.__wrapped__ is fn
        assert user.inner is not inner
        assert spectral.ZonalGrid.__dict__["d_beta"] is not d_beta
    for mod, fn in bound.items():
        assert mod.profile_values is fn
    assert lib.inner is inner and user.inner is inner
    assert spectral.ZonalGrid.__dict__["d_beta"] is d_beta


def test_matching_calls_equal_history_length():
    from minsurflab import gluing
    from minsurflab.outer import seed_catenoid
    from minsurflab.profile import solve_profile
    from minsurflab.spectral import band_spectrum

    surface = seed_catenoid(solve_profile(3, 16.0, 8e-3), band_spectrum(3, 8), scale=1.0)
    tr = tracing.Tracer()
    with tr:
        glued = gluing.glue_end(surface, 1e-6)
    stats = tr.self_times()
    assert stats["gluing.conglomerate_C"][0] == len(glued.info["history"])
    assert tr.glue_histories == [glued.info["history"]]
    # embeddedness is imported inside glue_end at call time
    assert stats["verify.embeddedness"][0] == 1
    metrics = tr.layer_metrics()
    assert metrics["gluing.conglomerate_C.calls"] == len(glued.info["history"])
    assert 0.0 < metrics["gluing.glue_end.useful_frac"] <= 1.0


def test_probe_rescales_segment_and_leaves_out_its_own_time(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(speed, "kernel", lambda: setattr(clock, "now", clock.now + 2 * speed.REFERENCE_S))
    probe = speed.Probe(clock=clock)
    mark = probe.mark()
    clock.now += 1.0
    assert probe.seconds(mark) == (1.0, 1.0)  # never started: times as they are
    probe._sample(signal.SIGALRM, None)  # a host at half the reference speed
    clock.now += 1.0
    assert probe.seconds(mark) == pytest.approx((2.0, 1.0))


def test_probe_samples_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.Probe(interval=0.01)
    probe.start()
    try:
        mark = probe.mark()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        raw, normalised = probe.seconds(mark)
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert 0.0 < raw < 0.3 and normalised > 0.0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
