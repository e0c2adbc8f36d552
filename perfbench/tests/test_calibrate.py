"""The calibration sampler: ticks while enabled, none while a round is traced."""

import math
import time

import calibrate
import workloads


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_timer_takes_the_ticks_out_of_its_cpu_time():
    with workloads.Timer() as t:
        _busy(0.3)
    assert len(t._sampler.ticks) >= 3
    # The busy loop and the ticks share the wall time; CPU time is the loop's.
    assert t.cpu_s + t._sampler.kernel_s <= t.wall_s + 0.01
    assert t._sampler.kernel_s > 0
    assert 0 < t.scale < math.inf


def test_disabled_sampler_neither_ticks_nor_scales():
    calibrate.Sampler.enabled = False
    try:
        with workloads.Timer() as t:
            _busy(0.2)
    finally:
        calibrate.Sampler.enabled = True
    assert t._sampler.ticks == []
    assert math.isnan(t.scale)
