"""Normalization to the nominal machine speed."""

import time

import pytest

import speed
from speed import SpeedSampler


def _sampler(starts, durations):
    s = SpeedSampler()
    s.starts, s.durations = list(starts), list(durations)
    return s


def test_window_time_is_net_of_calibration_and_scaled_to_nominal():
    # the machine runs at half the nominal speed: the loop takes 2x NOMINAL_S
    loop = 2 * speed.NOMINAL_S
    s = _sampler([1.0, 2.0, 3.0, 4.0], [loop] * 4)
    assert s.factor(0.0, 5.0) == pytest.approx(0.5)
    assert s.normalized(0.0, 5.0) == pytest.approx((5.0 - 4 * loop) * 0.5)


def test_window_with_too_few_samples_uses_the_fallback_factor():
    s = _sampler([1.0, 2.0, 3.0], [speed.NOMINAL_S] * 3)
    assert s.mean_in(0.0, 1.5) is None
    assert s.normalized(0.0, 1.5, fallback=0.25) == \
        pytest.approx((1.5 - speed.NOMINAL_S) * 0.25)
    assert s.factor(10.0, 11.0) == 1.0


def test_sampler_runs_while_open_and_stops_after():
    with SpeedSampler() as s:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    n = len(s.durations)
    assert n >= 4
    time.sleep(0.15)
    assert len(s.durations) == n
    assert all(d > 0 for d in s.durations)
