"""The speed sampler: it probes while the main thread is busy, hands back
the alarm when it stops, and rates speed against the reference probe time."""

import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402


def test_sampler_probes_a_busy_pass_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler(0.01)
    start = sampler.start()
    busy_until = time.perf_counter() + 0.3
    while time.perf_counter() < busy_until:
        pass
    end = sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the probes at start and stop, and at least a few alarms in between
    assert len(sampler.probes) >= 5
    assert 0 < sampler.probe_s < end - start
    assert sampler.speed() > 0


def test_speed_is_the_mean_ratio_to_the_reference():
    sampler = speed.SpeedSampler()
    sampler.probes = [speed.REF_PROBE_S, speed.REF_PROBE_S / 2]
    assert sampler.speed() == pytest.approx(1.5)


def test_a_given_probe_counts_and_is_rated_against_its_reference():
    sampler = speed.SpeedSampler(0.0, lambda: 0.5, 1.0)
    sampler.sample()
    sampler.sample()
    assert sampler.probes == [0.5, 0.5]
    assert sampler.probe_s == 1.0
    assert sampler.speed() == 2.0
