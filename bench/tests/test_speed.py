"""Host-speed scaling: the samples inside a unit judge it, or the nearest."""

from __future__ import annotations

import pytest

from bench.speed import MIN_SAMPLES, REFERENCE_SAMPLE_S, reference_factor, speed_over


def test_speed_is_the_mean_reading_inside_the_interval():
    samples = [(0.0, 9.0), (1.0, 2.0), (2.0, 4.0), (3.0, 6.0), (4.0, 9.0)]
    assert speed_over(samples, 0.5, 3.5) == pytest.approx(4.0)


def test_short_interval_uses_the_nearest_samples():
    samples = [(float(t), float(t)) for t in range(10)]
    # Nothing lies inside [4.4, 4.6]; the nearest to 4.5 are 4 and 5, then 3
    # (which comes before 6, at the same distance, in time order).
    assert speed_over(samples, 4.4, 4.6) == pytest.approx(4.0)
    assert len([t for t, _ in samples if 4.4 <= t <= 4.6]) < MIN_SAMPLES


def test_reference_factor_scales_slow_hosts_down():
    slow = [(t / 10, 2 * REFERENCE_SAMPLE_S) for t in range(20)]
    assert reference_factor(slow, 0.0, 1.9) == pytest.approx(0.5)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        speed_over([], 0.0, 1.0)
