"""The shared timing helper: supported percentiles and lateness."""

import pytest

from perfbench import timing


def test_required_samples_leave_ten_beyond():
    assert timing.required_samples(0.5) == 20
    assert timing.required_samples(0.9) == 100
    assert timing.required_samples(0.95) == 200
    assert timing.required_samples(0.99) == 1000


def test_percentile_refuses_unsupported():
    with pytest.raises(timing.UnsupportedPercentile):
        timing.percentile(range(999), 0.99)
    assert timing.percentile(range(1, 1001), 0.99) == 990


def test_percentile_is_nearest_rank():
    samples = list(range(200, 0, -1))  # order must not matter
    assert timing.percentile(samples, 0.95) == 190
    assert timing.percentile(samples, 0.5) == 100


def test_summarize_reports_highest_supported_with_count():
    out = timing.summarize([float(i) for i in range(1, 251)])
    assert out["n"] == 250
    assert out["median"] == 125.5
    assert out["q"] == 0.95
    assert out["value"] == 238.0


def test_summarize_small_sample_has_no_tail():
    out = timing.summarize([3.0, 1.0, 2.0])
    assert out == {"n": 3, "median": 2.0}


def test_lateness_clamps_early_sends():
    assert timing.lateness([1.0, 2.0, 3.0], [1.5, 1.9, 3.25]) == [0.5, 0.0, 0.25]
    with pytest.raises(ValueError):
        timing.lateness([1.0], [])


def test_lateness_report():
    due = [i * 0.01 for i in range(100)]
    sent = [d + (0.002 if i % 10 == 0 else 0.0) for i, d in enumerate(due)]
    report = timing.lateness_report(due, sent)
    assert report["n"] == 100
    assert report["q"] == 0.9
    assert report["value"] == 0.0
    assert report["max"] == pytest.approx(0.002)
