"""The run's estimators: the capacity staircase, pooled rates, scheduling."""

import math

import pytest

from perfbench import common, host, run
from perfbench.service_load import Phase


def step(rate, latency_ms, status=200):
    phase = Phase(rate, [])
    phase.latency = [latency_ms / 1e3] * 200
    phase.status = [status] * 200
    return phase


def test_max_rps_fits_the_settled_staircase():
    ok, slow = 50.0, 400.0
    steps = [step(250, ok), step(275, ok), step(302.5, slow), step(275, ok), step(302.5, slow)]
    # From the last pass before the first failure on: 275, 302.5, 275,
    # 302.5.  The log-log line through them reaches 150 ms at the point
    # log(150 / 50) / log(400 / 50) of the way from 275 to 302.5.
    share = math.log(150 / 50) / math.log(400 / 50)
    assert run.max_rps(steps) == pytest.approx(275 * 1.1**share)


def test_max_rps_stays_near_the_offered_rates():
    # Scores that barely rise put the crossing far above the rates tried.
    steps = [step(250, 10.0), step(275, 151.0), step(250, 10.0), step(275, 9.0)]
    assert run.max_rps(steps) == pytest.approx(275 * 1.1)


def test_max_rps_falls_back_to_the_mean_rate_when_scores_fall():
    steps = [step(250, 100.0), step(275, 200.0), step(250, 300.0), step(275, 20.0)]
    assert run.max_rps(steps) == pytest.approx((250 * 275) ** 0.5)


def test_max_rps_counts_errors_as_misses():
    steps = [step(250, 10.0), step(275, 10.0, status=429)]
    assert not run.ladder_pass(steps[1])
    assert run.max_rps(steps) == pytest.approx((250 * 275) ** 0.5)


def test_max_rps_without_a_reversal_is_the_last_rate():
    assert run.max_rps([step(250, 10.0), step(275, 10.0)]) == pytest.approx(275)


def test_pooled_rate_sums_work_and_time():
    samples = [{"n": 100, "s": 1.0}, {"n": 100, "s": 3.0}]
    assert run.pooled_rate(samples, "n", "s") == 50.0


def test_reference_seconds_scales_by_host_speed():
    # 2 s while the reference ran at half the reference speed is 1 s.
    assert host.reference_seconds(2.0, host.REFERENCE_SPEED / 2) == pytest.approx(1.0)



def test_share_splits_evenly():
    assert [common.share(10, 4, i) for i in range(4)] == [3, 3, 2, 2]


def test_spread_spaces_rounds_evenly():
    assert run.spread(3, 8) == {1, 4, 6}
    assert run.spread(5, 8) == {0, 2, 4, 5, 7}
    assert run.spread(8, 8) == set(range(8))
