"""The percentile helper refuses a percentile with too few samples beyond it."""

import pytest

from perfbench.stats import MIN_BEYOND, beyond, percentile, spread, tail, tail_or_max


def test_p99_needs_a_thousand_samples():
    with pytest.raises(ValueError, match="fewer than 10"):
        percentile([float(v) for v in range(999)], 0.99)
    assert percentile([float(v) for v in range(1000)], 0.99) == 989.0
    assert beyond(0.99, 1000) == MIN_BEYOND


def test_every_accepted_percentile_has_ten_samples_beyond_it():
    for count in range(1, 60):
        values = [float(v) for v in range(count)]
        for quantile in (0.5, 0.75, 0.9, 0.99):
            if beyond(quantile, count) < MIN_BEYOND:
                with pytest.raises(ValueError):
                    percentile(values, quantile)
            else:
                value = percentile(values, quantile)
                assert sum(1 for v in values if v > value) >= MIN_BEYOND


def test_tail_picks_the_highest_percentile_that_qualifies():
    assert tail([1.0] * 19) is None
    assert tail([float(v) for v in range(40)]) == (0.75, 29.0)
    assert tail([float(v) for v in range(100)])[0] == 0.9
    assert tail_or_max([3.0, 1.0, 2.0]) == ("max of 3", 3.0)
    assert tail_or_max([float(v) for v in range(40)]) == ("p75 of 40", 29.0)


def test_spread_is_the_interquartile_share_of_the_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([9.0, 10.0, 11.0, 10.0]) > 0.0
