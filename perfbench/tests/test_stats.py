import statistics

import pytest
from stats import tail


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))  # 1..100
    t = tail(values)
    assert t.value == 90
    assert t.beyond == 10
    assert t.percentile == 90.0
    assert t.samples == 100


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 31)]
    t = tail(values)
    assert t.beyond == 10
    assert sum(1 for v in values if v > t.value) == 10
    # one rank higher would leave only nine beyond
    assert sum(1 for v in values if v > t.value + 1) == 9


def test_tail_order_does_not_matter():
    values = [5.0, 1.0, 9.0, 3.0] * 10
    assert tail(values) == tail(sorted(values))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 11, 19])
def test_tail_never_falls_below_the_median_with_few_samples(n):
    values = [float(v) for v in range(n)]
    t = tail(values)
    assert t.value >= statistics.median(values)
    assert t.beyond < 10


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail([])

