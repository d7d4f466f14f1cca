import pytest

from stats import median, percentile, quartiles, summary


def test_percentile_is_nearest_rank():
    values = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert percentile(values, 5) == 15.0
    assert percentile(values, 30) == 20.0     # ceil(1.5) = 2nd
    assert percentile(values, 40) == 20.0     # exactly the 2nd
    assert percentile(values, 50) == 35.0
    assert percentile(values, 100) == 50.0
    assert percentile([7.0], 99) == 7.0


def test_percentile_ignores_input_order_and_rejects_nonsense():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    hundred = [float(i) for i in range(1, 101)]
    assert percentile(hundred, 99) == 99.0    # one sample beyond it
    assert percentile(hundred, 95) == 95.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_median_odd_even():
    assert median([5.0, 1.0, 3.0]) == 3.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_quartiles_match_the_acceptance_rule():
    # statistics.quantiles(n=4), exclusive method: positions (n+1)/4.
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert quartiles(values) == [2.0, 4.0, 6.0]
    assert quartiles([10.0, 20.0]) == [7.5, 15.0, 22.5]
    assert quartiles([9.0]) == [9.0, 9.0, 9.0]


def test_summary_carries_the_sample_count():
    assert summary([3.0, 1.0, 2.0]) == {
        "median": 2.0, "q1": 1.0, "q3": 3.0, "n": 3}
