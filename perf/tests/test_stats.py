import statistics

import pytest

from perf.stats import nearest_rank, summary


def test_p99_of_4000_leaves_40_beyond():
    values = list(range(1, 4001))
    value, beyond = nearest_rank(values, 99)
    assert (value, beyond) == (3960, 40)


def test_p50_is_the_lower_middle_for_even_counts():
    assert nearest_rank([4, 1, 3, 2], 50) == (2, 2)


def test_single_sample_and_p100():
    assert nearest_rank([7.5], 99) == (7.5, 0)
    assert nearest_rank([3, 9, 1], 100) == (9, 0)


def test_rank_is_exact_where_float_arithmetic_is_not():
    # 0.99 * 100 > 99 in binary floating point; the rank must still be 99
    assert nearest_rank(range(1, 101), 99) == (99, 1)


@pytest.mark.parametrize("pct", [0, -1, 100.5])
def test_out_of_range_percentile_rejected(pct):
    with pytest.raises(ValueError):
        nearest_rank([1, 2, 3], pct)


def test_no_samples_rejected():
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_summary_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    s = summary(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3.5, q1, q3, 6)


def test_summary_of_one_value():
    assert summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
