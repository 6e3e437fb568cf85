import pytest

from stats import TAIL_LADDER, median, percentile, rank, tail, tail_percentile


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (21, 52), (49, 79), (50, 80), (99, 89), (100, 90),
    (200, 95), (999, 98), (1000, 99), (25000, 99),
])
def test_tail_percentile_boundaries(n, expected):
    assert tail_percentile(n) == expected


def test_tail_is_highest_ladder_level_with_ten_beyond():
    for n in range(20, 3000):
        pct = tail_percentile(n)
        assert n - rank(pct, n) >= 10
        assert all(n - rank(p, n) < 10 for p in TAIL_LADDER if p > pct)


def test_tail_reports_value_label_and_counts():
    assert tail(list(range(100, 0, -1))) == {"value": 90, "label": "p90", "n": 100,
                                             "beyond": 10}
    assert tail(list(range(1, 10001)))["label"] == "p99"
    assert tail([3.0, 1.0, 2.0]) == {"value": 3.0, "label": "max", "n": 3, "beyond": 0}


def test_nearest_rank_percentile_and_median():
    vals = [1, 2, 3, 4, 5]
    assert percentile(vals, 50) == 3
    assert percentile(vals, 99) == 5
    assert percentile(vals, 1) == 1
    assert median([4, 1, 3, 2]) == 2.5
    assert median([7]) == 7
