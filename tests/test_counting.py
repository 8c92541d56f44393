import sys
import threading

import pytest

from cubecovers import counting
from cubecovers import (
    binomial,
    brute_counts,
    count_dags,
    count_orientable_dags,
    dag_count_sequence,
    sequence_table,
)

# Published values for n = 1..7 (the DAG row is OEIS A003024).
DAG_COUNTS = [1, 3, 25, 543, 29281, 3781503, 1138779265]
ORIENTABLE_COUNTS = [1, 1, 4, 43, 1156, 74581, 11226874]


# ----------------------------------------------------------------------
# binomial
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n,k,expected", [(5, 2, 10), (7, 3, 35), (9, 0, 1), (6, 6, 1)])
def test_binomial_values(n, k, expected):
    assert binomial(n, k) == expected


def test_binomial_rejects_bad_input():
    with pytest.raises(ValueError):
        binomial(3, 4)
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


def test_binomial_pascal_identity():
    for n in range(1, 12):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


# ----------------------------------------------------------------------
# the two sequences
# ----------------------------------------------------------------------


def test_dag_counts_reproduce_published_values():
    assert count_dags(0) == 1
    assert [count_dags(n) for n in range(1, 8)] == DAG_COUNTS


def test_orientable_counts_reproduce_published_values():
    assert [count_orientable_dags(n) for n in range(1, 8)] == ORIENTABLE_COUNTS


def test_zero_vertex_conventions():
    assert count_dags(0) == 1
    assert count_orientable_dags(0) == 1  # the empty digraph qualifies vacuously


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        count_dags(-1)
    with pytest.raises(ValueError):
        count_orientable_dags(-1)
    with pytest.raises(ValueError):
        dag_count_sequence(-1)
    with pytest.raises(ValueError):
        sequence_table(-1)


def test_memoized_matches_fresh_computation():
    fresh = dag_count_sequence(16)
    assert fresh == [count_dags(n) for n in range(17)]
    # repeated calls keep agreeing after the cache is fully warm
    assert dag_count_sequence(16) == [count_dags(n) for n in range(17)]


def test_cold_cache_survives_concurrent_growth(monkeypatch):
    # Four threads grow a cold memo at once.  A tiny switch interval makes
    # them interleave inside the growth loop, which used to leave values at
    # the wrong index.
    reference = dag_count_sequence(40)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(counting, "_DAG_COUNTS", [1])
            barrier = threading.Barrier(4)
            results = []

            def worker():
                barrier.wait()
                results.append(count_dags(40))

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert results == [reference[40]] * 4
            assert counting._DAG_COUNTS == reference
    finally:
        sys.setswitchinterval(old_interval)


def test_negative_orientable_sum_raises(monkeypatch):
    # With D(m) = 0 for m >= 1 only the k = n term survives: -1 at n = 2.
    # The guard must be a real exception, not an assert that -O strips.
    monkeypatch.setattr(counting, "count_dags", lambda m: 1 if m == 0 else 0)
    with pytest.raises(ArithmeticError, match="negative at n=2"):
        count_orientable_dags(2)


def test_orientable_bounds():
    for n in range(21):
        v = count_orientable_dags(n)
        assert 1 <= v <= count_dags(n)


def test_forced_small_identities():
    assert count_orientable_dags(1) == 1
    assert count_orientable_dags(2) == 2 * count_dags(1) - 1 == 1


def test_leaves_64_bit_range_near_eleven():
    assert count_dags(10) < 1 << 63 < count_dags(11)


@pytest.mark.parametrize("n", range(5))
def test_formulas_match_brute_force(n):
    got = brute_counts(n)
    assert got.dags == count_dags(n)
    assert got.orientable == count_orientable_dags(n)


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------


def test_table_first_rows():
    assert sequence_table(1) == [(0, 1, 1), (1, 1, 1)]


def test_table_row_three():
    assert sequence_table(3)[-1] == (3, 25, 4)


def test_table_row_six():
    assert sequence_table(6)[-1] == (6, 3781503, 74581)


def test_table_is_consistent_with_point_queries():
    rows = sequence_table(12)
    assert len(rows) == 13
    for n, dags, orientable in rows:
        assert dags == count_dags(n)
        assert orientable == count_orientable_dags(n)
