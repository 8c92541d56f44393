import math
import sys
import threading

import pytest

from cubecovers import counting
from cubecovers import (
    brute_counts,
    count_dags,
    count_orientable_dags,
    sequence_table,
)

# Published values for n = 1..7 (the DAG row is OEIS A003024).
DAG_COUNTS = [1, 3, 25, 543, 29281, 3781503, 1138779265]
ORIENTABLE_COUNTS = [1, 1, 4, 43, 1156, 74581, 11226874]


# ----------------------------------------------------------------------
# the kernel's incremental binomial
# ----------------------------------------------------------------------


def kernel_binomial(n, k):
    # With a and b the indicators of k and n - k and lag k, the only term
    # of the chromatic sum is C(n,k) * 1 * 1 << 0, reached after the
    # incremental binomial has stepped through every index below k.
    a = [int(i == k) for i in range(n + 1)]
    b = [int(i == n - k) for i in range(n + 1)]
    return counting.chromatic_sum(n, a, b, start=0, lag=k)


@pytest.mark.parametrize("n,k,expected", [(5, 2, 10), (7, 3, 35), (9, 0, 1), (6, 6, 1)])
def test_binomial_values(n, k, expected):
    assert kernel_binomial(n, k) == expected


def test_binomial_pascal_identity():
    for n in range(1, 40):
        for k in range(1, n):
            assert kernel_binomial(n, k) == (
                kernel_binomial(n - 1, k - 1) + kernel_binomial(n - 1, k)
            )
        assert [kernel_binomial(n, k) for k in range(n + 1)] == [
            math.comb(n, k) for k in range(n + 1)
        ]


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
        sequence_table(-1)


def test_memoized_matches_fresh_computation():
    # The published values, then E(-x) D(x) = 1 on the chromatic basis:
    # sum_k (-1)^k C(n,k) 2^(k(n-k)) D(n-k) = 0 for n >= 1, written out
    # term by term here rather than through the counting kernel.
    assert [count_dags(n) for n in range(1, 8)] == DAG_COUNTS
    for n in range(1, 41):
        assert sum(
            (-1) ** k * math.comb(n, k) * 2 ** (k * (n - k)) * count_dags(n - k)
            for k in range(n + 1)
        ) == 0
    # repeated calls keep agreeing after the cache is fully warm
    assert counting._DAG_COUNTS[:41] == [count_dags(n) for n in range(41)]


def _grow_cold_memo_from_threads(monkeypatch, memo, cold, count, ns, reference):
    # Four threads fill a cold memo at once, each asking for ``ns`` in its
    # own order.  A tiny switch interval makes them interleave inside the
    # growth code, which used to leave values at the wrong index.
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            monkeypatch.setattr(counting, memo, cold())
            barrier = threading.Barrier(4)
            results = {}

            def worker(order):
                barrier.wait()
                results[order] = [count(n) for n in order]

            shifts = [(trial + 5 * t) % len(ns) for t in range(4)]
            orders = [tuple(ns[i:] + ns[:i]) for i in shifts]
            threads = [threading.Thread(target=worker, args=(o,)) for o in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            for order in orders:
                assert results[order] == [reference[n] for n in order]
            assert getattr(counting, memo) == reference
    finally:
        sys.setswitchinterval(old_interval)


def test_cold_cache_survives_concurrent_growth(monkeypatch):
    # The reference is a single-threaded run from a cold memo.
    monkeypatch.setattr(counting, "_DAG_COUNTS", [1])
    count_dags(40)
    reference = counting._DAG_COUNTS
    assert len(reference) == 41 and reference[1:8] == DAG_COUNTS
    _grow_cold_memo_from_threads(
        monkeypatch, "_DAG_COUNTS", lambda: [1], count_dags, [40], reference
    )


def test_orientable_cold_cache_survives_concurrent_growth(monkeypatch):
    ns = list(range(0, 41, 3))
    monkeypatch.setattr(counting, "_ORIENTABLE_COUNTS", {0: 1})
    for n in ns:
        count_orientable_dags(n)
    reference = counting._ORIENTABLE_COUNTS
    assert sorted(reference) == ns and reference[3] == 4 and reference[6] == 74581

    # Each value is computed once per cold memo, however the threads race.
    computed = []
    kernel = counting.chromatic_sum

    def counted(n, a, b, start=0, lag=0):
        if lag:
            computed.append(n)
        return kernel(n, a, b, start, lag)

    monkeypatch.setattr(counting, "chromatic_sum", counted)
    _grow_cold_memo_from_threads(
        monkeypatch, "_ORIENTABLE_COUNTS", lambda: {0: 1}, count_orientable_dags,
        ns, reference,
    )
    assert sorted(computed) == sorted(ns[1:] * 20)


def test_orientable_query_computes_only_its_own_value(monkeypatch):
    monkeypatch.setattr(counting, "_ORIENTABLE_COUNTS", {0: 1})
    assert count_orientable_dags(7) == ORIENTABLE_COUNTS[6]
    assert counting._ORIENTABLE_COUNTS == {0: 1, 7: ORIENTABLE_COUNTS[6]}


def test_cold_orientable_query_calls_count_dags_once(monkeypatch):
    # V(n) reads D(0 .. n-1) off the published prefix after one call that
    # grows it, instead of one count_dags call per m.
    monkeypatch.setattr(counting, "_ORIENTABLE_COUNTS", {0: 1})
    monkeypatch.setattr(counting, "_DAG_COUNTS", [1])
    calls = []
    real = counting.count_dags

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(counting, "count_dags", counted)
    assert count_orientable_dags(40) == sum(
        (-1) ** (k + 1) * math.comb(40, k) * 2 ** ((k - 1) * (40 - k))
        * real(40 - k)
        for k in range(1, 41)
    )
    assert calls == [39]


def test_negative_orientable_sum_raises(monkeypatch):
    # With D(m) = 0 for m >= 1 only the k = n term survives: -1 at n = 2.
    # The guard must be a real exception, not an assert that -O strips, and
    # a cold memo makes sure the sum is really computed.
    monkeypatch.setattr(counting, "_ORIENTABLE_COUNTS", {0: 1})
    monkeypatch.setattr(counting, "_DAG_COUNTS", [1, 0, 0])
    with pytest.raises(ArithmeticError, match="negative at n=2"):
        count_orientable_dags(2)
    assert counting._ORIENTABLE_COUNTS == {0: 1}  # nothing published


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
