import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecovers import counting, series
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
# the series kernel's incremental binomial
# ----------------------------------------------------------------------


def kernel_binomial(n, k):
    # With a and b the indicators of k and n - k, the only term of the
    # chromatic sum is C(n,k) * 1 * 1 << k(n-k), reached after the
    # incremental binomial has stepped through every index below
    # min(k, n - k).
    a = [int(i == k) for i in range(n + 1)]
    b = [int(i == n - k) for i in range(n + 1)]
    return series.chromatic_sum(n, a, b) >> (k * (n - k))


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
    assert counting._COUNTS[0][:41] == [count_dags(n) for n in range(41)]


def _literal_counts(max_n):
    # Robinson's recurrence and the orientable sum, term by term, with
    # math.comb and full powers of two: none of the counting pass's
    # arithmetic.
    dags = [1]
    for n in range(1, max_n + 1):
        dags.append(sum(
            (-1) ** (k + 1) * math.comb(n, k) * 2 ** (k * (n - k)) * dags[n - k]
            for k in range(1, n + 1)
        ))
    orientable = [1] + [
        sum(
            (-1) ** (k + 1) * math.comb(n, k) * 2 ** ((k - 1) * (n - k)) * dags[n - k]
            for k in range(1, n + 1)
        )
        for n in range(1, max_n + 1)
    ]
    return dags, orientable


def _cold_memo():
    return ([1], [1], [1])


def test_stepwise_growth_equals_one_shot_growth_and_the_literal_formulas(
        monkeypatch):
    dags, orientable = _literal_counts(60)
    assert dags[1:8] == DAG_COUNTS and orientable[1:8] == ORIENTABLE_COUNTS
    # The published products are C(60,j) * D(j) for every j <= 60.
    terms = [math.comb(60, j) * d for j, d in enumerate(dags)]

    monkeypatch.setattr(counting, "_COUNTS", _cold_memo())
    assert count_dags(60) == dags[60]
    one_shot = counting._COUNTS
    assert one_shot == (dags, orientable, terms)

    monkeypatch.setattr(counting, "_COUNTS", _cold_memo())
    for n in range(61):
        assert count_orientable_dags(n) == orientable[n]
        assert count_dags(n) == dags[n]
        assert counting._COUNTS[0] == dags[: n + 1]
    assert counting._COUNTS == one_shot


@st.composite
def mirror_sum_inputs(draw):
    # Both shapes growth uses: the D sum of row m has m products and width
    # m, so j = 0 has no mirror; the V sum has width m - 1 over all m.  A D
    # sum starts at m = 1, so its shape has no width 0.
    width = draw(st.integers(min_value=0, max_value=12))
    size = draw(st.sampled_from([width, width + 1] if width else [1]))
    entries = st.sampled_from([0, 1, -1]) | st.integers(-(1 << 90), 1 << 90)
    return draw(st.lists(entries, min_size=size, max_size=size)), width


@given(mirror_sum_inputs())
@settings(max_examples=300)
def test_mirror_sum_equals_the_literal_sum(inputs):
    terms, width = inputs
    assert counting._mirror_sum(terms, width) == sum(
        (-1) ** j * terms[j] * 2 ** (j * (width - j)) for j in range(len(terms))
    )


def _count_growth_steps(monkeypatch):
    # The pass sums D(m) with width m over the m products of row m, and
    # V(m) with width m - 1; recording the first call names each m grown.
    grown = []
    mirror_sum = counting._mirror_sum

    def counted(terms, width):
        if width == len(terms):
            grown.append(width)
        return mirror_sum(terms, width)

    monkeypatch.setattr(counting, "_mirror_sum", counted)
    return grown


def _grow_cold_memo_from_threads(monkeypatch, count, ns, reference, column):
    # Four threads fill a cold memo at once, each asking for ``ns`` in its
    # own order, and must leave the single-threaded ``reference`` memo; the
    # answers are read from its ``column`` (0 for D, 1 for V).  A tiny
    # switch interval makes them interleave inside the growth code, which
    # used to leave values at the wrong index.
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            monkeypatch.setattr(counting, "_COUNTS", _cold_memo())
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
                assert results[order] == [reference[column][n] for n in order]
            assert counting._COUNTS == reference
    finally:
        sys.setswitchinterval(old_interval)


def test_cold_cache_survives_concurrent_growth(monkeypatch):
    # The reference is a single-threaded run from a cold memo.
    monkeypatch.setattr(counting, "_COUNTS", _cold_memo())
    count_dags(40)
    reference = counting._COUNTS
    assert len(reference[0]) == 41 and reference[0][1:8] == DAG_COUNTS

    grown = _count_growth_steps(monkeypatch)
    _grow_cold_memo_from_threads(monkeypatch, count_dags, [40], reference, 0)
    # Each m is grown once per cold memo, however the threads race.
    assert sorted(grown) == sorted(list(range(1, 41)) * 20)


def test_orientable_cold_cache_survives_concurrent_growth(monkeypatch):
    ns = list(range(0, 41, 3))
    monkeypatch.setattr(counting, "_COUNTS", _cold_memo())
    for n in ns:
        count_orientable_dags(n)
    reference = counting._COUNTS
    assert len(reference[1]) == 40 and reference[1][3] == 4
    assert reference[1][6] == 74581

    grown = _count_growth_steps(monkeypatch)
    _grow_cold_memo_from_threads(
        monkeypatch, count_orientable_dags, ns, reference, 1
    )
    assert sorted(grown) == sorted(list(range(1, 40)) * 20)


def test_orientable_query_publishes_both_prefixes(monkeypatch):
    # One cold V(7) query grows D, V and the products through n = 7, and
    # publishes nothing beyond it.
    monkeypatch.setattr(counting, "_COUNTS", _cold_memo())
    assert count_orientable_dags(7) == ORIENTABLE_COUNTS[6]
    dags = [1] + DAG_COUNTS
    assert counting._COUNTS == (
        dags,
        [1] + ORIENTABLE_COUNTS,
        [math.comb(7, j) * d for j, d in enumerate(dags)],
    )


def test_cold_orientable_query_grows_each_m_once(monkeypatch):
    monkeypatch.setattr(counting, "_COUNTS", _cold_memo())
    grown = _count_growth_steps(monkeypatch)
    dags, orientable = _literal_counts(40)
    assert count_orientable_dags(40) == orientable[40]
    assert grown == list(range(1, 41))
    # A warm query grows nothing.
    assert count_dags(40) == dags[40] and count_orientable_dags(17) == orientable[17]
    assert grown == list(range(1, 41))


def test_negative_orientable_sum_raises(monkeypatch):
    # With D(1) = 0 the products of row 2 are 1 and 0, so D(2) = V(2) = -1.
    # The guard must be a real exception, not an assert that -O strips, and
    # a memo grown only through n = 1 makes sure the sum is really computed.
    memo = ([1, 0], [1, 1], [1, 0])
    monkeypatch.setattr(counting, "_COUNTS", memo)
    with pytest.raises(ArithmeticError, match="negative at n=2"):
        count_dags(2)
    with pytest.raises(ArithmeticError, match="negative at n=2"):
        count_orientable_dags(5)
    assert counting._COUNTS is memo  # nothing published
    assert memo == ([1, 0], [1, 1], [1, 0])


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
