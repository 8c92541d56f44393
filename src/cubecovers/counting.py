"""Exact closed-form counts of labeled DAGs and of the orientable covers.

Let D(n) be the number of acyclic digraphs on n labeled vertices, which is
also the number of small covers over an n-cube up to Davis-Januszkiewicz
equivalence.  Robinson's inclusion-exclusion recurrence computes it exactly:

    D(n) = sum_{k=1..n} (-1)^(k+1) * C(n,k) * 2^(k(n-k)) * D(n-k),   D(0) = 1.

The orientable covers correspond to acyclic digraphs all of whose vertices
have even out-degree; their count V(n) satisfies the analogous alternating
sum with one factor of 2 fewer per selected vertex:

    V(n) = sum_{k=1..n} (-1)^(k+1) * C(n,k) * 2^((k-1)(n-k)) * D(n-k).

Both are sums of terms C(n,k) * a * b * 2^s, as is every coefficient of a
product of chromatic series (:mod:`cubecovers.series`).  One integer kernel,
:func:`chromatic_sum`, evaluates them all: it multiplies the small factors
first and shifts last, keeps the binomial incrementally, and collects
positive and negative terms apart, in plain Python integers.  Both
sequences are memoized.  D(n) grows like 2^(n^2/2) and leaves 64-bit range
near n = 11.
"""

from __future__ import annotations

import math
import threading


__all__ = [
    "chromatic_sum",
    "count_dags",
    "count_orientable_dags",
    "sequence_table",
]


def chromatic_sum(
    n: int, a: list[int], b: list[int], start: int = 0, lag: int = 0
) -> int:
    """The exact integer sum over ``k = start .. n`` of

        C(n,k) * a[k] * b[n-k] * 2^((k - lag) * (n - k)),

    the n-th coefficient of the chromatic convolution of ``a`` and ``b``
    when ``lag`` is 0.  Each term multiplies the small factors first and
    shifts last, so no k(n-k)-bit power of two is ever built, and no
    big-by-big product is taken when ``a`` holds the small numbers.  The
    binomial is updated incrementally, and positive and negative terms go
    to separate accumulators.  Needs ``start >= lag`` for every term to be
    an integer.
    """
    pos = neg = 0
    c = math.comb(n, start)
    for k in range(start, n + 1):
        x = a[k]
        if x:
            y = b[n - k]
            if y:
                term = (c * x * y) << ((k - lag) * (n - k))
                if term > 0:
                    pos += term
                else:
                    neg -= term
        c = c * (n - k) // (k + 1)
    return pos - neg


# Prefix of the DAG-count sequence, grown on demand.  Readers never lock: the
# list only grows, and every index below its length holds its final value.
# Growth is computed in a local copy and published under the lock; unlocked
# appends from two threads can land a value at the wrong index.
_DAG_COUNTS: list[int] = [1]
_DAG_COUNTS_LOCK = threading.Lock()

# V(n) needs D(0 .. n-1) but no other V, so its memo is keyed by n: one
# query does not pay for all the smaller ones.  Each value is computed once,
# under the lock, and published only if it passes the sign check.
_ORIENTABLE_COUNTS: dict[int, int] = {0: 1}
_ORIENTABLE_COUNTS_LOCK = threading.Lock()


def count_dags(n: int) -> int:
    """Number of acyclic digraphs on ``n`` labeled vertices (memoized)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= len(_DAG_COUNTS):
        with _DAG_COUNTS_LOCK:
            values = _DAG_COUNTS[:]
            signs = [(-1) ** k for k in range(n + 1)]  # E(-x)
            while len(values) <= n:
                values.append(-chromatic_sum(len(values), signs, values, start=1))
            _DAG_COUNTS.extend(values[len(_DAG_COUNTS):])
    return _DAG_COUNTS[n]


def count_orientable_dags(n: int) -> int:
    """Number of acyclic digraphs on ``n`` labeled vertices with every
    out-degree even, which is the number of orientable small covers over the
    n-cube up to Davis-Januszkiewicz equivalence (memoized).

    For ``n = 0`` the answer is 1: the empty digraph qualifies vacuously.
    (The chromatic-series normalization in :mod:`cubecovers.series` instead
    gives the constant term 0; see the note there.)
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n not in _ORIENTABLE_COUNTS:
        with _ORIENTABLE_COUNTS_LOCK:
            if n not in _ORIENTABLE_COUNTS:
                count_dags(n - 1)  # one call publishes D(0 .. n-1)
                dags = _DAG_COUNTS[:n]
                signs = [(-1) ** k for k in range(n + 1)]  # E(-x)
                value = -chromatic_sum(n, signs, dags, start=1, lag=1)
                if value < 0:
                    raise ArithmeticError(f"alternating sum went negative at n={n}")
                _ORIENTABLE_COUNTS[n] = value
    return _ORIENTABLE_COUNTS[n]


def sequence_table(max_n: int) -> list[tuple[int, int, int]]:
    """Rows ``(n, D(n), V(n))`` for ``n = 0 .. max_n``, all exact."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return [(n, count_dags(n), count_orientable_dags(n)) for n in range(max_n + 1)]
