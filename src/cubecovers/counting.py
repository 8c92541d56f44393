"""Exact closed-form counts of labeled DAGs and of the orientable covers.

Let D(n) be the number of acyclic digraphs on n labeled vertices, which is
also the number of small covers over an n-cube up to Davis-Januszkiewicz
equivalence.  Robinson's inclusion-exclusion recurrence computes it exactly:

    D(n) = sum_{k=1..n} (-1)^(k+1) * C(n,k) * 2^(k(n-k)) * D(n-k),   D(0) = 1.

The orientable covers correspond to acyclic digraphs all of whose vertices
have even out-degree; their count V(n) satisfies the analogous alternating
sum with one factor of 2 fewer per selected vertex:

    V(n) = sum_{k=1..n} (-1)^(k+1) * C(n,k) * 2^((k-1)(n-k)) * D(n-k).

Everything here is exact Python integer arithmetic; the powers of two are
built by shifting and the alternating partial sums stay signed until the
final (provably nonnegative) value is returned.  D(n) grows like 2^(n^2/2)
and leaves 64-bit range near n = 11.
"""

from __future__ import annotations

import math
import threading


__all__ = [
    "binomial",
    "count_dags",
    "count_orientable_dags",
    "dag_count_sequence",
    "sequence_table",
]


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k) for 0 <= k <= n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if k > n:
        raise ValueError(f"binomial({n}, {k}): k exceeds n")
    return math.comb(n, k)


def dag_count_sequence(max_n: int) -> list[int]:
    """The list ``[D(0), ..., D(max_n)]`` computed from scratch.

    No shared state: this is the reference path the memoized
    :func:`count_dags` is checked against.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    values = [1]
    for n in range(1, max_n + 1):
        acc = 0
        for k in range(1, n + 1):
            term = binomial(n, k) * (1 << (k * (n - k))) * values[n - k]
            acc += term if k % 2 else -term
        values.append(acc)
    return values


# Prefix of the DAG-count sequence, grown on demand.  Readers never lock: the
# list only grows, and every index below its length holds its final value.
# Growth is computed in a local copy and published under the lock; unlocked
# appends from two threads can land a value at the wrong index.
_DAG_COUNTS: list[int] = [1]
_DAG_COUNTS_LOCK = threading.Lock()


def count_dags(n: int) -> int:
    """Number of acyclic digraphs on ``n`` labeled vertices (memoized)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= len(_DAG_COUNTS):
        with _DAG_COUNTS_LOCK:
            values = _DAG_COUNTS[:]
            while len(values) <= n:
                m = len(values)
                acc = 0
                for k in range(1, m + 1):
                    term = binomial(m, k) * (1 << (k * (m - k))) * values[m - k]
                    acc += term if k % 2 else -term
                values.append(acc)
            _DAG_COUNTS.extend(values[len(_DAG_COUNTS):])
    return _DAG_COUNTS[n]


def count_orientable_dags(n: int) -> int:
    """Number of acyclic digraphs on ``n`` labeled vertices with every
    out-degree even, which is the number of orientable small covers over the
    n-cube up to Davis-Januszkiewicz equivalence.

    For ``n = 0`` the answer is 1: the empty digraph qualifies vacuously.
    (The chromatic-series normalization in :mod:`cubecovers.series` instead
    gives the constant term 0; see the note there.)
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    acc = 0
    for k in range(1, n + 1):
        term = binomial(n, k) * (1 << ((k - 1) * (n - k))) * count_dags(n - k)
        acc += term if k % 2 else -term
    if acc < 0:
        raise ArithmeticError(f"alternating sum went negative at n={n}")
    return acc


def sequence_table(max_n: int) -> list[tuple[int, int, int]]:
    """Rows ``(n, D(n), V(n))`` for ``n = 0 .. max_n``, all exact."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return [(n, count_dags(n), count_orientable_dags(n)) for n in range(max_n + 1)]
