"""Exact closed-form counts of labeled DAGs and of the orientable covers.

Let D(n) be the number of acyclic digraphs on n labeled vertices, which is
also the number of small covers over an n-cube up to Davis-Januszkiewicz
equivalence.  Robinson's inclusion-exclusion recurrence computes it exactly:

    D(n) = sum_{k=1..n} (-1)^(k+1) * C(n,k) * 2^(k(n-k)) * D(n-k),   D(0) = 1.

The orientable covers correspond to acyclic digraphs all of whose vertices
have even out-degree; their count V(n) satisfies the analogous alternating
sum with one factor of 2 fewer per selected vertex:

    V(n) = sum_{k=1..n} (-1)^(k+1) * C(n,k) * 2^((k-1)(n-k)) * D(n-k).

Written over j = n - k, both sums read the same products T_j = C(n,j) * D(j)
for j < n:

    D(n) = (-1)^(n+1) * sum_j (-1)^j * T_j << j(n-j),
    V(n) = (-1)^(n+1) * sum_j (-1)^j * T_j << j(n-1-j).

So one pass grows both sequences together.  It keeps the products T_j and
advances each from n - 1 to n with the exact ``T_j * n // (n - j)``, two
small-integer steps in place of a big multiply by an n-bit binomial.  In
each sum, j and its mirror (n - j for D, n - 1 - j for V) share a shift,
so the pair is added first, and the pairs are summed in Horner order
from the middle down.  The D list, the V list and the T_j are published
together; any query grows all three.

A cold single query therefore also pays for V.  Against a D-only sum
with binomial products, a cold ``count_dags(n)`` is slower up to about
n = 800 and faster beyond, and growing D and V together through n = 700
takes half the time of two separate sums.  :mod:`cubecovers.series`
checks these counts through its own arithmetic.  D(n) grows like
2^(n^2/2) and leaves 64-bit range near n = 11.
"""

from __future__ import annotations

import threading


__all__ = [
    "count_dags",
    "count_orientable_dags",
    "sequence_table",
]


# The memo: D(0 .. m-1), V(0 .. m-1) and T_j = C(m-1, j) * D(j) for
# j < m, three lists published as one tuple.  Readers never lock.  Growth
# builds new lists under the lock and rebinds the tuple in one step, so a
# reader sees the old prefix or the new one, never a mix.
_COUNTS: tuple[list[int], list[int], list[int]] = ([1], [1], [1])
_COUNTS_LOCK = threading.Lock()


def _mirror_sum(terms: list[int], width: int) -> int:
    """sum_j (-1)^j * terms[j] << j(width - j), with j added to its mirror
    width - j (when that index exists) before their shared shift, in
    Horner order: j falls from width/2, and the total moves by the gap to
    the next shift."""
    total = 0
    top = len(terms) - 1
    same_sign = width % 2 == 0  # (-1)^(width - j) == (-1)^j
    prev = (width // 2) * (width - width // 2)
    for j in range(width // 2, -1, -1):
        mirror = width - j
        x = terms[j]
        if j < mirror <= top:
            x = x + terms[mirror] if same_sign else x - terms[mirror]
        shift = j * mirror
        if j % 2:
            total = (total << (prev - shift)) - x
        else:
            total = (total << (prev - shift)) + x
        prev = shift
    return total


def _grow(n: int) -> None:
    """Publish D, V and the T_j through index ``n``, each m grown once."""
    global _COUNTS
    with _COUNTS_LOCK:
        dags, orientable, terms = _COUNTS
        if n < len(dags):
            return
        dags, orientable = dags[:], orientable[:]
        for m in range(len(dags), n + 1):
            # C(m,j) = C(m-1,j) * m / (m-j); T_0 is always 1.
            terms = [1] + [terms[j] * m // (m - j) for j in range(1, m)]
            sign = 1 if m % 2 else -1
            dag = sign * _mirror_sum(terms, m)
            value = sign * _mirror_sum(terms, m - 1)
            if value < 0:
                raise ArithmeticError(f"alternating sum went negative at n={m}")
            terms.append(dag)
            dags.append(dag)
            orientable.append(value)
        _COUNTS = (dags, orientable, terms)


def count_dags(n: int) -> int:
    """Number of acyclic digraphs on ``n`` labeled vertices (memoized)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= len(_COUNTS[0]):
        _grow(n)
    return _COUNTS[0][n]


def count_orientable_dags(n: int) -> int:
    """Number of acyclic digraphs on ``n`` labeled vertices with every
    out-degree even, which is the number of orientable small covers over the
    n-cube up to Davis-Januszkiewicz equivalence (memoized).

    For ``n = 0`` the answer is 1: the empty digraph qualifies vacuously
    (the series in :mod:`cubecovers.series` have constant term 0 instead).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= len(_COUNTS[1]):
        _grow(n)
    return _COUNTS[1][n]


def sequence_table(max_n: int) -> list[tuple[int, int, int]]:
    """Rows ``(n, D(n), V(n))`` for ``n = 0 .. max_n``, all exact."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return [(n, count_dags(n), count_orientable_dags(n)) for n in range(max_n + 1)]
