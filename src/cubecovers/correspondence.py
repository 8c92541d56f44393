"""The dictionary between digraphs and characteristic matrices.

Small covers over an n-cube, up to Davis-Januszkiewicz equivalence, are
classified by their reduced characteristic matrix: a square GF(2) matrix
all of whose principal minors equal 1.  Those matrices in turn correspond
to labeled acyclic digraphs: send a digraph G to the transpose of its
adjacency matrix plus the identity,

    G  |->  A(G)^t + I   (over GF(2)).

The map is defined for every digraph, and it lands on a matrix with all
unit principal minors exactly when G is acyclic.  Orientability translates
too: the cover is orientable exactly when every column sum of the matrix is
odd, equivalently when every vertex of G has even out-degree.

This module holds the map, its inverse, and the brute-force counters that
anchor the closed formulas in :mod:`cubecovers.counting`.  Each map is one
batch kernel, :func:`characteristic_slots` and :func:`adjacency_slots`: a
single :func:`cubecovers.gf2.transpose_slots` over k graphs packed into one
int, which ORs (forward) or XORs (inverse) the identity into every slot
before it transposes them.  The value-type maps
:func:`characteristic_matrix` and :func:`digraph_from_characteristic` run
them as batches of one, while the matrix records of
:mod:`cubecovers.checks` call them once per n on all the acyclic digraphs,
without building a value per graph.  The digraph-side counter counts the
canonical code range by the reach states of :mod:`cubecovers.digraph` (its
module docstring gives the argument), never uses the recurrences it
checks and never materializes a graph list, so a count over
``[0, 2^(n(n-1)))`` can be split into disjoint subranges and the partial
sums added back in any order.  The
matrix-side counters grow the matrices with all unit principal minors one
index at a time by Schur's formula
(:func:`cubecovers.gf2.count_unit_minor_matrices`; that module's docstring
gives the growth step) and never look at a graph.  The two sides share no
code in either direction: neither :mod:`cubecovers.digraph` nor
:mod:`cubecovers.gf2` imports anything from the package, so only this
module and :mod:`cubecovers.checks` know both.
:func:`unit_diagonal_matrices` keeps the full scan of ``2^(n(n-1))``
candidates, each decoded from its code by
:func:`cubecovers.digraph.code_to_rows`, as the tests' reference for that
walk, side n of :func:`cubecovers.gf2.unit_minor_walk`.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from operator import or_, xor
from typing import NamedTuple

from cubecovers.digraph import Digraph, code_to_rows, count_acyclic_codes
from cubecovers.gf2 import (
    BitMatrix,
    count_unit_minor_matrices,
    pack_rows,
    transpose_slots,
    unpack_rows,
)


__all__ = [
    "DagCounts",
    "adjacency_slots",
    "brute_counts",
    "brute_count_characteristic_matrices",
    "brute_count_orientable_characteristic_matrices",
    "characteristic_matrix",
    "characteristic_slots",
    "digraph_from_characteristic",
    "unit_diagonal_matrices",
]

class DagCounts(NamedTuple):
    """Result of one brute-force pass: all acyclic, and acyclic with every
    out-degree even (the orientable ones)."""

    dags: int
    orientable: int


# ----------------------------------------------------------------------
# the correspondence itself
# ----------------------------------------------------------------------


def characteristic_slots(adjacency: int, n: int, k: int = 1) -> int:
    """The rows of A^t + I for each of the ``k`` digraphs whose adjacency
    rows ``adjacency`` packs, one per slot of
    :func:`cubecovers.gf2.slot_layout`, packed the same way.

    The adjacency diagonal is zero, so adding the identity just sets the
    diagonal to 1, and the transpose of A + I is A^t + I: the identity is
    ORed into every slot and one transpose builds the whole batch.
    """
    return transpose_slots(adjacency, n, k, or_)


def adjacency_slots(characteristic: int, n: int, k: int = 1) -> int:
    """Invert :func:`characteristic_slots` on matrices whose diagonal is all
    1: the identity is XORed into every slot, which strips the diagonal,
    and one transpose builds the whole batch."""
    return transpose_slots(characteristic, n, k, xor)


def characteristic_matrix(graph: Digraph) -> BitMatrix:
    """Transpose of the adjacency matrix plus the identity, over GF(2).

    Total on digraphs (no acyclicity requirement): testing the equivalences
    on the full graph space is deliberate.
    """
    n = graph.n
    return BitMatrix(n, unpack_rows(characteristic_slots(pack_rows(graph.rows, n), n), n))


def digraph_from_characteristic(matrix: BitMatrix) -> Digraph:
    """Invert :func:`characteristic_matrix`.

    Requires every diagonal entry to be 1 (subtracting the identity must
    leave a loop-free adjacency matrix).  The result is acyclic exactly when
    the input has all unit principal minors.
    """
    n = matrix.n
    try:
        return Digraph(n, unpack_rows(adjacency_slots(pack_rows(matrix.rows, n), n), n))
    except ValueError:
        # Stripping the identity turns a zero diagonal entry (i, i) into a
        # loop at vertex i, which Digraph refuses.
        i = next(i for i, mask in enumerate(matrix.rows) if not (mask >> i) & 1)
        raise ValueError(
            f"diagonal entry ({i}, {i}) is 0; not a characteristic matrix"
        ) from None


# ----------------------------------------------------------------------
# brute-force counting over digraphs
# ----------------------------------------------------------------------


def brute_counts(
    n: int,
    start: int = 0,
    stop: int | None = None,
    jobs: int = 1,
) -> DagCounts:
    """Brute-force counts over the code range ``[start, stop)``, by the
    reach-state count of :func:`cubecovers.digraph.count_acyclic_codes`.
    That count lists no code, so no n is refused for its size: the full
    range at n = 12 takes about 0.04 s (see the memo comment on
    ``_chain_count`` in :mod:`cubecovers.digraph`).

    ``stop`` defaults to the full range ``2^(n(n-1))``.  With ``jobs > 1``
    the range is cut into ``jobs`` slices of equal size, give or take a
    code, and counted by as many worker processes, at most
    ``os.cpu_count()`` of them.  That is slower than one job, mostly
    because a slice is a range: it is counted by the reach states of each
    bound's path, not by the chains of the full range.  On a 2-core VM
    with Python 3.11.7, ``brute_counts(9)`` takes about 2 ms with one job
    and 0.10-0.11 s with two; either half of its range, counted alone in
    process, takes 0.04-0.05 s, and starting the pool about 0.02 s.  The
    result is the same for any job count or partition, because each slice
    is a pure function of its bounds.  Falls back to in-process execution
    when worker processes cannot be spawned.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    total = 1 << (n * (n - 1))
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise ValueError(f"bad code range [{start}, {stop}) for n={n}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")

    jobs = min(jobs, stop - start, os.cpu_count() or 1)
    if jobs > 1:
        cuts = [start + (stop - start) * i // jobs for i in range(jobs + 1)]
        import concurrent.futures  # only here: it costs every start-up otherwise

        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                partials = list(pool.map(
                    count_acyclic_codes, [n] * (len(cuts) - 1), cuts[:-1], cuts[1:]
                ))
            return DagCounts(*map(sum, zip(*partials)))
        except (OSError, concurrent.futures.BrokenExecutor):
            pass  # no worker processes here; count in-process, same totals
    return DagCounts(*count_acyclic_codes(n, start, stop))


# ----------------------------------------------------------------------
# brute-force counting over matrices
# ----------------------------------------------------------------------


def unit_diagonal_matrices(n: int) -> Iterator[BitMatrix]:
    """All ``2^(n(n-1))`` GF(2) matrices with every diagonal entry 1.

    A matrix with a zero diagonal entry fails its 1x1 principal minor, so
    restricting to unit diagonals loses nothing when hunting for matrices
    with all unit principal minors.  Matrix number ``c`` is the adjacency
    matrix of the digraph with code ``c`` with its diagonal set, decoded by
    :func:`~cubecovers.digraph.code_to_rows`.  Filtered through
    :meth:`~cubecovers.gf2.BitMatrix.has_unit_principal_minors` they are
    the tests' reference for side n of :func:`cubecovers.gf2.unit_minor_walk`.
    The scan is lazy, so a caller pays only for the matrices it takes, and
    ``code_to_rows`` refuses a negative n on the first ``next()``.
    """
    for code in range(1 << (n * (n - 1))):
        rows = code_to_rows(n, code)
        yield BitMatrix(n, tuple(mask | 1 << i for i, mask in enumerate(rows)))


def brute_count_characteristic_matrices(n: int) -> int:
    """Count GF(2) matrices with all unit principal minors, by the grown walk
    of :func:`cubecovers.gf2.count_unit_minor_matrices`.

    Independent of the digraph route on purpose: this counter never looks at
    a graph, so its agreement with ``brute_counts(n).dags`` checks the
    correspondence itself.  It refuses no n but a negative one, and costs
    what the walk costs: n = 6 takes about 1.5 s on one core (Python
    3.11.7), and n = 7 walks all 3,781,503 members of side 6.  It stays a
    delegation, not an alias, because ``perfbench/spans.py`` traces it by
    this name.
    """
    return count_unit_minor_matrices(n)


def brute_count_orientable_characteristic_matrices(n: int) -> int:
    """Count matrices with all unit principal minors and all odd column sums,
    at the cost of :func:`brute_count_characteristic_matrices`, to which it
    is the orientable twin; it stays a delegation for the same reason."""
    return count_unit_minor_matrices(n, odd_columns=True)
