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
anchor the closed formulas in :mod:`cubecovers.counting`.  The digraph-side
counter walks the canonical code range with the block kernel of
:mod:`cubecovers.digraph` (its module docstring gives the argument), never
uses the recurrences it checks and never materializes a graph list, so a
count over ``[0, 2^(n(n-1)))`` can be split into disjoint subranges and the
partial sums added back in any order.  The matrix-side counters share
nothing with it: they grow the matrices with all unit principal minors one
index at a time by Schur's formula
(:func:`cubecovers.gf2.count_unit_minor_matrices`; the growth step and why
it lists each member once are in that module's docstring), using GF(2)
linear algebra alone and never looking at a graph.
:func:`unit_diagonal_matrices` keeps the full scan of ``2^(n(n-1))``
candidates as the tests' reference for that walk.
"""

from __future__ import annotations

import concurrent.futures
import os
from collections.abc import Iterator
from typing import NamedTuple

from cubecovers.digraph import (
    DEFAULT_ENUMERATION_CAP,
    Digraph,
    EnumerationCapExceeded,
    _check_cap,
    count_acyclic_codes,
    enumerate_digraphs,
)
from cubecovers.gf2 import BitMatrix, count_unit_minor_matrices, transpose_masks


__all__ = [
    "DagCounts",
    "brute_counts",
    "brute_count_characteristic_matrices",
    "brute_count_orientable_characteristic_matrices",
    "characteristic_matrix",
    "digraph_from_characteristic",
    "unit_diagonal_matrices",
]

# The matrix-side counters grow their matrices one index at a time (see
# :func:`cubecovers.gf2.unit_minor_matrices`).  On one core of a 2-core VM
# with Python 3.11, both counts together take about 0.07 s at n = 5 and
# 7.2-8.2 s at n = 6 (three runs), the optional deep check.  `verify` stays
# at 4: its matrix checks also compare the member set with the image of
# every one of the 2^(n(n-1)) digraphs, and that per-graph pass takes about
# 20 s at n = 5.
MATRIX_BRUTEFORCE_CAP = 4


class DagCounts(NamedTuple):
    """Result of one brute-force pass: all acyclic, and acyclic with every
    out-degree even (the orientable ones)."""

    dags: int
    orientable: int


# ----------------------------------------------------------------------
# the correspondence itself
# ----------------------------------------------------------------------


def characteristic_matrix(graph: Digraph) -> BitMatrix:
    """Transpose of the adjacency matrix plus the identity, over GF(2).

    Total on digraphs (no acyclicity requirement): testing the equivalences
    on the full graph space is deliberate.  The adjacency diagonal is zero,
    so adding the identity just sets the diagonal to 1, and the transpose of
    A + I is A^t + I: one transposing pass builds the result.
    """
    return BitMatrix(graph.n, transpose_masks(
        (mask | (1 << u) for u, mask in enumerate(graph.rows)), graph.n
    ))


def digraph_from_characteristic(matrix: BitMatrix) -> Digraph:
    """Invert :func:`characteristic_matrix`.

    Requires every diagonal entry to be 1 (subtracting the identity must
    leave a loop-free adjacency matrix).  The result is acyclic exactly when
    the input has all unit principal minors.  The diagonal is stripped and
    the matrix transposed in one pass.
    """
    for i, mask in enumerate(matrix.rows):
        if not (mask >> i) & 1:
            raise ValueError(
                f"diagonal entry ({i}, {i}) is 0; not a characteristic matrix"
            )
    return Digraph(matrix.n, transpose_masks(
        (mask ^ (1 << i) for i, mask in enumerate(matrix.rows)), matrix.n
    ))


# ----------------------------------------------------------------------
# brute-force counting over digraphs
# ----------------------------------------------------------------------


def brute_counts(
    n: int,
    start: int = 0,
    stop: int | None = None,
    jobs: int = 1,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> DagCounts:
    """Brute-force counts over the code range ``[start, stop)``.

    ``stop`` defaults to the full range ``2^(n(n-1))``.  With ``jobs > 1``
    the range is cut into pieces aligned to the top two row chunks of the
    code (``2^(2(n-1))`` of them over the full range), clipped at its ends,
    and worker processes, at most ``os.cpu_count()`` of them, each take the
    next piece as they finish one: the pruned walk puts most of the work in
    the low pieces, where the top rows are sparse, so equal slices would
    leave workers idle.  The result is the same for any job count or
    partition, because each piece is a pure function of its bounds.  Falls
    back to in-process execution when worker processes cannot be spawned.
    """
    _check_cap(n, cap)
    total = 1 << (n * (n - 1))
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise ValueError(f"bad code range [{start}, {stop}) for n={n}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")

    jobs = min(jobs, stop - start, os.cpu_count() or 1) or 1
    if jobs == 1:
        return DagCounts(*count_acyclic_codes(n, start, stop))

    size = 1 << ((n - 2) * (n - 1))  # codes sharing the top two row chunks
    cuts = [start, *range(start - start % size + size, stop, size), stop]
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            partials = list(pool.map(
                count_acyclic_codes, [n] * (len(cuts) - 1), cuts[:-1], cuts[1:]
            ))
    except (OSError, concurrent.futures.BrokenExecutor):
        # Sandboxed environments without process support; same totals either way.
        partials = [count_acyclic_codes(n, start, stop)]

    return DagCounts(*map(sum, zip(*partials)))


# ----------------------------------------------------------------------
# brute-force counting over matrices
# ----------------------------------------------------------------------


def unit_diagonal_matrices(n: int) -> Iterator[BitMatrix]:
    """All ``2^(n(n-1))`` GF(2) matrices with every diagonal entry 1.

    A matrix with a zero diagonal entry fails its 1x1 principal minor, so
    restricting to unit diagonals loses nothing when hunting for matrices
    with all unit principal minors.  Matrix number ``c`` is the adjacency
    matrix of the digraph with code ``c`` with its diagonal set, read off
    :func:`~cubecovers.digraph.enumerate_digraphs` in the same order and
    under the same cap.  Filtered through
    :meth:`~cubecovers.gf2.BitMatrix.has_unit_principal_minors` they are
    the tests' reference for :func:`cubecovers.gf2.unit_minor_matrices`.
    """
    for graph in enumerate_digraphs(n):
        yield BitMatrix(n, tuple(mask | 1 << i for i, mask in enumerate(graph.rows)))


def brute_count_characteristic_matrices(n: int, cap: int = MATRIX_BRUTEFORCE_CAP) -> int:
    """Count GF(2) matrices with all unit principal minors, by the grown walk.

    Independent of the digraph route on purpose: this counter never looks at
    a graph, so its agreement with ``brute_counts(n).dags`` checks the
    correspondence itself.
    """
    if n > cap:
        raise EnumerationCapExceeded(n, cap)
    return count_unit_minor_matrices(n)


def brute_count_orientable_characteristic_matrices(
    n: int, cap: int = MATRIX_BRUTEFORCE_CAP
) -> int:
    """Count matrices with all unit principal minors and all odd column sums."""
    if n > cap:
        raise EnumerationCapExceeded(n, cap)
    return count_unit_minor_matrices(n, odd_columns=True)
