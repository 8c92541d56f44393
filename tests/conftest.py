"""Shared fixtures, the reference transpose and the reference convolution.

The 4-vertex pair below is hand-checked: transpose-plus-identity applied to
the graph's adjacency matrix gives exactly the matrix, the graph is acyclic,
and its out-degree vector (1, 3, 0, 1) is not all even, so the matching
cover is not orientable.  Vertex labels are 0-based everywhere in this
package; material drawn with 1-based labels is stored shifted down by one.
"""

import math

import pytest

from cubecovers import BitMatrix, Digraph, counting

SAMPLE_EDGES = [(0, 3), (1, 0), (1, 2), (1, 3), (3, 2)]

SAMPLE_MATRIX_BITS = [
    [1, 1, 0, 0],
    [0, 1, 0, 0],
    [0, 1, 1, 1],
    [1, 1, 0, 1],
]


@pytest.fixture
def sample_graph() -> Digraph:
    return Digraph.from_edges(4, SAMPLE_EDGES)


def _mask(bits) -> int:
    return sum(bit << j for j, bit in enumerate(bits))


@pytest.fixture
def sample_matrix() -> BitMatrix:
    return BitMatrix(4, tuple(map(_mask, SAMPLE_MATRIX_BITS)))


@pytest.fixture
def corrupted_dag_count(monkeypatch):
    """A counting memo grown through n = 3 that holds D(3) = 26, not 25.

    Its products C(3,j) * D(j) and its V(0 .. 3) are what the counting pass
    would keep beside that value, so every larger index grows from it.
    """
    monkeypatch.setattr(
        counting, "_COUNTS", ([1, 1, 3, 26], [1, 1, 1, 4], [1, 3, 9, 26])
    )


def set_bit_transpose(rows, n):
    """The columns of the matrix whose rows are the bitmasks ``rows``, by a
    walk over the set bits: the reference for ``BitMatrix.transpose`` and
    the batch transpose, which pack the rows into one int instead."""
    cols = [0] * n
    for i, mask in enumerate(rows):
        bit = 1 << i
        while mask:
            low = mask & -mask
            cols[low.bit_length() - 1] |= bit
            mask ^= low
    return tuple(cols)


def chromatic_sum(n, a, b):
    """The exact integer sum over ``k = 0 .. n`` of

        C(n,k) * a[k] * b[n-k] * 2^(k(n-k)),

    the n-th coefficient of the chromatic convolution of ``a`` and ``b``,
    taken term by term as written: the reference for the integer passes of
    ``cubecovers.series``, which pair terms k and n - k under one binomial
    and sum the pairs in Horner order."""
    return sum(math.comb(n, k) * a[k] * b[n - k] << k * (n - k) for k in range(n + 1))
