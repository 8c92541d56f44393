"""Labeled simple digraphs and their exhaustive enumeration.

A digraph on vertices ``0 .. n-1`` is stored as a tuple of adjacency
bitmasks: bit ``j`` of ``rows[u]`` means there is an edge from ``u`` to
``j``.  Graphs are simple (no loops, set semantics on edges) and immutable.

Every graph has a canonical integer code: the ``n*(n-1)`` off-diagonal
adjacency bits read in row-major order.  Enumeration walks that integer
range in order, which makes streams deterministic, resumable, and trivially
partitionable into disjoint code ranges for parallel counting.

The acyclic graphs are found a block of codes at a time.  Rows 0 and 1
are the lowest ``2(n-1)`` bits of a code, so each aligned block of
``2^(2(n-1))`` consecutive codes shares rows ``2 .. n-1``.  Call that
shared part H, with vertices 0 and 1 given no out-edges, and in H let A be
the vertices that reach 1 and R the vertices that reach 0, 0 included.
Every cycle of a graph G in the block lies in H, passes through 1 or
passes through 0.  So G is acyclic exactly when H is acyclic, row 1 avoids
A, and row 0 avoids R, and also A and 1 when vertex 1 reaches 0; vertex 1
reaches 0 when row 1 has its edge to 0 or points into R.  One acyclic H
with its A and R therefore decides all the codes of its block, and their
number is a closed form in four set sizes (:func:`count_acyclic_codes`).

The blocks themselves are walked depth first, one row chunk at a time from
row ``n-1`` down to row 2, which visits them in increasing code order.  A
cycle among the rows assigned so far is a cycle of every completion, so a
chunk that closes one is dropped with every block below it, and only
prefixes that are still acyclic are extended.  The edge into vertex 0 (bit
0 of a chunk) closes no cycle in H, so it is decided once for both of its
values.  Each assignment of rows ``2 .. n-1`` is thus either visited or
skipped on a cycle witness, and counts made this way remain a brute-force
oracle, independent of the recurrences in :mod:`cubecovers.counting`.

The module imports nothing from the rest of the package: the graph side of
the dictionary shares no code with the matrix side in :mod:`cubecovers.gf2`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "Digraph",
    "EnumerationCapExceeded",
    "acyclic_codes",
    "code_to_rows",
    "count_acyclic_codes",
    "decode_slots",
    "enumerate_acyclic",
    "enumerate_digraphs",
    "even_out_degree_slots",
    "is_acyclic_dfs",
    "out_degrees_even",
    "rows_to_code",
]

# 2^(n(n-1)) graphs: n=5 is about a million, n=6 about a billion, n=7
# about 4e12.  Measured on one core of a 2-core VM with Python 3.11, the
# pruned walk counts n=5 in 2-4 ms, n=6 in 0.21-0.37 s (139,008 of its
# 2^20 blocks have an acyclic shared part) and n=7 in 79 s.  Callers may
# raise the cap.
DEFAULT_ENUMERATION_CAP = 6


class EnumerationCapExceeded(ValueError):
    """Raised when an exhaustive walk (over digraphs or over matrices) is
    asked for at an n above its cap."""

    def __init__(self, n: int, cap: int):
        super().__init__(
            f"refusing an exhaustive walk at n = {n}: the cap is {cap}, "
            f"raise it explicitly if you really mean it"
        )
        self.n = n
        self.cap = cap


@dataclass(frozen=True)
class Digraph:
    """A simple digraph on ``n`` labeled vertices, adjacency as bitmasks."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n, rows = self.n, self.rows
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if not isinstance(rows, tuple):
            rows = tuple(rows)
            object.__setattr__(self, "rows", rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        limit = 1 << n
        loop = 1  # bit u of row u
        for mask in rows:
            if not (isinstance(mask, int) and 0 <= mask < limit):
                raise ValueError(f"row {loop.bit_length() - 1} is {mask!r}, "
                                 f"not a mask on {n} columns")
            if mask & loop:
                raise ValueError(f"loop at vertex {loop.bit_length() - 1}: "
                                 f"graphs here are simple")
            loop <<= 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Digraph:
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}: graphs here are simple")
            masks[u] |= 1 << v
        return cls(n, tuple(masks))

    @classmethod
    def from_code(cls, n: int, code: int) -> Digraph:
        """Decode the canonical integer encoding (inverse of :meth:`code`)."""
        return cls(n, code_to_rows(n, code))

    def code(self) -> int:
        """Canonical encoding: off-diagonal bits, row major, as one integer."""
        return rows_to_code(self.rows)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in range(self.n)
            if (self.rows[u] >> v) & 1
        ]

    def out_degree(self, v: int) -> int:
        """Number of edges leaving ``v`` (the row sum of the adjacency matrix)."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self.rows[v].bit_count()

    def in_degree(self, v: int) -> int:
        """Number of edges entering ``v`` (the column sum of the adjacency matrix)."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return sum((mask >> v) & 1 for mask in self.rows)

    def all_out_degrees_even(self) -> bool:
        return out_degrees_even(self.rows)


def code_to_rows(n: int, code: int) -> tuple[int, ...]:
    """The adjacency rows of the ``n``-vertex digraph with canonical code
    ``code``: row u is the u-th ``(n-1)``-bit chunk with its diagonal zero
    spliced in."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    width = n - 1
    if not 0 <= code < (1 << (n * width if n else 0)):
        raise ValueError(f"code {code} out of range for n={n}")
    chunk_mask = (1 << width) - 1 if n else 0
    return tuple([
        _splice_diagonal((code >> (u * width)) & chunk_mask, u) for u in range(n)
    ])


def rows_to_code(rows: tuple[int, ...]) -> int:
    """The canonical code of a loop-free digraph given by its adjacency
    rows: the off-diagonal bits, row major, as one integer."""
    width = len(rows) - 1
    code = 0
    for u, mask in enumerate(rows):
        chunk = (mask & ((1 << u) - 1)) | ((mask >> (u + 1)) << u)
        code |= chunk << (u * width)
    return code


def out_degrees_even(rows: Iterable[int]) -> bool:
    """Whether every adjacency row has an even number of edges: the
    orientability test on the graph side of the dictionary, for one graph.

    Not the batch of one of :func:`even_out_degree_slots`: packing one
    graph and folding it took 1.7 us against this loop's 0.2 us at n = 5,
    and ``enumerate --orientable`` runs it on every DAG, so the batch of
    one took that command from 0.20 to 0.24 s at n = 5 (2-core VM, Python
    3.11.7).
    """
    for mask in rows:
        if mask.bit_count() & 1:
            return False
    return True


# ----------------------------------------------------------------------
# batches of digraphs in one int
# ----------------------------------------------------------------------
#
# A batch packs k digraphs into one int, one slot each.  The caller gives
# the layout: ``starts`` has one bit at the start of each slot, and row u
# of a slot's digraph begins ``u * stride`` bits into it.  The stride is a
# power of two of at least n bits, and a slot spans at least the rows of
# the smallest power of two >= n; the matrix side of the dictionary lays
# its batches out the same way, so this module needs nothing from it.


def decode_slots(word: int, n: int, stride: int, starts: int) -> int:
    """The adjacency rows of the digraphs whose canonical codes ``word``
    holds, one code at the start of each slot: :func:`code_to_rows` for
    the whole batch.  Chunk u of every code moves to row u at once, with
    its diagonal zero spliced in.  The codes are not checked."""
    width = n - 1
    rows = 0
    for u in range(n):
        low = ((1 << u) - 1) << u * width  # the chunk's columns below u
        high = (((1 << width) - 1) << u * width) ^ low
        shift = u * (stride - width)
        rows |= (word & low * starts) << shift | (word & high * starts) << shift + 1
    return rows


def even_out_degree_slots(word: int, n: int, stride: int, starts: int) -> int:
    """The slots of ``word``, adjacency rows of n-vertex digraphs, whose
    digraph has every out-degree even, as one bit at the start of each
    such slot.

    The bits of every row are XORed into its bit 0, one shift per halving
    of the stride, and those parities are ORed into bit 0 of row 0, one
    shift per halving of the rows.
    """
    shift = stride >> 1
    while shift:
        word ^= word >> shift
        shift >>= 1
    odd = word & ((1 << n * stride) - 1) // ((1 << stride) - 1) * starts
    rows = 1 << (n - 1).bit_length() >> 1 if n else 0
    while rows:
        odd |= odd >> rows * stride
        rows >>= 1
    return starts & ~odd


def is_acyclic_dfs(graph: Digraph) -> bool:
    """Cycle detection by iterative three-color depth-first search.

    The per-graph test, and the reference for the block kernel: it shares
    no code with :func:`enumerate_acyclic`, and the tests compare the two
    exhaustively.
    """
    n = graph.n
    successors = [
        [v for v in range(n) if (graph.rows[u] >> v) & 1] for u in range(n)
    ]
    color = [0] * n  # 0 unvisited, 1 on the current path, 2 finished
    for start in range(n):
        if color[start]:
            continue
        color[start] = 1
        stack = [(start, 0)]
        while stack:
            vertex, i = stack[-1]
            if i < len(successors[vertex]):
                stack[-1] = (vertex, i + 1)
                nxt = successors[vertex][i]
                if color[nxt] == 1:
                    return False
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, 0))
            else:
                color[vertex] = 2
                stack.pop()
    return True


def _check_cap(n: int, cap: int) -> None:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > cap:
        raise EnumerationCapExceeded(n, cap)


def enumerate_digraphs(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Digraph]:
    """Yield all ``2^(n(n-1))`` simple digraphs on ``n`` labeled vertices.

    Graphs appear exactly once, in increasing order of their canonical code.
    """
    _check_cap(n, cap)
    for code in range(1 << (n * (n - 1))):
        yield Digraph.from_code(n, code)


def acyclic_codes(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[int]:
    """Yield the codes of the acyclic digraphs on ``n`` labeled vertices,
    in increasing order.

    Output-sensitive: the pruned walk visits only the blocks of
    ``2^(2(n-1))`` codes whose shared rows are acyclic.  In each, the row-1
    chunks that avoid A come in increasing order, and for each of them the
    row-0 chunks that close no cycle.
    """
    _check_cap(n, cap)
    if n == 0:
        yield 0
        return
    width = n - 1
    for block, to1, to0, _ in _acyclic_blocks(n, 0, 1 << (width * (n - 2))):
        free1, stay1, far, near = _free_chunks(width, to1, to0)
        base = block << (2 * width)
        row1 = 0
        while True:
            free0 = near if row1 & ~stay1 else far
            head = base | row1 << width
            row0 = 0
            while True:
                yield head | row0
                if row0 == free0:
                    break
                row0 = (row0 - free0) & free0  # next submask, increasing
            if row1 == free1:
                break
            row1 = (row1 - free1) & free1


def enumerate_acyclic(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Digraph]:
    """Yield the acyclic digraphs on ``n`` labeled vertices, in code order:
    the graphs of :func:`acyclic_codes`."""
    for code in acyclic_codes(n, cap):
        yield Digraph.from_code(n, code)


# ----------------------------------------------------------------------
# the block kernel (see the module docstring)
# ----------------------------------------------------------------------


def _splice_diagonal(chunk: int, u: int) -> int:
    """Adjacency mask of row ``u`` from its ``(n-1)``-bit code chunk: the
    chunk with a zero bit spliced in at the diagonal position ``u``."""
    return (chunk & ((1 << u) - 1)) | ((chunk >> u) << (u + 1))


def _row_decode_tables(n: int) -> list[list[int]]:
    # table[u][chunk] = _splice_diagonal(chunk, u), for every chunk.
    return [[_splice_diagonal(chunk, u) for chunk in range(1 << (n - 1))]
            for u in range(n)]


def _acyclic_blocks(
    n: int, first: int, last: int
) -> Iterator[tuple[int, int, int, int]]:
    """Yield ``(block, to1, to0, odd)`` for each block in ``[first, last)``
    whose shared part H is acyclic, in increasing block order, for
    ``n >= 1`` and ``0 <= first <= last <= 2^((n-1)(n-2))``.

    Block ``b`` holds the codes ``b * 2^(2(n-1)) .. (b+1) * 2^(2(n-1)) - 1``.
    ``to1`` is the vertex set A of H that reaches vertex 1 and ``to0`` the
    set R that reaches vertex 0, 0 included.  ``odd`` is 1 when some row of
    H has an odd out-degree, else 0; the walk carries it down, one bit per
    level from the popcount of the row's chunk.

    The block's digits are the chunks of rows ``n-1, n-2, .., 2``, most
    significant first, and the walk assigns them depth first in that order,
    each digit in increasing value, clamped to the digits of ``first`` and
    ``last - 1`` while the prefix is on either bound.  ``reach[v]`` holds,
    for each assigned vertex ``v``, the vertices of ``1 .. n-1`` that ``v``
    reaches along paths whose inner vertices are all assigned.  A new row
    ``u`` whose edges lead back to ``u`` closes a cycle that every
    completion keeps, so the chunk is dropped with its whole subtree.
    Otherwise ``u`` and the assigned vertices that reach it join A when
    ``u`` reaches 1, and R when it reaches 0.  Bit 0 of a chunk (the edge
    into vertex 0) never closes a cycle in H, so each chunk pair
    ``2k, 2k + 1`` is decided once.
    """
    if first >= last:
        return
    if n <= 2:
        yield 0, 0, 1, 0
        return
    width = n - 1
    chunk_mask = (1 << width) - 1
    tables = _row_decode_tables(n)
    shifts = [0, 0, *range(0, width * (n - 2), width)]  # shifts[u]: digit of row u
    lows = [(first >> shift) & chunk_mask for shift in shifts]
    highs = [((last - 1) >> shift) & chunk_mask for shift in shifts]

    def walk(u, reach, to1, to0, odd, block, on_low, on_high):
        # to1, to0: A and R over the rows assigned so far.
        lo = lows[u] if on_low else 0
        hi = highs[u] if on_high else chunk_mask
        table = tables[u]
        bit = 1 << u
        assigned = ((1 << n) - 1) ^ ((bit << 1) - 1)
        up = bit  # u and the assigned vertices that reach it
        for v in range(u + 1, n):
            if reach[v] & bit:
                up |= 1 << v
        for pair in range(lo & ~1, hi + 1, 2):
            down = table[pair]  # row u without its edge to 0
            scan = down & assigned
            while scan:
                low = scan & -scan
                down |= reach[low.bit_length() - 1]
                scan ^= low
            if down & bit:
                continue  # u reaches itself: a cycle in every completion
            into1 = to1 | up if down & 2 else to1
            into0 = to0 | up if down & to0 else to0
            if u == 2:
                for chunk in (pair, pair + 1):
                    if lo <= chunk <= hi:
                        yield (block | chunk, into1, into0 | up if chunk & 1 else into0,
                               odd | chunk.bit_count() & 1)
                continue
            child = reach.copy()
            scan = up
            while scan:
                low = scan & -scan
                child[low.bit_length() - 1] |= down
                scan ^= low
            for chunk in (pair, pair + 1):
                if lo <= chunk <= hi:
                    yield from walk(
                        u - 1, child, into1, into0 | up if chunk & 1 else into0,
                        odd | chunk.bit_count() & 1, block | chunk << shifts[u],
                        on_low and chunk == lo, on_high and chunk == hi,
                    )

    yield from walk(n - 1, [0] * n, 0, 1, 0, 0, True, True)


def _free_chunks(width: int, to1: int, to0: int) -> tuple[int, int, int, int]:
    """The chunk masks of a block with reach sets A and R: the row-1 bits
    ``free1`` close no cycle, ``stay1`` of them leave vertex 1 short of 0,
    and row 0 may use ``far`` when vertex 1 does not reach 0, ``near`` when
    it does.  Chunk bit ``j - 1`` is vertex ``j``; row 1's bit 0 is 0."""
    chunk_mask = (1 << width) - 1
    free1 = chunk_mask & ~(to1 >> 1)
    far = chunk_mask & ~(to0 >> 1)
    return free1, free1 & far & ~1, far, far & ~(to1 >> 1) & ~1


def count_acyclic_codes(n: int, start: int, stop: int) -> tuple[int, int]:
    """Count the codes in ``[start, stop)`` whose digraph is acyclic, and
    those that are acyclic with every out-degree even.

    A block wholly inside the range counts in closed form.  Let m, h, k0
    and k1 be the sizes of ``free1``, ``stay1``, ``far`` and ``near``
    (:func:`_free_chunks`).  Its row-1 chunks that reach 0 each leave
    ``2^k1`` row-0 chunks and the others ``2^k0``, so it adds ``(2^m - 2^h)
    2^k1 + 2^h 2^k0`` acyclic codes.  When rows ``2 .. n-1`` all have even
    out-degree it adds ``(ev(m) - ev(h)) ev(k1) + ev(h) ev(k0)`` orientable
    ones, where ``ev(j) = 2^(j-1)`` (1 when ``j = 0``) counts the even
    submasks of a j-set.  The at most
    two blocks cut by the range ends are scanned code by code.  A pure
    function of its arguments, so disjoint ranges can be counted in
    separate processes and added in any order.  The range is not checked
    here; :func:`cubecovers.correspondence.brute_counts` is the validating
    entry point.
    """
    if n == 0:
        return stop - start, stop - start  # code 0, the empty graph
    width = n - 1
    chunk_mask = (1 << width) - 1
    shift = 2 * width
    size = 1 << shift
    dags = even = 0
    for block, to1, to0, odd in _acyclic_blocks(n, start >> shift, -(-stop >> shift)):
        free1, stay1, far, near = _free_chunks(width, to1, to0)
        base = block << shift
        if start <= base and base + size <= stop:
            m, h = 1 << free1.bit_count(), 1 << stay1.bit_count()  # 2^m, 2^h
            k0, k1 = 1 << far.bit_count(), 1 << near.bit_count()
            dags += (m - h) * k1 + h * k0
            if not odd:  # ev(j) = (2^j + 1) >> 1
                h = h + 1 >> 1
                even += ((m + 1 >> 1) - h) * (k1 + 1 >> 1) + h * (k0 + 1 >> 1)
            continue
        for code in range(max(start - base, 0), min(stop - base, size)):
            row1 = code >> width
            row0 = code & chunk_mask
            if row1 & ~free1 or row0 & ~(near if row1 & ~stay1 else far):
                continue
            dags += 1
            if not odd and not (row1.bit_count() | row0.bit_count()) & 1:
                even += 1
    return dags, even
