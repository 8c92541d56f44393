"""Labeled simple digraphs and their exhaustive enumeration.

A digraph on vertices ``0 .. n-1`` is stored as a tuple of adjacency
bitmasks: bit ``j`` of ``rows[u]`` means there is an edge from ``u`` to
``j``.  Graphs are simple (no loops, set semantics on edges) and immutable.

Every graph has a canonical integer code: the ``n*(n-1)`` off-diagonal
adjacency bits read in row-major order.  Enumeration walks that integer
range in order, which makes streams deterministic.  A count over a code
range can be started and resumed at any code, but its parts cost more than
the whole: each part is counted by the reach states of a range, not the
chains of the full range (below).

The acyclic graphs are counted a block of codes at a time.  Rows 0 .. j-1
are the lowest ``j(n-1)`` bits of a code, so each aligned block of
``2^(j(n-1))`` consecutive codes shares rows ``j .. n-1``.  Call that shared
part H, with vertices ``0 .. j-1`` given no out-edges, and give each vertex
of H its signature: the vertices below j that it reaches in H.  Every cycle
of a graph in the block lies in H or passes through a vertex below j, and
the rows still to come see H only through its signatures, so an acyclic H
and the sorted signatures are a complete state for the count of its block.
Row w = j-1 picks its edges into H and below w, closes a cycle exactly when
one of the signatures it picks holds w, and otherwise leaves the state of
the block of rows ``0 .. w-1``: w joins H, and every vertex that reaches w
now reaches what w reaches.  :func:`_block_count` is that recurrence,
memoised on the state, and the full range is the block of all n rows.

Renaming the vertices below j maps the completions of a block one to one
onto those of the state with every signature renamed, and keeps every
cycle and every out-degree.  So the memo key renames them by how many
signatures hold each, and sorts (:func:`_state`); it need not be
canonical to be sound.  A vertex of H with signature 0 is free: it
reaches nothing below j, so each row takes or leaves the edge into it at
will, and k free vertices multiply the acyclic count by 2^(jk).  With
both, the code ranges that cut the codes at n = 9 into four lopsided
parts leave 2,134 states in the memo, against 1,022 for the whole range
as one block; keyed on the sorted signatures alone, that whole range
would leave 123,983.

The full range needs only the sizes of its signatures
(:func:`_chain_count`).  Its first state is empty, and each state it
reaches is a chain of signatures, each holding the next, so renamed it
is a chain of top sets: a signature of size t is ``j-t .. j-1``.  Then
w = j-1 lies in every signature but the free ones, which the count has
already stripped, and any vertex of H that row w picks closes a cycle.
So w picks none, and its reach r is any set of vertices below w.  Each
signature trades w for r and r joins, so the next state is again a chain.
Its sizes depend on r only through how many vertices r holds in each
layer between the cuts j-t, so the r are grouped by those numbers, each
group as many as a product of binomials.  A signature of size j holds
every vertex below j: no row below j may take the edge into its vertex,
and it leaves both counts as they are.  So the memo holds each chain once,
free vertices and full signatures stripped: 2^(n-1) + 1 states for the
full range at n.

A range is counted as the codes below its end less those below its
start.  The codes below a bound x are counted along x's own path, one row
chunk at a time from row ``n-1`` down: at each row, every smaller chunk
that closes no cycle heads a block counted by its state, and x's own
chunk leads on to the next row.  A cycle among the rows assigned so far
is a cycle of every completion, so the path stops at a chunk of x that
closes one.  Every code is thus either counted by a state or skipped on a
cycle witness, and counts made this way remain a brute-force oracle,
independent of the recurrences in :mod:`cubecovers.counting`.

:func:`acyclic_codes` lists the codes of the blocks of two rows, from the
first code of each block whose H is acyclic (:func:`_acyclic_blocks`).
There, with A the vertices of H that reach 1 and R those that reach 0, 0
included, G is acyclic exactly when row 1 avoids A, and row 0 avoids R,
and also A and 1 when vertex 1 reaches 0.  The count does not read the
listing: the two walks share only the splice of a row's diagonal zero.

The module imports nothing from the rest of the package: the graph side of
the dictionary shares no code with the matrix side in :mod:`cubecovers.gf2`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from math import comb

__all__ = [
    "Digraph",
    "acyclic_codes",
    "code_to_rows",
    "count_acyclic_codes",
    "decode_slots",
    "enumerate_acyclic",
    "enumerate_digraphs",
    "even_out_degree_slots",
    "is_acyclic_dfs",
    "rows_to_code",
]

class Digraph:
    """A simple digraph on ``n`` labeled vertices, adjacency as bitmasks;
    immutable, and equal only to a ``Digraph`` of the same fields."""

    __slots__ = ("n", "rows")
    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: Iterable[int]) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = tuple(rows)
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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n!r}, rows={self.rows!r})"

    def __reduce__(self) -> tuple:
        return type(self), (self.n, self.rows)

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
        """The graph side's orientability test: every out-degree even."""
        return not any(mask.bit_count() & 1 for mask in self.rows)


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


def enumerate_digraphs(n: int) -> Iterator[Digraph]:
    """Yield all ``2^(n(n-1))`` simple digraphs on ``n`` labeled vertices.

    Graphs appear exactly once, in increasing order of their canonical code.
    The walk is lazy, so a caller pays only for the graphs it takes.
    """
    for code in range(1 << (n * (n - 1))):
        yield Digraph.from_code(n, code)


def acyclic_codes(n: int) -> Iterator[int]:
    """Yield the codes of the acyclic digraphs on ``n`` labeled vertices,
    in increasing order.

    Output-sensitive: the pruned walk visits only the blocks of
    ``2^(2(n-1))`` codes whose shared rows are acyclic.  In each, the row-1
    chunks that avoid A come in increasing order, and for each of them the
    row-0 chunks that close no cycle.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n == 0:
        yield 0
        return
    width = n - 1
    chunk_mask = (1 << width) - 1
    for base, to1, to0 in _acyclic_blocks(n):
        # Chunk bit j - 1 is vertex j.  Row 1 may use free1, and row 0 far
        # while row 1 stays in stay1, short of vertex 0, else near.
        free1 = chunk_mask & ~(to1 >> 1)
        far = chunk_mask & ~(to0 >> 1)
        stay1 = free1 & far & ~1
        near = far & ~(to1 >> 1) & ~1
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


def enumerate_acyclic(n: int) -> Iterator[Digraph]:
    """Yield the acyclic digraphs on ``n`` labeled vertices, in code order:
    the graphs of :func:`acyclic_codes`."""
    for code in acyclic_codes(n):
        yield Digraph.from_code(n, code)


# ----------------------------------------------------------------------
# the walk, and the blocks of two rows that acyclic_codes lists
# ----------------------------------------------------------------------


def _splice_diagonal(chunk: int, u: int) -> int:
    """Adjacency mask of row ``u`` from its ``(n-1)``-bit code chunk: the
    chunk with a zero bit spliced in at the diagonal position ``u``."""
    return (chunk & ((1 << u) - 1)) | ((chunk >> u) << (u + 1))


def _acyclic_blocks(n: int) -> Iterator[tuple[int, int, int]]:
    """Yield ``(base, to1, to0)`` for each block whose shared part H is
    acyclic, in increasing code order, for ``n >= 1``.

    The block holds the codes ``base .. base + 2^(2(n-1)) - 1``.  ``to1``
    is the vertex set A of H that reaches vertex 1 and ``to0`` the set R
    that reaches vertex 0, 0 included.

    The walk assigns the chunks of rows ``n-1, n-2, .., 2`` depth first in
    that order, each in increasing value.  ``reach[v]`` holds, for each
    assigned vertex ``v``, the vertices of ``1 .. n-1`` that ``v`` reaches
    along paths whose inner vertices are all assigned.  A new row ``u``
    whose edges lead back to ``u`` closes a cycle that every completion
    keeps, so the chunk is dropped with its whole subtree.  Otherwise ``u``
    and the assigned vertices that reach it join A when ``u`` reaches 1,
    and R when it reaches 0.  Bit 0 of a chunk (the edge into vertex 0)
    never closes a cycle in H, so each chunk pair ``2k, 2k + 1`` is decided
    once.
    """
    if n <= 2:
        yield 0, 0, 1
        return
    width = n - 1
    tables = [[_splice_diagonal(chunk, u) for chunk in range(1 << width)] for u in range(n)]

    def walk(u, reach, to1, to0, base):
        # to1, to0: A and R over the rows assigned so far.
        table = tables[u]
        bit = 1 << u
        assigned = ((1 << n) - 1) ^ ((bit << 1) - 1)
        up = bit  # u and the assigned vertices that reach it
        for v in range(u + 1, n):
            if reach[v] & bit:
                up |= 1 << v
        edge0 = 1 << u * width  # the chunk's edge into vertex 0
        for pair in range(0, 1 << width, 2):
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
            head = base | pair * edge0
            if u == 2:
                yield head, into1, into0
                yield head | edge0, into1, into0 | up
                continue
            child = reach.copy()
            scan = up
            while scan:
                low = scan & -scan
                child[low.bit_length() - 1] |= down
                scan ^= low
            yield from walk(u - 1, child, into1, into0, head)
            yield from walk(u - 1, child, into1, into0 | up, head | edge0)

    yield from walk(n - 1, [0] * n, 0, 1, 0)


# ----------------------------------------------------------------------
# counting by reach states (see the module docstring)
# ----------------------------------------------------------------------


def _state(j: int, sigs: list[int]) -> tuple[int, ...]:
    """The memo key of the block of rows 0 .. j-1 over H with signatures
    ``sigs``: the vertices below j renamed by how many signatures hold
    each, fewest first and ties in index order, and the renamed
    signatures sorted.  Any renaming of those vertices maps the block's
    completions one to one onto those of the renamed state, so the key
    need not be canonical to be sound."""
    held = [0] * j  # held[v]: the signatures that hold v
    for sig in sigs:
        while sig:
            low = sig & -sig
            held[low.bit_length() - 1] += 1
            sig ^= low
    place = [0] * j  # place[v]: v's new bit
    for i, v in enumerate(sorted(range(j), key=held.__getitem__)):
        place[v] = 1 << i
    renamed = []
    for sig in sigs:
        new = 0
        while sig:
            low = sig & -sig
            new |= place[low.bit_length() - 1]
            sig ^= low
        renamed.append(new)
    renamed.sort()
    return tuple(renamed)


# Thread-safe.  It serves the code ranges only; the full range is
# :func:`_chain_count`.  From a cold memo, the four lopsided parts cut at
# [0, S/10, S/3, S - 12345, S] of the S codes leave 357 states at n = 7,
# 2,134 at n = 9 and 8,362 at n = 10, and take 9 ms, 0.16 s and 0.75-0.97
# s on one core of a 2-core VM with Python 3.11.7.  The whole range as one
# block would leave 2^(n+1) - 2 states.
@lru_cache(maxsize=None)
def _block_count(j: int, sigs: tuple[int, ...]) -> tuple[int, int]:
    """(acyclic, even) counts of the block of rows 0 .. j-1 over an acyclic
    H whose vertices j .. n-1 have the sorted signatures ``sigs``; the even
    count assumes every row of H even.  Any H, so the code ranges use it;
    the full range, whose H are chains, takes :func:`_chain_count`.

    k > 0 free vertices, those with signature 0, lead the sorted
    signatures.  With d the acyclic count without them, the counts are
    ``d << j*k`` and ``d << j*(k-1)``: each row takes or leaves each edge
    into them freely, and half of its 2^k choices are even.

    Otherwise row w = j-1 picks C, a set of vertices of H, and B, a set of
    vertices below w.  Its reach is r = B | U, with U the union of the
    signatures of C, and it closes a cycle exactly when w lies in U.
    Otherwise every signature that holds w trades it for r, w joins H with
    signature r, and rows 0 .. w-1 are counted over that state, keyed by
    :func:`_state`.  No signature is empty, so U is empty only for the
    empty C, and the C are grouped by U.  Each r then stands for 2^|U|
    choices of B, the subsets of U joined to ``r - U``, half of them even
    when U is not empty.
    """
    if j == 0:
        return 1, 1
    k = sigs.count(0)
    if k:
        d = _block_count(j, sigs[k:])[0]
        return d << j * k, d << j * (k - 1)
    bit = 1 << j - 1
    unions = {0: 1}  # U -> the number of C
    for sig in sigs:
        for union, c in list(unions.items()):
            unions[union | sig] = unions.get(union | sig, 0) + c
    choices = {}  # r -> [choices of (C, B), those with |B| + |C| even]
    for union, c in unions.items():
        if union & bit:
            continue  # w reaches itself: a cycle
        size = union.bit_count()
        free = bit - 1 & ~union
        extra = 0
        while True:
            tally = choices.setdefault(union | extra, [0, 0])
            tally[0] += c << size
            if size:
                tally[1] += c << size - 1
            elif not extra.bit_count() & 1:
                tally[1] += c  # C is empty, and B is even
            if extra == free:
                break
            extra = (extra - free) & free  # next submask, increasing
    dags = even = 0
    for r, (ways, even_ways) in choices.items():
        grown = [(sig | r) ^ bit if sig & bit else sig for sig in sigs]
        d, e = _block_count(j - 1, _state(j - 1, grown + [r]))
        dags += ways * d
        even += even_ways * e
    return dags, even


def _chain_block(j: int, sizes: tuple[int, ...]) -> tuple[int, int]:
    """(acyclic, even) counts of the block of rows 0 .. j-1 over an acyclic
    H whose signatures form a chain of the sorted ``sizes``, each from 0
    to j; the even count assumes every row of H even.

    A signature of size j leaves both counts as they are: its vertex
    reaches every row below j, so none of them takes the edge into it.
    k > 0 free vertices, those of size 0, are counted as in
    :func:`_block_count`.  The rest is one lookup of :func:`_chain_count`.
    """
    k = sizes.count(0)
    d, e = _chain_count(j, sizes[k:len(sizes) - sizes.count(j)])
    return (d << j * k, d << j * (k - 1)) if k else (d, e)


# Thread-safe.  From a cold memo the full range at n leaves 2^(n-1) + 1
# states (measured at n = 1 to 16).  On one core of a 2-core VM with
# Python 3.11.7 it takes about 1 ms at n=7, 4 ms at n=9, 6-9 ms at n=10,
# 0.04 s at n=12 (2,049 states), 0.25 s at n=14 and 0.7-0.9 s at n=15
# (16,385 states); n=16 takes 2.2-2.6 s, about 2.7 times n=15.
@lru_cache(maxsize=None)
def _chain_count(j: int, sizes: tuple[int, ...]) -> tuple[int, int]:
    """:func:`_chain_block` where every size is from 1 to j-1: the memo of
    the full range (see the module docstring).

    Renamed, the signature of size t is ``j-t .. j-1``, so row w = j-1
    picks no vertex of H, and its reach r is any set of vertices below w.
    With r empty, each size drops by one and r joins free.  Otherwise the
    signature of size t becomes ``j-t .. w-1`` and r: of size t-1 plus
    the vertices of r below the cut j-t, and w when r holds them all.  r
    joins with a size no larger than any other, and the sizes grow with
    the cuts they sit on.  So the layers between the cuts are taken
    lowest first, with a weight C(width, a) for the a vertices r holds in
    each, and the next state is built sorted, its full sizes left out.
    The even count takes the r of even size.
    """
    if j == 0:
        return 1, 1
    w = j - 1
    dags, even = _chain_block(w, (0, *(t - 1 for t in sizes)))
    partial = [(1, 0, ())]  # (choices of r, |r|, the sizes cut below r)
    low = 0
    for t in sorted(set(sizes), reverse=True):
        cut = j - t
        width = cut - low
        low = cut
        m = sizes.count(t)
        partial = [(ways * comb(width, a), s + a,
                    kids if s + a == cut else (t - 1 + s + a,) * m + kids)
                   for a in range(width + 1) for ways, s, kids in partial]
    width = w - low
    for a in range(width + 1):
        c = comb(width, a)
        for ways, s, kids in partial:
            size = s + a
            if size:  # r is not empty
                d, e = _chain_count(w, (size, *kids) if size < w else ())
                dags += ways * c * d
                if not size & 1:
                    even += ways * c * e
    return dags, even


def _place(reach: list[int], u: int, chunk: int) -> list[int] | None:
    """The reach sets after row ``u`` takes ``chunk``, or None when that
    closes a cycle.  ``reach[v]`` holds the vertices that an assigned v
    reaches along paths whose inner vertices are all assigned, and is 0
    for the rows not yet assigned."""
    bit = 1 << u
    down = row = _splice_diagonal(chunk, u)  # what u reaches
    while row:
        low = row & -row
        down |= reach[low.bit_length() - 1]
        row ^= low
    if down & bit:
        return None  # u reaches itself: a cycle in every completion
    grown = [r | down if r & bit else r for r in reach]
    grown[u] = down
    return grown


def _count_below(n: int, x: int) -> tuple[int, int]:
    """(acyclic, even) counts of the codes below ``x``, for
    ``0 <= x <= 2^(n(n-1))``.

    The full range, x = 2^(n(n-1)), is the chain count of all n rows over
    an empty H (:func:`_chain_count`).  Below that, the walk follows x's
    own chunks from row n-1 down.  At row u, each chunk below x's digit
    that closes no cycle heads the block of rows 0 .. u-1, counted by its
    state (:func:`_block_count`).  x's own chunk carries the reach sets,
    and whether some row so far is odd, down to row u-1; where it closes a
    cycle, so does every code left below x.  Below x = 0 there is no
    code, so nothing is walked: the lower bound of every full range.
    """
    if not x:
        return 0, 0
    width = n - 1
    if x >> n * width:
        return _chain_count(n, ())  # the full range
    reach = [0] * n
    odd = 0  # whether some row of x assigned so far is odd
    dags = even = 0
    for u in range(n - 1, -1, -1):
        digit = x >> u * width & (1 << width) - 1
        for chunk in range(digit):
            grown = _place(reach, u, chunk)
            if grown is not None:
                d, e = _block_count(u, _state(u, [r & (1 << u) - 1 for r in grown[u:]]))
                dags += d
                if not odd | chunk.bit_count() & 1:
                    even += e
        reach = _place(reach, u, digit)
        if reach is None:
            break
        odd |= digit.bit_count() & 1
    return dags, even


def count_acyclic_codes(n: int, start: int, stop: int) -> tuple[int, int]:
    """Count the codes in ``[start, stop)`` whose digraph is acyclic, and
    those that are acyclic with every out-degree even: the counts below
    ``stop`` less those below ``start`` (:func:`_count_below`).

    The full range is one lookup of the chain count of all n rows.
    A pure function of its arguments, so disjoint ranges can be counted in
    separate processes and added in any order.  The range is not checked
    here; :func:`cubecovers.correspondence.brute_counts` is the validating
    entry point.
    """
    dags, even = _count_below(n, stop)
    below_dags, below_even = _count_below(n, start)
    return dags - below_dags, even - below_even
