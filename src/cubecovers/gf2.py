"""Square bit matrices over GF(2).

Rows are packed into integer bitmasks (bit ``j`` of ``rows[i]`` is the entry
in row ``i``, column ``j``), so row elimination is a single XOR per row and
the same code path works for any dimension.  :func:`transpose_masks` is
the one transpose: it packs a stack of equal matrices into one integer and
transposes all of them with one delta swap per halving of their side, so
:meth:`BitMatrix.transpose` and the inverse planes of the grown walk call
it with one matrix, and the dictionary maps of
:mod:`cubecovers.correspondence` with a chunk of graphs.  Values are
immutable: every operation returns a new matrix or a plain value, which
makes them safe to share between concurrent tasks.

The one domain-specific test here is :meth:`BitMatrix.has_unit_principal_minors`:
a square GF(2) matrix is the reduced characteristic matrix of a small cover
over a cube exactly when every principal minor equals 1.  That method
evaluates every one of the ``2^n - 1`` principal minors by recursive Schur
complements over a depth-first walk of the index subsets.
:meth:`BitMatrix.principal_minor` and :meth:`BitMatrix.det` keep the
per-subset definition the walk is tested against.

:func:`unit_minor_matrices` and :func:`count_unit_minor_matrices` produce the
members themselves, without testing candidates, by growing the leading
block one index at a time.  Every leading block of a member is a member.
Border a k by k member B with a row r, a column c and a diagonal 1: the
minors on index sets without k are B's, and for each S in {0 .. k-1} Schur's
formula (Griffin and Tsatsomeros, *Principal minors, Part I*, 2006) gives
det A[S + {k}] = det B_S * (1 + r_S B_S^-1 c_S) = 1 + r_S B_S^-1 c_S.  So for
fixed B and r the admissible columns are exactly the vectors orthogonal to
the 2^k - 1 forms r_S B_S^-1: a subspace of dimension k - rank.  A matrix
determines its (B, r, c), so each member comes out once.  Odd column sums
are linear too.  They constrain only the finished matrix: on the last
border they fix r (column j < k sums to column j of B plus r_j) and add the
all-ones form on c (the new column sums to the weight of c plus 1).

Both routes are the exact matrix-side oracle.  They use GF(2) linear
algebra only, import nothing from the rest of the package, and never
build a digraph, so they check the dictionary of
:mod:`cubecovers.correspondence` independently of :mod:`cubecovers.digraph`.
The full scan of the ``2^(n(n-1))`` unit-diagonal matrices through the
minor test is the tests' reference for the grown walk at n <= 4.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import xor
from struct import Struct
from struct import error as struct_error
from typing import NamedTuple


__all__ = [
    "BitMatrix",
    "count_unit_minor_matrices",
    "odd_column_sums",
    "transpose_masks",
    "unit_minor_matrices",
    "unit_minor_rows",
]


class _Packing(NamedTuple):
    """How :func:`transpose_masks` lays out ``blocks`` blocks of ``m`` rows
    of ``n`` columns in one int.  Block c takes ``side`` lanes of ``stride``
    bits from bit ``c * side * stride``, and its row i is lane i, so entry
    (i, j) of block c is bit ``(c * side + i) * stride + j``.  Lanes m to
    side - 1 of a block are padding and stay 0."""

    swaps: tuple[tuple[int, int], ...]  # (delta, mask) of each delta swap
    rows_struct: Struct | None  # packs the rows, for strides of 8 to 64 bits
    cols_struct: Struct | None  # unpacks the n columns of each block
    nbytes: int  # bytes of the packed blocks
    row_shifts: tuple[int, ...]  # bit offset of each row, for wider strides
    col_shifts: tuple[int, ...]  # and of each column
    unit: int  # one lane's bits
    invalid: int  # every bit outside the n columns of the rows
    identity: int  # bit (i, i) of each block, for i < min(m, n)


_FIELDS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _lanes_struct(used: int, side: int, stride: int, blocks: int) -> Struct | None:
    """A struct for the first ``used`` of every block's ``side`` lanes, the
    rest skipped as zero pad bytes; None when no struct field has
    ``stride`` bits."""
    field = _FIELDS.get(stride)
    if field is None:
        return None
    if used == side:
        return Struct(f"<{used * blocks}{field}")
    return Struct("<" + f"{used}{field}{(side - used) * stride // 8}x" * blocks)


@lru_cache(maxsize=256)  # bounded: one entry per shape, masks of blocks * side^2 bits
def _packing(m: int, n: int, blocks: int) -> _Packing:
    side = 1 << (max(m, n, 1) - 1).bit_length()  # each square block transposed
    stride = max(side, 8)
    span = side * stride  # the bits of one block
    # Bit c * span for every block c: a block's mask times this repeats it
    # in each block.
    repeat = ((1 << span * blocks) - 1) // ((1 << span) - 1)
    # Transposing a side by side block swaps, for each h = side/2 .. 1, the
    # entries (i, j) with bit h clear in i and set in j with (i+h, j-h),
    # h * (stride - 1) bits higher, inside the same block.
    swaps = []
    h = side >> 1
    while h:
        row = sum(1 << j for j in range(side) if j & h)
        mask = sum(row << i * stride for i in range(side) if not i & h)
        swaps.append((h * (stride - 1), mask * repeat))
        h >>= 1
    rows_struct = _lanes_struct(m, side, stride, blocks)
    wide = rows_struct is None
    return _Packing(
        tuple(swaps),
        rows_struct,
        _lanes_struct(n, side, stride, blocks),
        blocks * span // 8,
        tuple(c * span + i * stride for c in range(blocks) for i in range(m)) if wide else (),
        tuple(c * span + j * stride for c in range(blocks) for j in range(n)) if wide else (),
        (1 << stride) - 1,
        ~(sum(((1 << n) - 1) << i * stride for i in range(m)) * repeat),
        sum(1 << i * stride + i for i in range(min(m, n))) * repeat,
    )


def transpose_masks(
    rows: Sequence[int], n: int,
    with_identity: Callable[[int, int], int] | None = None,
    blocks: int = 1,
) -> tuple[int, ...]:
    """The ``n`` columns, as bitmasks, of the matrix whose rows are the
    bitmasks ``rows``: the rows of its transpose.  ``rows`` may have any
    length; each must be a mask on ``n`` columns.

    With ``blocks`` = K, ``rows`` is a stack of K matrices of equal height
    (``len(rows)`` must be a multiple of K), and the result is their K
    transposes stacked: K * n columns, block by block.  One call transposes
    every block, so a caller with many small matrices pays the call once.

    With ``with_identity``, each matrix transposed is ``with_identity(A,
    I)``, for its packed rows A and the packed identity I (bit i of row i,
    for each i below both dimensions): :func:`operator.or_` sets the
    diagonal, :func:`operator.xor` adds the identity over GF(2).

    The blocks are packed into one int: each takes a power-of-two side of
    lanes, at a stride of at least 8 bits, so a block of 3 rows fills 4
    lanes.  Packing goes through :class:`struct.Struct` when the stride is
    at most 64 bits, with zero pad bytes for the spare lanes.  Every block
    is transposed in place at once, by one delta swap per halving of the
    side with its mask repeated in each block, the masks cached for each
    shape and block count, and the columns are unpacked from the result.
    The per-graph pass of :mod:`cubecovers.checks` reaches it through the
    dictionary maps with a few hundred graphs a call, so the Python work of
    a call is paid once per chunk, not once per graph.
    """
    if blocks > 0:
        m, extra = divmod(len(rows), blocks)
    else:
        m, extra = 0, len(rows) or blocks
    if extra:
        raise ValueError(
            f"cannot split {len(rows)} rows into {blocks} blocks of equal height")
    (swaps, rows_struct, cols_struct, nbytes, row_shifts, col_shifts, unit,
     invalid, identity) = _packing(m, n, blocks)
    if rows_struct is not None:
        try:
            word = int.from_bytes(rows_struct.pack(*rows), "little")
        except struct_error:
            word = -1  # a row below 0 or past the stride: named below
    else:
        word = 0
        for shift, mask in zip(row_shifts, rows):
            word |= mask << shift
    if word & invalid:
        raise _out_of_range(rows, n)
    if with_identity is not None:
        word = with_identity(word, identity)
    for delta, mask in swaps:
        swapped = (word ^ word >> delta) & mask
        word ^= swapped | swapped << delta
    if cols_struct is not None:
        return cols_struct.unpack(word.to_bytes(nbytes, "little"))
    return tuple([word >> shift & unit for shift in col_shifts])


def _out_of_range(rows: Sequence[int], n: int) -> ValueError:
    """The error for the first row of ``rows`` that is not a mask on ``n``
    columns (a packed bit outside them would land in another row)."""
    for i, mask in enumerate(rows):
        if not (isinstance(mask, int) and 0 <= mask < 1 << n):
            break
    return ValueError(f"row {i} is {mask!r}, not a mask on {n} columns")


def odd_column_sums(rows: Iterable[int], n: int) -> bool:
    """Whether every column of the ``n`` by ``n`` matrix whose rows are the
    bitmasks ``rows`` has an odd integer sum.

    Bit j of the XOR of all rows is the parity of column j, so every column
    is odd exactly when that XOR is the all-ones mask.
    """
    return reduce(xor, rows, 0) == (1 << n) - 1


@dataclass(frozen=True)
class BitMatrix:
    """An ``n`` by ``n`` matrix over GF(2) with rows stored as bitmasks."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("matrix dimension must be nonnegative")
        if not isinstance(self.rows, tuple):
            object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        limit = 1 << self.n
        for mask in self.rows:
            if not 0 <= mask < limit:
                raise ValueError("row mask out of range for dimension")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, bits: Iterable[Iterable[int]]) -> BitMatrix:
        """Build a matrix from nested 0/1 entries (row major)."""
        packed = []
        for row in bits:
            mask = 0
            width = 0
            for j, entry in enumerate(row):
                if entry not in (0, 1):
                    raise ValueError(f"entry {entry!r} is not a bit")
                mask |= entry << j
                width += 1
            packed.append((mask, width))
        n = len(packed)
        if any(width != n for _, width in packed):
            raise ValueError("matrix must be square")
        return cls(n, tuple(mask for mask, _ in packed))

    @classmethod
    def from_text(cls, text: str) -> BitMatrix:
        """Parse the fixture format: ``n`` lines of ``n`` characters in {0,1}."""
        lines = [line for line in text.strip().splitlines() if line.strip()]
        return cls.from_rows([[int(ch) for ch in line.strip()] for line in lines])

    def to_text(self) -> str:
        """Render as ``n`` lines of ``n`` characters, bit exact."""
        return "\n".join(
            "".join(str(self.entry(i, j)) for j in range(self.n))
            for i in range(self.n)
        )

    # ------------------------------------------------------------------
    # entry access
    # ------------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) out of range for n={self.n}")
        return (self.rows[i] >> j) & 1

    def to_bits(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple((mask >> j) & 1 for j in range(self.n)) for mask in self.rows
        )

    def transpose(self) -> BitMatrix:
        return BitMatrix(self.n, transpose_masks(self.rows, self.n))

    # ------------------------------------------------------------------
    # determinants and minors
    # ------------------------------------------------------------------

    def det(self) -> int:
        """Determinant over GF(2), as a rank test.

        Over GF(2) a determinant is 1 exactly when the rows are linearly
        independent, that is when their rank is n.  The empty matrix has
        determinant 1 (empty product; rank 0).
        """
        return int(_rank(self.rows) == self.n)

    def principal_minor(self, indices: Iterable[int]) -> int:
        """Determinant of the submatrix on the same row and column subset.

        ``indices`` must be a nonempty subset of ``range(n)``; duplicates are
        collapsed (set semantics).
        """
        idx = sorted(set(indices))
        if not idx:
            raise ValueError("principal minor needs a nonempty index subset")
        if idx[0] < 0 or idx[-1] >= self.n:
            raise ValueError(f"indices {idx} out of range for n={self.n}")
        sub = []
        for i in idx:
            mask = 0
            for b, j in enumerate(idx):
                mask |= ((self.rows[i] >> j) & 1) << b
            sub.append(mask)
        return BitMatrix(len(idx), tuple(sub)).det()

    def has_unit_principal_minors(self) -> bool:
        """Whether every principal minor (all nonempty index subsets) is 1.

        Every one of the ``2^n - 1`` minors is still evaluated, each exactly
        once, but by recursive Schur complements (Griffin and Tsatsomeros,
        *Principal minors, Part I*, 2006) instead of one elimination per
        subset.  A node of the depth-first walk is a subset S whose minors
        all passed, carried as its Schur complement M_S restricted to the
        indices above max(S).  For such S, det A[S + {j}] = det A[S] *
        M_S[j][j] = M_S[j][j], and pivoting M_S on (j, j), one XOR per row
        with a 1 in column j, gives the complement of S + {j}.  The walk
        stops at the first zero; the root checks every 1x1 minor before any
        larger one, so a zero diagonal entry is rejected at once.  The empty
        matrix passes (empty conjunction).
        """
        stack = [(0, self.rows)]
        while stack:
            low, rows = stack.pop()
            for k, pivot in enumerate(rows):
                j = low + k
                if not (pivot >> j) & 1:
                    return False
                if k + 1 < len(rows):
                    bit = 1 << j
                    stack.append(
                        (j + 1, [r ^ pivot if r & bit else r for r in rows[k + 1:]])
                    )
        return True

    # ------------------------------------------------------------------
    # orientability test
    # ------------------------------------------------------------------

    def column_sums(self) -> tuple[int, ...]:
        """Integer (not mod 2) sum of each column."""
        return tuple(mask.bit_count() for mask in self.transpose().rows)

    def has_odd_column_sums(self) -> bool:
        """Whether every column has an odd integer sum.

        Applied to a reduced characteristic matrix this is the
        Nakayama-Nishimura orientability criterion: the identity block of
        the full characteristic matrix contributes columns of sum 1, so only
        the reduced block needs testing (see :func:`odd_column_sums`).
        """
        return odd_column_sums(self.rows, self.n)

    def __str__(self) -> str:
        return self.to_text()


# ----------------------------------------------------------------------
# growing the matrices with all unit principal minors
# ----------------------------------------------------------------------


def _inverse_planes(rows: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Every principal inverse of a k by k matrix with all unit principal
    minors, sliced by entry: bit s of ``planes[i][j]`` is entry (i, j) of
    the inverse of the principal submatrix on the index set s (a bitmask).

    The inverses are bordered one index at a time.  For s = t + {j} with j
    above max(t), let u = B_t^-1 c and v = r B_t^-1, where c and r are
    column j and row j of B restricted to t.  The Schur complement of B_t
    in B_s, 1 + v c, equals det B_s / det B_t = 1, so over GF(2) the
    inverse of B_s is [[B_t^-1 + u v, u], [v, 1]]: row i of t gains v + e_j
    when u_i = 1, and row j is v + e_j.
    """
    cols = transpose_masks(rows, k)
    inverses = [[0] * k]
    for s in range(1, 1 << k):
        j = s.bit_length() - 1
        inverse = inverses[s ^ (1 << j)]  # its rows outside t are 0
        v = 1 << j
        for i in range(j):
            if (rows[j] >> i) & 1:
                v ^= inverse[i]
        grown = [row ^ v if (row & cols[j]).bit_count() & 1 else row for row in inverse]
        grown[j] = v
        inverses.append(grown)
    return [transpose_masks(column, k) for column in zip(*inverses)]


def _new_rows(
    rows: tuple[int, ...], k: int, odd_columns: bool
) -> Iterator[tuple[int, list[int]]]:
    """Yield ``(r, forms)`` for each new row r that can border the k by k
    member ``rows``: bit s of ``forms[j]`` is entry j of the form
    r_S B_S^-1 for the index set s.  A new column c gives a member exactly
    when the XOR of ``forms[j]`` over the bits j of c is 0.

    With ``odd_columns`` the border is the last one: only the row that
    makes every old column sum odd is yielded, and bit 0 of each form (no
    index set s is empty) carries the all-ones form, which makes the new
    column's sum odd.
    """
    planes = _inverse_planes(rows, k)
    if odd_columns:
        r = ((1 << k) - 1) ^ reduce(xor, rows, 0)
        forms = [1] * k
        for i in range(k):
            if (r >> i) & 1:
                forms = [a ^ b for a, b in zip(forms, planes[i])]
        yield r, forms
        return
    table = [[0] * k]  # forms of r = 0, 1, 2, .. by doubling over the bits of r
    for plane in planes:
        table += [[a ^ b for a, b in zip(forms, plane)] for forms in table]
    yield from enumerate(table)


def _columns(forms: list[int]) -> list[int]:
    """The columns c, in increasing order, whose XOR of forms is 0."""
    sums = [0]
    for form in forms:
        sums += [x ^ form for x in sums]
    return [c for c, x in enumerate(sums) if not x]


def _rank(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of the bitmask vectors, by Gaussian elimination."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def _unit_minor_rows(n: int, rows: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """The row masks of every n by n member whose leading block is ``rows``,
    depth first, so only one border table per level is held at a time."""
    k = len(rows)
    if k == n:
        yield rows
        return
    for r, forms in _new_rows(rows, k, False):
        for c in _columns(forms):
            yield from _unit_minor_rows(n, (
                *(mask | ((c >> i) & 1) << k for i, mask in enumerate(rows)),
                r | 1 << k,
            ))


def unit_minor_rows(n: int) -> Iterator[tuple[int, ...]]:
    """The row masks of every ``n`` by ``n`` GF(2) matrix whose principal
    minors all equal 1, each exactly once, grown one index at a time (see
    the module docstring)."""
    if n < 0:
        raise ValueError("matrix dimension must be nonnegative")
    yield from _unit_minor_rows(n)


def unit_minor_matrices(n: int) -> Iterator[BitMatrix]:
    """The matrices of :func:`unit_minor_rows`, as :class:`BitMatrix` values."""
    for rows in unit_minor_rows(n):
        yield BitMatrix(n, rows)


def count_unit_minor_matrices(n: int, odd_columns: bool = False) -> int:
    """Number of ``n`` by ``n`` GF(2) matrices with all principal minors 1,
    or, with ``odd_columns``, of those whose column sums are also all odd.

    The last border is counted, not listed: for each (n-1) by (n-1) member
    B and new row r, the admissible columns form a subspace of dimension
    n - 1 - rank of the forms (see :func:`unit_minor_matrices`).  Odd
    column sums fix r and add the all-ones form on c (module docstring).
    """
    if n < 0:
        raise ValueError("matrix dimension must be nonnegative")
    if n == 0:
        return 1  # the empty matrix; its column sums are vacuously odd
    k = n - 1
    return sum(
        1 << (k - _rank(forms))
        for rows in _unit_minor_rows(k)
        for _, forms in _new_rows(rows, k, odd_columns)
    )
