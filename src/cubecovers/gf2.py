"""Square bit matrices over GF(2).

Rows are packed into integer bitmasks (bit ``j`` of ``rows[i]`` is the entry
in row ``i``, column ``j``), so row elimination is a single XOR per row and
the same code path works for any dimension.  :func:`transpose_masks` packs
a whole matrix into one integer and transposes it with one delta swap per
halving of its side.  Values are immutable: every
operation returns a new matrix or a plain value, which makes them safe to
share between concurrent tasks.

The one domain-specific test here is :meth:`BitMatrix.has_unit_principal_minors`:
a square GF(2) matrix is the reduced characteristic matrix of a small cover
over a cube exactly when every principal minor equals 1.  That method, like
:meth:`BitMatrix.principal_minor` and :meth:`BitMatrix.det`, takes one rank
test per index subset S: the rows in S, masked to the columns in S, are
linearly independent exactly when the minor on S is 1.

:func:`unit_minor_rows` and :func:`count_unit_minor_matrices` produce the
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
    "unit_minor_rows",
]


class _Packing(NamedTuple):
    """How :func:`transpose_masks` lays out ``m`` rows of ``n`` columns in
    one int: row i at bit ``i * stride``, so entry (i, j) is bit
    ``i * stride + j``."""

    swaps: tuple[tuple[int, int], ...]  # (delta, mask) of each delta swap
    rows_struct: Struct | None  # packs the m rows, for strides of 8 to 64 bits
    cols_struct: Struct | None  # unpacks the n columns
    nbytes: int  # bytes of the n packed columns
    shifts: tuple[int, ...]  # bit offset of each row or column
    unit: int  # one row's bits
    invalid: int  # every bit outside the n columns of the m rows
    identity: int  # bit (i, i) for i < min(m, n)


_FIELDS = {8: "B", 16: "H", 32: "I", 64: "Q"}


@lru_cache(maxsize=256)  # bounded: one entry per shape, masks of side^2 bits
def _packing(m: int, n: int) -> _Packing:
    side = 1 << (max(m, n, 1) - 1).bit_length()  # the square block transposed
    stride = max(side, 8)
    # Transposing the side by side block swaps, for each h = side/2 .. 1,
    # the entries (i, j) with bit h clear in i and set in j with (i+h, j-h),
    # h * (stride - 1) bits higher.
    swaps = []
    h = side >> 1
    while h:
        row = sum(1 << j for j in range(side) if j & h)
        mask = sum(row << i * stride for i in range(side) if not i & h)
        swaps.append((h * (stride - 1), mask))
        h >>= 1
    field = _FIELDS.get(stride)
    shifts = tuple(range(0, max(m, n) * stride, stride))
    return _Packing(
        tuple(swaps),
        field and Struct(f"<{m}{field}"),
        field and Struct(f"<{n}{field}"),
        n * stride // 8,
        shifts,
        (1 << stride) - 1,
        ~sum(((1 << n) - 1) << shift for shift in shifts[:m]),
        sum(1 << shift + i for i, shift in enumerate(shifts[:min(m, n)])),
    )


def transpose_masks(
    rows: Sequence[int], n: int,
    with_identity: Callable[[int, int], int] | None = None,
) -> tuple[int, ...]:
    """The ``n`` columns, as bitmasks, of the matrix whose rows are the
    bitmasks ``rows``: the rows of its transpose.  ``rows`` may have any
    length; each must be a mask on ``n`` columns.

    With ``with_identity``, the matrix transposed is ``with_identity(A,
    I)``, for the packed rows A and the packed identity I (bit i of row i,
    for each i below both dimensions): :func:`operator.or_` sets the
    diagonal, :func:`operator.xor` adds the identity over GF(2).

    The rows are packed into one int at a power-of-two stride of at least 8
    bits, through :class:`struct.Struct` when the stride is at most 64.
    The leading square block of power-of-two side is transposed in place by
    one delta swap per halving of the side, with the masks cached for each
    shape, and the n columns are unpacked from the result.
    """
    (swaps, rows_struct, cols_struct, nbytes, shifts, unit, invalid,
     identity) = _packing(len(rows), n)
    if rows_struct is not None:
        try:
            word = int.from_bytes(rows_struct.pack(*rows), "little")
        except struct_error:
            word = -1  # a row below 0 or past the stride: named below
    else:
        word = 0
        for shift, mask in zip(shifts, rows):
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
    return tuple([word >> shift & unit for shift in shifts[:n]])


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


def _unit_minor(rows: Sequence[int], subset: int) -> bool:
    """Whether the principal minor of the matrix with bitmask rows ``rows``
    on the index set ``subset`` (a bitmask) is 1.

    Over GF(2) it is 1 exactly when the rows in the subset, each masked to
    the columns in it, have full rank.  Dropping the other columns loses no
    rank: it is injective on vectors supported on the subset.
    """
    return _rank(
        row & subset for i, row in enumerate(rows) if subset >> i & 1
    ) == subset.bit_count()


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
        if not all(isinstance(mask, int) and 0 <= mask < limit for mask in self.rows):
            raise _out_of_range(self.rows, self.n)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, tuple(1 << i for i in range(n)))

    def to_text(self) -> str:
        """Render as ``n`` lines of ``n`` characters, bit exact."""
        # Column j is bit j of a row, so a row is its binary form reversed.
        return "\n".join(f"{mask:0{self.n}b}"[::-1] for mask in self.rows)

    def transpose(self) -> BitMatrix:
        return BitMatrix(self.n, transpose_masks(self.rows, self.n))

    # ------------------------------------------------------------------
    # determinants and minors
    # ------------------------------------------------------------------

    def det(self) -> int:
        """Determinant over GF(2): 1 exactly when the rows are linearly
        independent.  The empty matrix has determinant 1 (rank 0)."""
        return int(_unit_minor(self.rows, (1 << self.n) - 1))

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
        return int(_unit_minor(self.rows, sum(1 << i for i in idx)))

    def has_unit_principal_minors(self) -> bool:
        """Whether every principal minor (all nonempty index subsets) is 1.

        One rank test per subset s = 1 .. 2^n - 1, in increasing order, so
        every 1x1 minor comes before any larger minor that contains it and a
        zero diagonal entry stops the test early.  The empty matrix passes
        (empty conjunction).  No caller outside the tests and demo 01 runs
        it, so no faster walk is kept: a depth-first walk of recursive Schur
        complements took 19 ms where this takes 34 ms on the 4,096
        unit-diagonal 4 by 4 matrices, 78 against 184 ms on all 2^16 of
        them, and 0.43 against 1.19 s on the 29,281 members at n = 5
        (2-core VM, Python 3.11.7, best of 5).
        """
        return all(_unit_minor(self.rows, s) for s in range(1, 1 << self.n))

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


def count_unit_minor_matrices(n: int, odd_columns: bool = False) -> int:
    """Number of ``n`` by ``n`` GF(2) matrices with all principal minors 1,
    or, with ``odd_columns``, of those whose column sums are also all odd.

    The last border is counted, not listed: for each (n-1) by (n-1) member
    B and new row r, the admissible columns form a subspace of dimension
    n - 1 - rank of the forms (see :func:`unit_minor_rows`).  Odd
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
