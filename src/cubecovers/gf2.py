"""Square bit matrices over GF(2).

Rows are packed into integer bitmasks (bit ``j`` of ``rows[i]`` is the entry
in row ``i``, column ``j``), so row elimination is a single XOR per row and
the same code path works for any dimension.  :func:`transpose_slots` packs
a batch of matrices into one integer, one slot each (:func:`slot_layout`),
and transposes them all with one delta swap per halving of their side;
:func:`odd_column_slots` tests the column parities of a whole batch the
same way.  :meth:`BitMatrix.transpose` and
:meth:`BitMatrix.has_odd_column_sums` are their batches of one.  Values
are immutable: every operation returns a new matrix or a plain value,
which makes them safe to share between concurrent tasks.

The one domain-specific test here is :meth:`BitMatrix.has_unit_principal_minors`:
a square GF(2) matrix is the reduced characteristic matrix of a small cover
over a cube exactly when every principal minor equals 1.  That method, like
:meth:`BitMatrix.principal_minor` and :meth:`BitMatrix.det`, takes one rank
test per index subset S: the rows in S, masked to the columns in S, are
linearly independent exactly when the minor on S is 1.

:func:`unit_minor_walk` grows the members of every side up to n in one
depth-first walk, without testing candidates, bordering the leading block
one index at a time, and :func:`count_unit_minor_matrices` counts the
last border.  Every leading
block of a member is a member.  Border a k by k member B with a row r, a
column c and a diagonal 1: the minors on index sets without k are B's, and
for each S in {0 .. k-1} Schur's formula (Griffin and Tsatsomeros,
*Principal minors, Part I*, 2006) gives det A[S + {k}] = det B_S * (1 + r_S
B_S^-1 c_S) = 1 + r_S B_S^-1 c_S.  So for fixed B and r the admissible
columns are exactly the vectors orthogonal to the 2^k - 1 forms r_S B_S^-1:
a subspace of dimension k - rank.  A matrix determines its (B, r, c), so
each member comes out once.  Odd column sums are linear too.  They
constrain only the finished matrix: on the last border they fix r (column
j < k sums to column j of B plus r_j) and add the all-ones form on c (the
new column sums to the weight of c plus 1).

The walk carries each member's principal inverses to its children, sliced
by entry: bit S of ``planes[i][j]`` is entry (i, j) of B_S^-1, 0 unless i
and j are in S.  A child keeps the planes of the sets without k; on S +
{k} its inverse is [[B_S^-1 + u v, u], [v, 1]], with v = r_S B_S^-1 and u =
B_S^-1 c_S, as the Schur complement 1 + v c_S is 1.  That is k^2 ANDs and
XORs on 2^k-bit masks per child, and no inversion.

Both routes are the exact matrix-side oracle.  They use GF(2) linear
algebra only, import nothing from the rest of the package, and never
build a digraph, so they check the dictionary of
:mod:`cubecovers.correspondence` independently of :mod:`cubecovers.digraph`.
The full scan of the ``2^(n(n-1))`` unit-diagonal matrices through the
minor test is the tests' reference for the grown walk at n <= 4.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache, reduce
from operator import xor
from typing import NamedTuple


__all__ = [
    "BitMatrix",
    "count_unit_minor_matrices",
    "join_slots",
    "odd_column_slots",
    "pack_rows",
    "slot_layout",
    "split_slots",
    "transpose_slots",
    "unit_minor_walk",
    "unpack_rows",
]


class _Packing(NamedTuple):
    """How a batch of k square matrices of side ``n`` lies in one int:
    matrix t in the slot from bit ``t * slot``, its row i ``i * stride``
    bits into the slot, so its entry (i, j) is bit ``t * slot + i * stride
    + j``.  A slot holds the square block of power-of-two side
    that the transpose swaps in place, ``side * stride`` bits."""

    stride: int
    slot: int
    starts: int  # bit t * slot for each t < k
    swaps: tuple[tuple[int, int], ...]  # (delta, mask) of each delta swap
    rows_struct: struct.Struct | None  # the n rows, for strides of 8 to 64 bits
    slots_struct: struct.Struct | None  # the k slots, for slots of 8 to 64 bits
    unit: int  # one row's bits
    invalid: int  # every bit outside the n columns of the n rows of a slot
    identity: int  # bit (i, i) for i < n, in every slot


_FIELDS = {8: "B", 16: "H", 32: "I", 64: "Q"}


@lru_cache(maxsize=256)  # bounded: one entry per side and batch size
def _packing(n: int, k: int) -> _Packing:
    side = 1 << (max(n, 1) - 1).bit_length()  # the square block transposed
    stride = max(side, 8)
    slot = side * stride
    # Whole bytes per slot (the stride is at least 8 bits), so the slot
    # starts are one byte pattern repeated k times.
    starts = int.from_bytes(b"\1".ljust(slot >> 3, b"\0") * k, "little")
    # Transposing the side by side block swaps, for each h = side/2 .. 1,
    # the entries (i, j) with bit h clear in i and set in j with (i+h, j-h),
    # h * (stride - 1) bits higher.
    swaps = []
    h = side >> 1
    while h:
        row = sum(1 << j for j in range(side) if j & h)
        mask = sum(row << i * stride for i in range(side) if not i & h)
        swaps.append((h * (stride - 1), mask * starts))
        h >>= 1
    field, slot_field = _FIELDS.get(stride), _FIELDS.get(slot)
    return _Packing(
        stride,
        slot,
        starts,
        tuple(swaps),
        field and struct.Struct(f"<{n}{field}"),
        slot_field and struct.Struct(f"<{k}{slot_field}"),
        (1 << stride) - 1,
        ~(sum(((1 << n) - 1) << i * stride for i in range(n)) * starts),
        sum(1 << i * stride + i for i in range(n)) * starts,
    )


# What packing a value that is not a nonnegative int below 2^width raises.
_UNPACKABLE = (struct.error, OverflowError, AttributeError)


def _join(values: Sequence[int], width: int, codec: struct.Struct | None) -> int:
    """``values`` packed into one int at ``width`` bits each, a multiple of
    8; through ``codec`` when the width is a field of :mod:`struct`."""
    if codec is not None:
        data = codec.pack(*values)
    else:
        size = width >> 3
        data = b"".join([value.to_bytes(size, "little") for value in values])
    return int.from_bytes(data, "little")


def _split(word: int, width: int, count: int,
           codec: struct.Struct | None) -> tuple[int, ...]:
    """The inverse of :func:`_join`: the ``count`` values in ``word``."""
    data = word.to_bytes(count * width >> 3, "little")
    if codec is not None:
        return codec.unpack(data)
    size = width >> 3
    return tuple([int.from_bytes(data[i:i + size], "little")
                  for i in range(0, len(data), size)])


def slot_layout(n: int, k: int = 1) -> tuple[int, int, int]:
    """``(stride, slot, starts)``: where a batch of ``k`` square matrices of
    side ``n`` lies in one int.  Matrix t takes the ``slot`` bits from ``t
    * slot``, and its row i starts ``i * stride`` bits into them.
    ``starts`` has one bit at the start of each slot, so a mask for one
    slot times ``starts`` is that mask in every slot.  One matrix is the
    batch with ``k = 1``."""
    return _packing(n, k)[:3]


def pack_rows(rows: Sequence[int], n: int) -> int:
    """The bitmask ``rows``, each a mask on ``n`` columns, packed into one
    int: the batch of one matrix.  There must be ``n`` rows."""
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, got {len(rows)}")
    packing = _packing(n, 1)
    # A row below 0 or past the stride fails to pack, and is named here; a
    # packed bit past the n columns is named by the transpose.
    try:
        return _join(rows, packing.stride, packing.rows_struct)
    except _UNPACKABLE:
        raise _out_of_range(rows, n) from None


def unpack_rows(word: int, n: int) -> tuple[int, ...]:
    """The ``n`` rows packed in ``word``, the batch of one matrix of side
    ``n``: the inverse of :func:`pack_rows`."""
    packing = _packing(n, 1)
    return _split(word, packing.stride, n, packing.rows_struct)


def join_slots(values: Sequence[int], n: int) -> int:
    """One int holding ``values[t]`` in slot t of the layout for side ``n``,
    each value below ``2^slot``: the inverse of :func:`split_slots`."""
    packing = _packing(n, len(values))
    return _join(values, packing.slot, packing.slots_struct)


def split_slots(word: int, n: int, k: int) -> tuple[int, ...]:
    """The ``k`` slots of ``word`` in the layout for side ``n``, each as the
    int of its packed rows."""
    packing = _packing(n, k)
    return _split(word, packing.slot, k, packing.slots_struct)


def transpose_slots(
    word: int, n: int, k: int = 1,
    with_identity: Callable[[int, int], int] | None = None,
) -> int:
    """The transposes of the ``k`` square matrices of side ``n`` packed in
    ``word``, one per slot (see :func:`slot_layout`), packed the same way.

    With ``with_identity``, each matrix transposed is ``with_identity(A,
    I)``, for its packed rows A and the packed identity I (bit i of row
    i): :func:`operator.or_` sets the diagonal, :func:`operator.xor` adds
    the identity over GF(2).

    Every slot's block is transposed in place at once, by one delta swap
    per halving of its side, with the masks cached for each shape and
    batch size.  A bit outside the n columns of the n rows of a slot is
    refused, naming its row (and its slot, in a batch of more than one).
    """
    packing = _packing(n, k)
    if word & packing.invalid:
        raise _outside(word, n, packing, k)
    if with_identity is not None:
        word = with_identity(word, packing.identity)
    for delta, mask in packing.swaps:
        swapped = (word ^ word >> delta) & mask
        word ^= swapped | swapped << delta
    return word


def _outside(word: int, n: int, packing: _Packing, k: int) -> ValueError:
    """The error for the lowest bit of ``word`` past the columns of its row
    or past the rows of its slot."""
    outside = word & packing.invalid
    slot, bit = divmod((outside & -outside).bit_length() - 1, packing.slot)
    row = bit // packing.stride
    mask = word >> slot * packing.slot + row * packing.stride & packing.unit
    where = f"row {row}" if k == 1 and not slot else f"row {row} of slot {slot}"
    return ValueError(f"{where} is {mask!r}, not a mask on {n} columns")


def _out_of_range(rows: Sequence[int], n: int) -> ValueError:
    """The error for the first row of ``rows`` that is not a mask on ``n``
    columns (a packed bit outside them would land in another row)."""
    for i, mask in enumerate(rows):
        if not (isinstance(mask, int) and 0 <= mask < 1 << n):
            break
    return ValueError(f"row {i} is {mask!r}, not a mask on {n} columns")


def odd_column_slots(word: int, n: int, k: int = 1) -> int:
    """The slots of ``word``, a batch of ``k`` square matrices of side ``n``
    (see :func:`slot_layout`), whose matrix has every column sum odd, as
    one bit at the start of each such slot.

    Bit j of the XOR of a matrix's rows is the parity of column j, so every
    column is odd exactly when that XOR is the all-ones mask.  The rows of
    every slot are XORed into its row 0, one shift per halving of the side,
    and the bits of row 0 that miss all ones are ORed into its bit 0.
    """
    packing = _packing(n, k)
    stride, starts = packing.stride, packing.starts
    shift = packing.slot >> 1
    while shift >= stride:
        word ^= word >> shift
        shift >>= 1
    miss = (word & packing.unit * starts) ^ ((1 << n) - 1) * starts
    while shift:  # on from stride / 2
        miss |= miss >> shift
        shift >>= 1
    return starts & ~miss


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


class BitMatrix:
    """An ``n`` by ``n`` matrix over GF(2) with rows stored as bitmasks;
    immutable, and equal only to a ``BitMatrix`` of the same fields."""

    __slots__ = ("n", "rows")
    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: Iterable[int]) -> None:
        if n < 0:
            raise ValueError("matrix dimension must be nonnegative")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        limit = 1 << n
        for mask in rows:
            if not (isinstance(mask, int) and 0 <= mask < limit):
                raise _out_of_range(rows, n)
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
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, tuple(1 << i for i in range(n)))

    def to_text(self) -> str:
        """Render as ``n`` lines of ``n`` characters, bit exact."""
        # Column j is bit j of a row, so a row is its binary form reversed.
        return "\n".join(f"{mask:0{self.n}b}"[::-1] for mask in self.rows)

    def transpose(self) -> BitMatrix:
        n = self.n
        return BitMatrix(n, unpack_rows(transpose_slots(pack_rows(self.rows, n), n), n))

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
        the reduced block needs testing.  The batch of one matrix through
        :func:`odd_column_slots`.
        """
        return bool(odd_column_slots(pack_rows(self.rows, self.n), self.n))

    def __str__(self) -> str:
        return self.to_text()


# ----------------------------------------------------------------------
# growing the matrices with all unit principal minors
# ----------------------------------------------------------------------


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


def _sums(vectors: Iterable[Sequence[int]], k: int) -> list[list[int]]:
    """Entry x is the XOR of ``vectors[i]``, each k ints, over the bits i of
    x, for every x below 2^len(vectors), by doubling."""
    table = [[0] * k]
    for vector in vectors:
        table += [[a ^ b for a, b in zip(sums, vector)] for sums in table]
    return table


Planes = list[list[int]]


def _children(k: int, word: int, planes: Planes, stride: int,
              inverses: bool) -> Iterator[tuple[int, Planes | None]]:
    """Yield ``(word, planes)`` for each member bordering the k by k member
    packed in ``word``, with principal inverses ``planes``, by new row r,
    then new column c; the child's planes only with ``inverses``.

    Bit t of ``columns[c][i]`` is entry i of u = B_t^-1 c_t, and bit t of
    ``forms[r][j]`` entry j of v = r_t B_t^-1.  Bit t of ``sums[r * 2^k +
    c]`` is r_t u = v c_t: r and c border a member exactly when it is 0.
    """
    size = 1 << k  # the index sets of the block; t + {k} is bit t + size
    columns = _sums(zip(*planes), k)
    sums = [0] * size  # r = 0, then doubled over the bits i of r
    for entries in zip(*columns):  # entry i of every column's u
        sums += [a ^ b for a, b in zip(sums, entries * (len(sums) >> k))]
    spread = [0]  # spread[c]: the bits of c as column k of the packed rows
    for i in range(k):
        bit = 1 << i * stride + k
        spread += [x | bit for x in spread]
    if inverses:
        forms = _sums(planes, k)
        corner = [((1 << size) - 1) << size]  # entry (k, k) of every B_s^-1
    for i, x in enumerate(sums):
        if x:
            continue
        r, c = divmod(i, size)
        child = word | (r | size) << k * stride | spread[c]
        if not inverses:
            yield child, None
            continue
        v = forms[r]
        grown = [[p | (p ^ ui & vj) << size for p, vj in zip(plane, v)] + [ui << size]
                 for plane, ui in zip(planes, columns[c])]
        grown.append([vj << size for vj in v] + corner)
        yield child, grown


def unit_minor_walk(n: int, inverses: bool = False
                    ) -> Iterator[tuple[int, int, Planes | None]]:
    """Yield ``(k, word, planes)`` for every member of every side k <= n
    (a GF(2) matrix whose principal minors all equal 1), each once, depth
    first: a member, then every member that it leads.

    ``word`` packs the rows at the stride of :func:`slot_layout` for side
    n: :func:`pack_rows`' layout for side n, and for every side if n <= 8.
    ``planes`` are the member's principal inverses (module docstring), None
    at side n unless ``inverses``; the walk holds those of one path.
    """
    if n < 0:
        raise ValueError("matrix dimension must be nonnegative")
    stride = _packing(n, 1).stride
    yield 0, 0, []
    path = [_children(0, 0, [], stride, n > 1 or inverses)] if n else []
    while path:
        k = len(path)
        for word, planes in path[-1]:
            yield k, word, planes
            if k < n:
                path.append(_children(k, word, planes, stride, k + 1 < n or inverses))
                break
        else:
            path.pop()


def count_unit_minor_matrices(n: int, odd_columns: bool = False) -> int:
    """Number of ``n`` by ``n`` GF(2) matrices with all principal minors 1,
    or, with ``odd_columns``, of those whose column sums are also all odd.

    The last border is counted, not listed: for each (n-1) by (n-1) member
    B and new row r, the admissible columns form a subspace of dimension
    n - 1 - rank of the forms.  Odd column sums fix r and add the all-ones
    form, bit 0 of each form, on c (module docstring).
    """
    if n < 0:
        raise ValueError("matrix dimension must be nonnegative")
    if n == 0:
        return 1  # the empty matrix; its column sums are vacuously odd
    k = n - 1
    total = 0
    for side, word, planes in unit_minor_walk(k, inverses=True):
        if side < k:
            continue
        if not odd_columns:
            total += sum(1 << (k - _rank(forms)) for forms in _sums(planes, k))
            continue
        r = ((1 << k) - 1) ^ reduce(xor, unpack_rows(word, k), 0)
        picked = [plane for i, plane in enumerate(planes) if r >> i & 1]
        forms = [reduce(xor, [plane[j] for plane in picked], 1) for j in range(k)]
        total += 1 << (k - _rank(forms))
    return total
