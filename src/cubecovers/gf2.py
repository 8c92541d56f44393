"""Square bit matrices over GF(2).

Rows are packed into integer bitmasks (bit ``j`` of ``rows[i]`` is the entry
in row ``i``, column ``j``), so row elimination is a single XOR per row and
the same code path works for any dimension.  Values are immutable: every
operation returns a new matrix or a plain value, which makes them safe to
share between concurrent tasks.

The one domain-specific test here is :meth:`BitMatrix.has_unit_principal_minors`:
a square GF(2) matrix is the reduced characteristic matrix of a small cover
over a cube exactly when every principal minor equals 1.  That method still
evaluates every one of the ``2^n - 1`` principal minors, but by recursive
Schur complements over a depth-first walk of the index subsets, not one
elimination per subset in increasing bitmask order.  It is the exact
matrix-side oracle for small ``n``, and it shares no code with
:mod:`cubecovers.digraph`; large-scale work goes through the digraph
dictionary in :mod:`cubecovers.correspondence`.
:meth:`BitMatrix.principal_minor` and :meth:`BitMatrix.det` keep the
per-subset definition the walk is tested against.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from operator import xor


__all__ = ["BitMatrix", "transpose_masks"]


def transpose_masks(rows: Iterable[int], n: int) -> tuple[int, ...]:
    """The rows of the transpose of the ``n`` by ``n`` matrix whose rows are
    the bitmasks ``rows``.

    Walks the set bits only, so the cost is the number of ones, not n^2.
    """
    cols = [0] * n
    for i, mask in enumerate(rows):
        bit = 1 << i
        while mask:
            low = mask & -mask
            cols[low.bit_length() - 1] |= bit
            mask ^= low
    return tuple(cols)


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
    def zeros(cls, n: int) -> BitMatrix:
        return cls(n, (0,) * n)

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
        """Determinant over GF(2) by Gaussian elimination with row pivoting.

        The pivot choice cannot change the result: over GF(2) a determinant
        is 1 exactly when the rows are linearly independent.  The empty
        matrix has determinant 1 (empty product).
        """
        rows = list(self.rows)
        for col in range(self.n):
            pivot = -1
            for i in range(col, self.n):
                if (rows[i] >> col) & 1:
                    pivot = i
                    break
            if pivot < 0:
                return 0
            rows[col], rows[pivot] = rows[pivot], rows[col]
            top = rows[col]
            for i in range(col + 1, self.n):
                if (rows[i] >> col) & 1:
                    rows[i] ^= top
        return 1

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
        the reduced block needs testing.  Bit j of the XOR of all rows is
        the parity of column j, so every column is odd exactly when that XOR
        is the all-ones mask.
        """
        return reduce(xor, self.rows, 0) == (1 << self.n) - 1

    def __str__(self) -> str:
        return self.to_text()
