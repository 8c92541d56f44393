import ast
import itertools
import random
from operator import or_, xor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import set_bit_transpose

from cubecovers import BitMatrix, count_dags, gf2
from cubecovers.correspondence import unit_diagonal_matrices


def cofactor_det(bits) -> int:
    """Independent GF(2) determinant: expansion along the first row.

    Signs vanish mod 2, so the cofactor sum is a plain XOR.
    """
    n = len(bits)
    if n == 0:
        return 1
    if n == 1:
        return bits[0][0]
    total = 0
    for j in range(n):
        if bits[0][j]:
            minor = [[row[c] for c in range(n) if c != j] for row in bits[1:]]
            total ^= cofactor_det(minor)
    return total


def all_matrices(n):
    for masks in itertools.product(range(1 << n), repeat=n):
        yield BitMatrix(n, tuple(masks))


# ----------------------------------------------------------------------
# determinant
# ----------------------------------------------------------------------


def test_det_identity():
    for n in range(6):
        assert BitMatrix.identity(n).det() == 1


def test_det_zero_matrix():
    assert BitMatrix(2, (0, 0)).det() == 0


def test_det_sample_matrix_matches_cofactor_oracle(sample_matrix):
    assert sample_matrix.det() == 1
    assert cofactor_det([list(r) for r in sample_matrix.to_bits()]) == 1


@pytest.mark.parametrize("n", range(4))
def test_det_agrees_with_cofactor_oracle_exhaustively(n):
    for m in all_matrices(n):
        assert m.det() == cofactor_det([list(r) for r in m.to_bits()])


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, (1 << n) - 1), min_size=n, max_size=n))))
def test_det_agrees_with_cofactor_oracle_random(case):
    n, masks = case
    m = BitMatrix(n, tuple(masks))
    assert m.det() == cofactor_det([list(r) for r in m.to_bits()])


def test_empty_matrix_conventions():
    empty = BitMatrix(0, ())
    assert empty.det() == 1
    assert empty.has_unit_principal_minors()
    assert empty.has_odd_column_sums()


# ----------------------------------------------------------------------
# principal minors
# ----------------------------------------------------------------------


def test_principal_minor_of_identity():
    m = BitMatrix.identity(4)
    for size in range(1, 5):
        for subset in itertools.combinations(range(4), size):
            assert m.principal_minor(subset) == 1


def test_principal_minor_sample_values(sample_matrix):
    assert sample_matrix.principal_minor([0]) == 1
    # rows/cols {0, 3} of the sample form ((1,0),(1,1)), determinant 1
    assert sample_matrix.principal_minor([0, 3]) == 1


def test_principal_minor_rejects_bad_subsets(sample_matrix):
    with pytest.raises(ValueError):
        sample_matrix.principal_minor([])
    with pytest.raises(ValueError):
        sample_matrix.principal_minor([4])
    with pytest.raises(ValueError):
        sample_matrix.principal_minor([-1])


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, (1 << n) - 1), min_size=n, max_size=n))))
def test_det_equals_full_principal_minor(case):
    n, masks = case
    m = BitMatrix(n, tuple(masks))
    assert m.det() == m.principal_minor(range(n))


# ----------------------------------------------------------------------
# all-unit-minors membership
# ----------------------------------------------------------------------


def test_identity_has_unit_principal_minors():
    for n in range(5):
        assert BitMatrix.identity(n).has_unit_principal_minors()


def test_zero_diagonal_entry_fails_membership():
    m = BitMatrix.from_rows([[1, 1], [1, 0]])
    assert not m.has_unit_principal_minors()


def test_sample_matrix_is_member(sample_matrix):
    assert sample_matrix.has_unit_principal_minors()


def all_minors_unit(m):
    # The per-subset definition, one elimination per nonempty subset.
    return all(
        m.principal_minor([i for i in range(m.n) if (s >> i) & 1]) == 1
        for s in range(1, 1 << m.n)
    )


@pytest.mark.parametrize("n", range(5))
def test_schur_walk_matches_every_subset_minor_exhaustively(n):
    # Every n x n matrix for n <= 4 (2^16 of them at n = 4), zero diagonals
    # included; at n = 4 exactly D(4) = 543 pass.
    members = 0
    for m in all_matrices(n):
        got = m.has_unit_principal_minors()
        assert got == all_minors_unit(m), m.rows
        members += got
    assert members == [1, 1, 3, 25, 543][n]


def unit_upper_conjugate(n, strict_upper, perm):
    # P U P^t for U unit upper triangular: entry (perm[i], perm[j]) is U[i][j].
    rows = [0] * n
    for i in range(n):
        upper = (1 << i) | ((strict_upper[i] << (i + 1)) & ((1 << n) - 1))
        for j in range(n):
            if (upper >> j) & 1:
                rows[perm[i]] |= 1 << perm[j]
    return BitMatrix(n, tuple(rows))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_schur_walk_matches_every_subset_minor_at_five_to_seven(data):
    n = data.draw(st.integers(5, 7))
    if data.draw(st.booleans()):
        # Permuted unit upper triangular matrices are all members: each
        # principal submatrix is again one, with determinant 1.
        strict_upper = data.draw(st.lists(
            st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
        perm = data.draw(st.permutations(range(n)))
        m = unit_upper_conjugate(n, strict_upper, perm)
        assert m.has_unit_principal_minors()
        assert all_minors_unit(m)
    else:
        masks = data.draw(st.lists(
            st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
        # Forcing some diagonal entries to 1 (3/4 of them end up 1) lets
        # more walks get past the 1x1 minors.
        unit = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        m = BitMatrix(n, tuple(
            mask | (1 << i) if flag else mask
            for i, (mask, flag) in enumerate(zip(masks, unit))
        ))
        assert m.has_unit_principal_minors() == all_minors_unit(m)


def test_minor_oracle_shares_nothing_with_the_digraph_module():
    assert not any(
        getattr(value, "__module__", None) == "cubecovers.digraph"
        or getattr(value, "__name__", None) == "cubecovers.digraph"
        for value in vars(gf2).values()
    )
    # Nor does it import anything from the package: the grown walk and the
    # oracle are GF(2) code alone.
    imported = set()
    for node in ast.walk(ast.parse(Path(gf2.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported
    assert not any(name.startswith(("cubecovers", ".")) for name in imported), imported


@pytest.mark.parametrize("n", range(4))
def test_membership_implies_unit_diagonal(n):
    for m in all_matrices(n):
        if m.has_unit_principal_minors():
            assert all(m.entry(i, i) == 1 for i in range(n))


@pytest.mark.parametrize("n", range(5))
def test_membership_closed_under_transpose(n):
    for m in all_matrices(n):
        assert m.has_unit_principal_minors() == m.transpose().has_unit_principal_minors()


# ----------------------------------------------------------------------
# growing the members one index at a time
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", range(5))
def test_grown_walk_equals_the_full_scan(n):
    # The reference is the full scan: every unit-diagonal matrix through the
    # Schur-walk oracle.
    members = {m for m in unit_diagonal_matrices(n) if m.has_unit_principal_minors()}
    grown = list(gf2.unit_minor_matrices(n))
    assert len(set(grown)) == len(grown)
    assert set(grown) == members
    assert gf2.count_unit_minor_matrices(n) == len(members)
    assert gf2.count_unit_minor_matrices(n, odd_columns=True) == sum(
        m.has_odd_column_sums() for m in members
    )


def test_grown_walk_at_five_lists_members_only_and_each_once():
    # Too many candidates for the full scan in a test; D(5) members, each
    # passing the oracle and none twice, are the whole set.
    grown = list(gf2.unit_minor_matrices(5))
    assert len(grown) == len(set(grown)) == count_dags(5)
    assert all(m.has_unit_principal_minors() for m in grown)


def test_grown_walk_rejects_a_negative_dimension():
    with pytest.raises(ValueError):
        next(gf2.unit_minor_matrices(-1))
    with pytest.raises(ValueError):
        gf2.count_unit_minor_matrices(-1)


# ----------------------------------------------------------------------
# column parity (orientability of the matching cover)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", range(5))
def test_transpose_and_column_parity_match_their_entrywise_definition(n):
    for m in all_matrices(n):
        # Row j of the transpose collects entry (i, j) of every row i.
        columns = tuple(
            sum(((row >> j) & 1) << i for i, row in enumerate(m.rows))
            for j in range(n)
        )
        assert m.transpose().rows == columns
        assert m.has_odd_column_sums() == all(c.bit_count() % 2 for c in columns)


@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, (1 << n) - 1), max_size=40), st.just(n))))
@settings(max_examples=300)
def test_transpose_masks_matches_the_set_bit_walk(case):
    rows, n = case
    assert gf2.transpose_masks(tuple(rows), n) == set_bit_transpose(rows, n)


@pytest.mark.parametrize("m,n", [(0, 65), (65, 0), (65, 65), (100, 70), (3, 129),
                                 (128, 128)])
def test_transpose_masks_beyond_a_64_bit_stride(m, n):
    # Strides above 64 bits are packed by shifts, not by struct fields.
    rng = random.Random(m * 1000 + n)
    rows = tuple(rng.getrandbits(n) for _ in range(m))
    assert gf2.transpose_masks(rows, n) == set_bit_transpose(rows, n)


@pytest.mark.parametrize("rows,n,row", [
    ((1 << 5,), 2, 0),
    ((1, 4), 2, 1),
    ((0, -1), 2, 1),
    ((0, 1 << 64), 64, 1),
    ((0,) * 70 + (1 << 100,), 100, 70),
], ids=["past-the-columns", "next-column", "negative", "past-a-64-bit-stride",
        "past-the-columns-at-a-128-bit-stride"])
def test_transpose_masks_names_a_row_outside_its_columns(rows, n, row):
    # Packed, such a bit would land in another row instead of failing.
    with pytest.raises(ValueError, match=f"^row {row} is "):
        gf2.transpose_masks(rows, n)


def _one_block_at_a_time(rows, n, fold, blocks):
    """The stacked columns of each block, by one call per block and by the
    set-bit walk, with the identity folded in by ``fold`` (or not)."""
    height = len(rows) // blocks if blocks else 0
    calls, walks = [], []
    for c in range(blocks):
        block = rows[c * height:(c + 1) * height]
        calls.extend(gf2.transpose_masks(block, n, fold))
        if fold is not None:
            block = [fold(mask, 1 << i if i < n else 0) for i, mask in enumerate(block)]
        walks.extend(set_bit_transpose(block, n))
    return tuple(calls), tuple(walks)


@given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 64),
       st.sampled_from([None, or_, xor]), st.randoms(use_true_random=False))
@settings(max_examples=300)
def test_stacked_blocks_transpose_as_one_call_per_block(height, n, blocks, fold, rng):
    # Heights and widths 0-9: a block of 3, 5 or 9 rows is padded to 4, 8
    # or 16 lanes, and a block of 0 rows or 0 columns to one.
    rows = tuple(rng.getrandbits(n) if n else 0 for _ in range(height * blocks))
    calls, walks = _one_block_at_a_time(rows, n, fold, blocks)
    assert gf2.transpose_masks(rows, n, fold, blocks) == calls == walks


@pytest.mark.parametrize("height,n,blocks", [(65, 3, 2), (3, 65, 3), (70, 70, 2),
                                             (100, 65, 3), (2, 129, 2)])
@pytest.mark.parametrize("fold", [None, or_, xor], ids=["plain", "or", "xor"])
def test_stacked_blocks_beyond_a_64_bit_stride(height, n, blocks, fold):
    # Strides above 64 bits are packed by shifts, block after block.
    rng = random.Random(height * 1000 + n * 10 + blocks)
    rows = tuple(rng.getrandbits(n) for _ in range(height * blocks))
    calls, walks = _one_block_at_a_time(rows, n, fold, blocks)
    assert gf2.transpose_masks(rows, n, fold, blocks) == calls == walks


@pytest.mark.parametrize("rows,n,blocks,row", [
    ((1, 2, 3, 1 << 2), 2, 2, 3),
    ((0, 0, 0, 1 << 3, 0, 0), 3, 2, 3),
    ((0,) * 8 + (-1,), 3, 3, 8),
    ((0,) * 5 + (1 << 70,), 70, 2, 5),
], ids=["last-block", "first-row-of-the-second-block", "negative", "shift-path"])
def test_stacked_blocks_name_a_row_outside_its_columns(rows, n, blocks, row):
    # The row is named by its index in the stack; packed, its stray bit
    # would land in the next row or the next block.
    with pytest.raises(ValueError, match=f"^row {row} is "):
        gf2.transpose_masks(rows, n, None, blocks)


@pytest.mark.parametrize("length,blocks", [(3, 2), (7, 4), (1, 0), (0, -1)])
def test_stacked_blocks_must_be_of_equal_height(length, blocks):
    with pytest.raises(ValueError, match=f"^cannot split {length} rows into "
                                         f"{blocks} blocks of equal height$"):
        gf2.transpose_masks((0,) * length, 3, None, blocks)


def test_identity_columns_all_odd():
    assert BitMatrix.identity(5).has_odd_column_sums()


def test_sample_matrix_column_sums(sample_matrix):
    assert sample_matrix.column_sums() == (2, 4, 1, 2)
    assert not sample_matrix.has_odd_column_sums()


def test_odd_column_sums_example():
    m = BitMatrix.from_rows([[1, 0, 0], [1, 1, 0], [1, 0, 1]])
    assert m.column_sums() == (3, 1, 1)
    assert m.has_odd_column_sums()


# ----------------------------------------------------------------------
# construction and text format
# ----------------------------------------------------------------------


def test_from_rows_rejects_nonsquare():
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[1, 0, 1], [0, 1, 0]])


def test_from_rows_rejects_non_bits():
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[2, 0], [0, 1]])


def test_constructor_validates_masks():
    with pytest.raises(ValueError):
        BitMatrix(2, (4, 0))
    with pytest.raises(ValueError):
        BitMatrix(2, (0,))


def test_text_round_trip(sample_matrix):
    text = sample_matrix.to_text()
    assert text == "1100\n0100\n0111\n1101"
    assert BitMatrix.from_text(text) == sample_matrix
    assert BitMatrix.from_text(text + "\n") == sample_matrix


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        BitMatrix.from_text("10\n012")
    with pytest.raises(ValueError):
        BitMatrix.from_text("1x\n01")


@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
@settings(max_examples=60)
def test_transpose_is_involution(masks):
    m = BitMatrix(len(masks), tuple(masks))
    assert m.transpose().transpose() == m
