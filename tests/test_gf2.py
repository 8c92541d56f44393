import ast
import itertools
import random
import re
from operator import or_, xor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import set_bit_transpose

from cubecovers import BitMatrix, Digraph, count_dags, gf2
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


def entries(m):
    """The nested 0/1 entries of ``m``, row major, read off its rows."""
    return [[row >> j & 1 for j in range(m.n)] for row in m.rows]


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
    assert cofactor_det(entries(sample_matrix)) == 1


@pytest.mark.parametrize("n", range(4))
def test_det_agrees_with_cofactor_oracle_exhaustively(n):
    for m in all_matrices(n):
        assert m.det() == cofactor_det(entries(m))


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, (1 << n) - 1), min_size=n, max_size=n))))
def test_det_agrees_with_cofactor_oracle_random(case):
    n, masks = case
    m = BitMatrix(n, tuple(masks))
    assert m.det() == cofactor_det(entries(m))


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


@given(st.data())
def test_principal_minor_matches_cofactor_det_on_random_subsets(data):
    # The index-to-mask step of principal_minor against a reference that
    # builds the principal submatrix from its indices.
    n = data.draw(st.integers(1, 6))
    m = BitMatrix(n, tuple(data.draw(st.lists(
        st.integers(0, (1 << n) - 1), min_size=n, max_size=n))))
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    bits = entries(m)
    want = cofactor_det([[bits[i][j] for j in sorted(set(subset))]
                         for i in sorted(set(subset))])
    assert m.principal_minor(subset) == want


# ----------------------------------------------------------------------
# all-unit-minors membership
# ----------------------------------------------------------------------


def test_identity_has_unit_principal_minors():
    for n in range(5):
        assert BitMatrix.identity(n).has_unit_principal_minors()


def test_zero_diagonal_entry_fails_membership():
    m = BitMatrix(2, (0b11, 0b01))
    assert not m.has_unit_principal_minors()


def test_sample_matrix_is_member(sample_matrix):
    assert sample_matrix.has_unit_principal_minors()


def all_minors_unit(m):
    # The per-subset definition, each minor by cofactor expansion of its
    # principal submatrix: no rank, no elimination.
    bits = entries(m)
    return all(
        cofactor_det([[bits[i][j] for j in subset] for i in subset])
        for size in range(1, m.n + 1)
        for subset in itertools.combinations(range(m.n), size)
    )


@pytest.mark.parametrize("n", range(5))
def test_rank_test_matches_every_cofactor_minor_exhaustively(n):
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
def test_rank_test_matches_every_cofactor_minor_at_five_to_seven(data):
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
        # more matrices get past the 1x1 minors.
        unit = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        m = BitMatrix(n, tuple(
            mask | (1 << i) if flag else mask
            for i, (mask, flag) in enumerate(zip(masks, unit))
        ))
        assert m.has_unit_principal_minors() == all_minors_unit(m)


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("seed", range(3))
def test_a_permuted_cycle_fails_only_its_full_minor(n, seed):
    # I + C_n, C_n a directed n-cycle, under a random permutation P: every
    # proper principal submatrix is I plus the adjacency of a union of
    # paths, with minor 1, but each column holds two ones, so the rows sum
    # to 0 and the full determinant is 0.  A minor test that skips the full
    # index set passes it.
    perm = random.Random(n * 10 + seed).sample(range(n), n)
    rows = [0] * n
    for i in range(n):
        rows[perm[i]] |= 1 << perm[i] | 1 << perm[(i + 1) % n]
    m = BitMatrix(n, tuple(rows))
    assert m.det() == 0
    assert all(m.principal_minor(s) for size in range(1, n)
               for s in itertools.combinations(range(n), size))
    assert not m.has_unit_principal_minors()
    assert not all_minors_unit(m)


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
            assert all(m.rows[i] >> i & 1 for i in range(n))


@pytest.mark.parametrize("n", range(5))
def test_membership_closed_under_transpose(n):
    for m in all_matrices(n):
        assert m.has_unit_principal_minors() == m.transpose().has_unit_principal_minors()


# ----------------------------------------------------------------------
# growing the members one index at a time
# ----------------------------------------------------------------------


def side(n):
    """The row masks of the members of side n, grown as the verify records
    grow them: the walk to side n - 1, then each member's border.  Every
    side up to 8 packs at the same stride."""
    if not n:
        return iter([()])
    stride = gf2.slot_layout(n)[0]
    return (gf2.unpack_rows(child, n)
            for k, word, planes in gf2.unit_minor_walk(n - 1) if k == n - 1
            for child in gf2.unit_minor_border(word, planes, stride))


def full_scan(n):
    """The members of side n by the reference: every unit-diagonal matrix
    through the rank-test oracle."""
    return {m.rows for m in unit_diagonal_matrices(n) if m.has_unit_principal_minors()}


@pytest.mark.parametrize("n", range(5))
def test_grown_walk_equals_the_full_scan(n):
    members = full_scan(n)
    grown = list(side(n))
    assert len(set(grown)) == len(grown)
    assert set(grown) == members
    assert gf2.count_unit_minor_matrices(n) == len(members)
    assert gf2.count_unit_minor_matrices(n, odd_columns=True) == sum(
        BitMatrix(n, rows).has_odd_column_sums() for rows in members
    )


@pytest.mark.parametrize("n", range(1, 5))
def test_each_border_lists_the_children_that_the_walk_steps_to(n):
    # A member's border is the list of the words that stepping the walk
    # one side further yields under it, in the same order.
    stride = gf2.slot_layout(n)[0]
    walk = list(gf2.unit_minor_walk(n))
    for at, (k, word, planes) in enumerate(walk):
        if k != n - 1:
            continue
        stepped = []
        for child in walk[at + 1:]:
            if child[0] != n:
                break
            stepped.append(child[1])
        assert gf2.unit_minor_border(word, planes, stride) == stepped


def test_grown_walk_at_five_lists_members_only_and_each_once():
    # Too many candidates for the full scan in a test; D(5) members, each
    # passing the oracle and none twice, are the whole set.
    grown = list(side(5))
    assert len(grown) == len(set(grown)) == count_dags(5)
    assert all(BitMatrix(5, rows).has_unit_principal_minors() for rows in grown)


def test_grown_walk_rejects_a_negative_dimension():
    with pytest.raises(ValueError):
        next(gf2.unit_minor_walk(-1))
    with pytest.raises(ValueError):
        gf2.count_unit_minor_matrices(-1)


def gauss_jordan_inverse(rows, subset):
    """Independent inverse over GF(2) of the principal submatrix of the
    matrix with bitmask rows ``rows`` on the index set ``subset``, as a dict
    from (i, j) to entry (i, j): Gauss-Jordan on 0/1 lists.  A singular
    submatrix finds no pivot and raises StopIteration."""
    idx = [i for i in range(len(rows)) if subset >> i & 1]
    m = len(idx)
    aug = [[rows[i] >> j & 1 for j in idx] + [int(p == q) for q in range(m)]
           for p, i in enumerate(idx)]
    for col in range(m):
        pivot = next(p for p in range(col, m) if aug[p][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for p in range(m):
            if p != col and aug[p][col]:
                aug[p] = [x ^ y for x, y in zip(aug[p], aug[col])]
    return {(i, j): aug[p][m + q] for p, i in enumerate(idx) for q, j in enumerate(idx)}


def test_the_walk_carries_every_principal_inverse():
    stride, _, _ = gf2.slot_layout(4)
    seen = 0
    for k, word, planes in gf2.unit_minor_walk(4):
        rows = [word >> i * stride & (1 << stride) - 1 for i in range(k)]
        assert word >> k * stride == 0
        assert [len(plane) for plane in planes] == [k] * k
        for s in range(1 << k):
            inverse = gauss_jordan_inverse(rows, s)
            assert [[plane >> s & 1 for plane in row] for row in planes] == [
                [inverse.get((i, j), 0) for j in range(k)] for i in range(k)], (rows, s)
        seen += 1
    assert seen == sum(count_dags(k) for k in range(5))


def test_one_walk_yields_each_sides_members_once():
    # The walk to side 4 and the borders of its members there.
    stride = gf2.slot_layout(5)[0]
    by_side = [[] for _ in range(6)]
    for k, word, planes in gf2.unit_minor_walk(4):
        by_side[k].append(word)
        assert len(planes) == k
        if k == 4:
            by_side[5] += gf2.unit_minor_border(word, planes, stride)
    for k, words in enumerate(by_side):
        assert len(words) == len(set(words)) == count_dags(k)
        if k < 5:  # side 5 is test_grown_walk_at_five_lists_members_only_and_each_once
            assert set(words) == {gf2.pack_rows(rows, k) for rows in full_scan(k)}


def test_the_walk_streams_one_path(monkeypatch):
    # A member of side 6 comes after one expansion per side below it, the
    # border of side 5 the last, not after a whole level of the 29,281
    # members of side 5 and their planes.
    expanded = []
    children, border = gf2._children, gf2.unit_minor_border

    def counted_children(k, *args):
        expanded.append(k)
        return children(k, *args)

    def counted_border(word, planes, stride):
        expanded.append(len(planes))
        return border(word, planes, stride)

    monkeypatch.setattr(gf2, "_children", counted_children)
    monkeypatch.setattr(gf2, "unit_minor_border", counted_border)
    first = next(side(6))
    assert BitMatrix(6, first).has_unit_principal_minors()
    assert expanded == list(range(6))


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
    st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n), st.just(n))))
@settings(max_examples=300)
def test_transpose_masks_matches_the_set_bit_walk(case):
    rows, n = case
    assert BitMatrix(n, rows).transpose().rows == set_bit_transpose(rows, n)


@pytest.mark.parametrize("n", [65, 100, 128, 129])
def test_transpose_masks_beyond_a_64_bit_stride(n):
    # Strides above 64 bits are packed by shifts, not by struct fields.
    rng = random.Random(n)
    rows = tuple(rng.getrandbits(n) for _ in range(n))
    assert BitMatrix(n, rows).transpose().rows == set_bit_transpose(rows, n)


@pytest.mark.parametrize("n,row,mask", [
    (2, 0, 1 << 5),
    (2, 1, 4),
    (2, 1, -1),
    (64, 1, 1 << 64),
    (100, 70, 1 << 100),
    (65, 0, 1 << 128),
    (65, 1, 1.0),
], ids=["past-the-columns", "next-column", "negative", "past-a-64-bit-stride",
        "past-the-columns-at-a-128-bit-stride", "past-a-128-bit-stride",
        "not-an-int-at-a-128-bit-stride"])
def test_transpose_masks_names_a_row_outside_its_columns(n, row, mask):
    # The matrix refuses such a row.  Packed by hand, its bit would land in
    # another row, so the packing or the transpose refuses it too.
    rows = tuple(mask if i == row else 0 for i in range(n))
    message = re.escape(f"row {row} is {mask!r}, not a mask on {n} columns")
    with pytest.raises(ValueError, match=f"^{message}$"):
        BitMatrix(n, rows).transpose()
    with pytest.raises(ValueError, match=f"^{message}$"):
        gf2.transpose_slots(gf2.pack_rows(rows, n), n)


def random_batch(rng, k, m, n):
    return [tuple(rng.getrandbits(n) for _ in range(m)) for _ in range(k)]


@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32),
       st.sampled_from([None, or_, xor]))
@settings(max_examples=150)
def test_a_batch_transposes_like_its_slots_one_by_one(n, k, seed, with_identity):
    # Up to n = 9, a slot of 16 rows of 16 bits, past a 64-bit field.
    matrices = random_batch(random.Random(seed), k, n, n)
    word = gf2.join_slots([gf2.pack_rows(rows, n) for rows in matrices], n)
    batch = gf2.split_slots(gf2.transpose_slots(word, n, k, with_identity), n, k)
    if with_identity is not None:
        matrices = [[with_identity(mask, 1 << i) for i, mask in enumerate(rows)]
                    for rows in matrices]
    assert [gf2.unpack_rows(slot, n) for slot in batch] == [
        set_bit_transpose(rows, n) for rows in matrices]


@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32))
@settings(max_examples=100)
def test_a_batch_tests_column_parities_like_its_slots_one_by_one(n, k, seed):
    matrices = random_batch(random.Random(seed), k, n, n)
    word = gf2.join_slots([gf2.pack_rows(rows, n) for rows in matrices], n)
    _, width, starts = gf2.slot_layout(n, k)
    odd = gf2.odd_column_slots(word, n, k)
    assert odd & ~starts == 0
    assert [odd >> t * width & 1 for t in range(k)] == [
        all(c.bit_count() & 1 for c in set_bit_transpose(rows, n)) for rows in matrices]


@pytest.mark.parametrize("n,k", [(2, 3), (5, 4), (9, 3)])
def test_a_batch_names_a_row_outside_its_columns_in_any_slot(n, k):
    stride, width, _ = gf2.slot_layout(n, k)
    for slot in range(k):
        for row in range(n):
            for bit in (n, stride - 1):
                word = 1 << slot * width + row * stride + bit
                with pytest.raises(ValueError,
                                   match=f"^row {row} of slot {slot} is {1 << bit}, "):
                    gf2.transpose_slots(word, n, k)
        if n < width // stride:  # a row past the n rows of the slot
            with pytest.raises(ValueError, match=f"^row {n} of slot {slot} is 1, "):
                gf2.transpose_slots(1 << slot * width + n * stride, n, k)
    # Past the last slot.
    with pytest.raises(ValueError, match=f"^row 0 of slot {k} is 1, "):
        gf2.transpose_slots(1 << k * width, n, k)


def test_identity_columns_all_odd():
    assert BitMatrix.identity(5).has_odd_column_sums()


def test_sample_matrix_column_sums(sample_matrix):
    assert sample_matrix.column_sums() == (2, 4, 1, 2)
    assert not sample_matrix.has_odd_column_sums()


def test_odd_column_sums_example():
    m = BitMatrix(3, (0b001, 0b011, 0b101))
    assert m.column_sums() == (3, 1, 1)
    assert m.has_odd_column_sums()


# ----------------------------------------------------------------------
# construction and text rendering
# ----------------------------------------------------------------------


def test_constructor_validates_masks():
    with pytest.raises(ValueError):
        BitMatrix(2, (4, 0))
    with pytest.raises(ValueError):
        BitMatrix(2, (0,))


@pytest.mark.parametrize("rows,n", [((1, 2), 3), ((1, 2, 4, 0, 0), 3), ((), 1), ((0,), 0)])
def test_pack_rows_refuses_a_row_count_other_than_n(rows, n):
    # Packed as they come, (1, 2) at n = 3 read back as (1, 2, 0), and five
    # rows spilled into a second slot.
    with pytest.raises(ValueError, match=f"^expected {n} rows, got {len(rows)}$"):
        gf2.pack_rows(rows, n)


def test_value_types_refuse_rows_that_are_not_ints():
    # A float row passes a range check alone, and would fail only later:
    # in det, the minor test or transpose (BitMatrix), or in the loop
    # check (Digraph).
    for value_type, rows in ((BitMatrix, (1.0, 2.0)), (Digraph, (2.0, 0))):
        with pytest.raises(ValueError, match=f"^row 0 is {rows[0]!r}, not a mask on 2 columns$"):
            value_type(2, rows)


@pytest.mark.parametrize("n", range(4))
def test_to_text_shows_every_entry(n):
    # Row i, character j is entry (i, j), for every matrix with n <= 3.
    for rows in itertools.product(range(1 << n), repeat=n):
        m = BitMatrix(n, rows)
        assert m.to_text() == "\n".join(
            "".join(map(str, row)) for row in entries(m))


@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
@settings(max_examples=60)
def test_transpose_is_involution(masks):
    m = BitMatrix(len(masks), tuple(masks))
    assert m.transpose().transpose() == m
