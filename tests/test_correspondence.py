import concurrent.futures
import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import set_bit_transpose

from cubecovers import (
    BitMatrix,
    Digraph,
    brute_count_characteristic_matrices,
    brute_count_orientable_characteristic_matrices,
    brute_counts,
    characteristic_matrix,
    count_dags,
    count_orientable_dags,
    digraph_from_characteristic,
    is_acyclic_dfs,
)
from cubecovers.correspondence import (
    adjacency_slots,
    characteristic_slots,
    unit_diagonal_matrices,
)
from cubecovers.digraph import (
    acyclic_codes,
    count_acyclic_codes,
    enumerate_acyclic,
    enumerate_digraphs,
    is_acyclic_dfs,
    rows_to_code,
)
from cubecovers.gf2 import pack_rows, unpack_rows


# ----------------------------------------------------------------------
# the map and its inverse
# ----------------------------------------------------------------------


@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
@settings(max_examples=300)
def test_row_maps_equal_their_literal_formulas(rows):
    # Any rows, loop bits included: the forward map sets the diagonal, the
    # inverse flips it, and both then transpose.  Each runs as a batch of
    # one graph.
    n = len(rows)
    word = pack_rows(rows, n)
    assert unpack_rows(characteristic_slots(word, n), n) == set_bit_transpose(
        [mask | 1 << i for i, mask in enumerate(rows)], n)
    assert unpack_rows(adjacency_slots(word, n), n) == set_bit_transpose(
        [mask ^ 1 << i for i, mask in enumerate(rows)], n)


@pytest.mark.parametrize("rows,n", [((1, 2, 4, 0, 0), 3), ((1, 2, 4, 1), 3),
                                    ((0, 0), 3), ((0,), 0)],
                         ids=["two-zero-rows-extra", "one-row-extra", "one-row-short",
                              "a-row-at-n-0"])
@pytest.mark.parametrize("value_type", [Digraph, BitMatrix])
def test_value_types_refuse_a_row_count_other_than_n(value_type, rows, n):
    # The transpose takes any number of rows, so the maps rely on their
    # arguments, a graph on n vertices or an n by n matrix, having n rows.
    with pytest.raises(ValueError, match=f"^expected {n} (adjacency )?rows, got {len(rows)}$"):
        value_type(n, rows)


def test_empty_graph_maps_to_identity():
    for n in range(5):
        assert characteristic_matrix(Digraph(n, (0,) * n)) == BitMatrix.identity(n)


def test_sample_pair_maps_bit_exactly(sample_graph, sample_matrix):
    assert characteristic_matrix(sample_graph) == sample_matrix
    assert digraph_from_characteristic(sample_matrix) == sample_graph


def test_single_edge_maps_to_lower_triangle():
    g = Digraph.from_edges(2, [(0, 1)])
    m = characteristic_matrix(g)
    assert m.rows == (0b01, 0b11)
    assert digraph_from_characteristic(m) == g


def test_identity_matrix_maps_to_empty_graph():
    assert digraph_from_characteristic(BitMatrix.identity(3)) == Digraph(3, (0, 0, 0))


def test_inverse_rejects_zero_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        digraph_from_characteristic(BitMatrix(2, (0b11, 0b01)))


@pytest.mark.parametrize("n", range(5))
def test_maps_match_their_entrywise_definition(n):
    # characteristic_matrix: entry (i, j) is 1 on the diagonal and otherwise
    # the adjacency entry (j, i).  digraph_from_characteristic: edge u -> v
    # exactly when entry (v, u) is 1, for u != v.
    for g in enumerate_digraphs(n):
        m = characteristic_matrix(g)
        assert all(
            m.rows[i] >> j & 1 == (1 if i == j else (g.rows[j] >> i) & 1)
            for i in range(n) for j in range(n)
        )
    for m in unit_diagonal_matrices(n):
        g = digraph_from_characteristic(m)
        assert g.edges() == [
            (u, v) for u in range(n) for v in range(n) if u != v and m.rows[v] >> u & 1
        ]


@pytest.mark.parametrize("n", range(5))
def test_unit_diagonal_matrices_follow_the_code_order(n):
    # Matrix number c has a unit diagonal and the off-diagonal bits of code
    # c, read back by the encoder rather than the decoder the scan uses.
    matrices = list(unit_diagonal_matrices(n))
    assert len(matrices) == 1 << (n * (n - 1))
    for code, m in enumerate(matrices):
        assert all(m.rows[i] >> i & 1 for i in range(n))
        assert rows_to_code(m.rows) == code


def test_listings_refuse_negative_n_on_the_first_next():
    for scan in (unit_diagonal_matrices, enumerate_digraphs, acyclic_codes,
                 enumerate_acyclic):
        listing = scan(-1)
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            next(listing)


@pytest.mark.parametrize("n", range(5))
def test_round_trip_from_graphs(n):
    for g in enumerate_digraphs(n):
        assert digraph_from_characteristic(characteristic_matrix(g)) == g


@pytest.mark.parametrize("n", range(5))
def test_round_trip_from_unit_diagonal_matrices(n):
    for m in unit_diagonal_matrices(n):
        assert characteristic_matrix(digraph_from_characteristic(m)) == m


# ----------------------------------------------------------------------
# structure transfer
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", range(4))
def test_acyclic_exactly_when_all_minors_unit(n):
    for g in enumerate_digraphs(n):
        assert is_acyclic_dfs(g) == characteristic_matrix(g).has_unit_principal_minors()


@pytest.mark.parametrize("n", range(5))
def test_membership_exactly_when_preimage_acyclic(n):
    # Same equivalence read from the matrix side, through the inverse map.
    for m in unit_diagonal_matrices(n):
        assert m.has_unit_principal_minors() == is_acyclic_dfs(digraph_from_characteristic(m))


@pytest.mark.parametrize("n", range(4))
def test_even_out_degrees_exactly_when_columns_odd(n):
    # Holds for every digraph, not only acyclic ones: column i of the image
    # is row i of the adjacency matrix plus the diagonal 1.
    for g in enumerate_digraphs(n):
        assert g.all_out_degrees_even() == characteristic_matrix(g).has_odd_column_sums()


@pytest.mark.parametrize("n", range(4))
def test_image_of_acyclic_graphs_is_the_membership_set(n):
    images = {characteristic_matrix(g) for g in enumerate_acyclic(n)}
    members = {m for m in unit_diagonal_matrices(n) if m.has_unit_principal_minors()}
    assert images == members
    assert len(images) == count_dags(n)  # injectivity on the acyclic graphs


# ----------------------------------------------------------------------
# brute-force counters, digraph side
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,dags,orientable",
    [(0, 1, 1), (1, 1, 1), (2, 3, 1), (3, 25, 4), (4, 543, 43)],
)
def test_brute_counts_small(n, dags, orientable):
    assert brute_counts(n) == (dags, orientable)


@pytest.mark.parametrize("n", range(5))
def test_brute_counts_match_stream_lengths(n):
    got = brute_counts(n)
    assert got.dags == sum(1 for _ in enumerate_acyclic(n))
    assert got.orientable == sum(
        1 for g in enumerate_acyclic(n) if g.all_out_degrees_even()
    )


def _dfs_prefix_counts(n):
    # prefix[c] = (acyclic, orientable) among codes [0, c), by depth-first search.
    prefix = [(0, 0)]
    for g in enumerate_digraphs(n):
        acyclic = is_acyclic_dfs(g)
        orientable = acyclic and g.all_out_degrees_even()
        dags, even = prefix[-1]
        prefix.append((dags + acyclic, even + orientable))
    return prefix


@pytest.mark.parametrize("n", range(5))
def test_the_count_below_every_bound_matches_a_dfs_prefix(n):
    # count_acyclic_codes(n, 0, x) is the count along the path of the one
    # bound x; every x up to 2^(n(n-1)) inclusive, 4,097 of them at n = 4.
    # "Some row is odd" must hold across rows, not flip with each odd row.
    prefix = _dfs_prefix_counts(n)
    for x, want in enumerate(prefix):
        assert count_acyclic_codes(n, 0, x) == want, x


@pytest.mark.parametrize("n", [3, 4])
def test_brute_counts_match_dfs_on_code_ranges(n):
    prefix = _dfs_prefix_counts(n)
    total = len(prefix) - 1
    block = 1 << (n - 1)  # codes sharing rows 1 .. n-1
    rng = random.Random(n)
    ranges = [(0, total), (0, 0), (total, total)]
    ranges += [(b * block + 1, b * block + block - 1) for b in (0, 3, 5)]  # inside one block
    ranges += [(b * block, (b + 1) * block) for b in (0, 2, 7)]  # exactly one block
    ranges += [(b * block - 1, b * block + 1) for b in (1, 6)]  # across one block edge
    ranges += [(b * block + 2, (b + 3) * block - 2) for b in (0, 4)]  # across several
    pair = 1 << 2 * (n - 1)  # codes sharing rows 2 .. n-1
    ranges += [(b * pair + 3, b * pair + pair - 5) for b in (0, 1, 3)]  # inside one block
    ranges += [(b * pair, (b + 1) * pair) for b in (0, 2, 3)]  # exactly one block
    ranges += [(b * pair - 7, b * pair + 7) for b in (1, 2, 3)]  # across one block edge
    for _ in range(40):
        a, b = sorted(rng.randrange(total + 1) for _ in range(2))
        ranges.append((a, b))
    for a, b in ranges:
        want = tuple(x - y for x, y in zip(prefix[b], prefix[a]))
        assert brute_counts(n, start=a, stop=b) == want, (a, b)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool size and every
    piece handed out, and counts the pieces in this process, so no worker
    is ever started."""

    sizes: list[int]
    pieces: list[tuple[int, int]]

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        calls = list(zip(*iterables))
        self.pieces.extend((lo, hi) for _, lo, hi in calls)
        return list(itertools.starmap(fn, calls))


@pytest.fixture
def pool(monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [], raising=False)
    monkeypatch.setattr(RecordingPool, "pieces", [], raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool


class UnstartablePool(RecordingPool):
    """A pool that cannot start, as where no process support exists."""

    def __init__(self, max_workers):
        super().__init__(max_workers)
        raise OSError("no worker processes here")


class BrokenPool(RecordingPool):
    """A pool whose workers die before they return a piece."""

    def map(self, fn, *iterables):
        raise concurrent.futures.BrokenExecutor("a worker died")


@pytest.mark.parametrize("failing", [UnstartablePool, BrokenPool],
                         ids=["oserror-on-start", "broken-executor-in-map"])
def test_brute_counts_falls_back_in_process_when_the_pool_fails(monkeypatch, failing):
    want = brute_counts(4)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(failing, "sizes", [], raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", failing)
    assert brute_counts(4, jobs=2) == want == (543, 43)
    assert failing.sizes == [2]  # the pool path was taken, then abandoned


def test_jobs_are_clamped_to_the_cpu_count(monkeypatch, pool):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert brute_counts(4, jobs=100000) == (543, 43)
    assert pool.sizes == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker
    assert brute_counts(4, jobs=100000) == (543, 43)
    assert pool.sizes == [3]


@pytest.mark.parametrize("n", [4, 5])
def test_jobs_hand_out_equal_slices_that_tile_the_range(monkeypatch, pool, n):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    total = 1 << (n * (n - 1))
    size = 1 << ((n - 2) * (n - 1))
    for start, stop in [(0, total), (1, total - 1), (size - 1, 3 * size + 5), (7, 9)]:
        pool.pieces.clear()
        got = brute_counts(n, start=start, stop=stop, jobs=4)
        assert got == brute_counts(n, start=start, stop=stop)
        # The pieces tile [start, stop) in order, with no gap and no overlap,
        # one per job after the clamp to the CPU count and the range size,
        # all nonempty and equal give or take a code.
        pieces = pool.pieces
        assert pieces[0][0] == start and pieces[-1][1] == stop
        assert all(hi == lo for (_, hi), (lo, _) in zip(pieces, pieces[1:]))
        assert len(pieces) == min(3, stop - start)
        sizes = [hi - lo for lo, hi in pieces]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert brute_counts(n, jobs=4) == (count_dags(n), count_orientable_dags(n))


def test_partition_invariance():
    n = 4
    total = brute_counts(n)
    span = 1 << (n * (n - 1))
    # a deliberately uneven three-way split
    cuts = [0, span // 7, span // 2 + 13, span]
    pieces = [brute_counts(n, start=a, stop=b) for a, b in zip(cuts, cuts[1:])]
    assert sum(p.dags for p in pieces) == total.dags
    assert sum(p.orientable for p in pieces) == total.orientable


def test_jobs_do_not_change_totals():
    assert brute_counts(4, jobs=3) == brute_counts(4, jobs=1)


def test_two_worker_processes_count_n_6_as_one_process_does():
    # Real workers, each filling its own memo of block counts.
    assert brute_counts(6, jobs=2) == brute_counts(6, jobs=1) == (3781503, 74581)


def test_brute_counts_validates_input():
    with pytest.raises(ValueError, match=r"^bad code range \[0, 65\) for n=3$"):
        brute_counts(3, stop=65)
    with pytest.raises(ValueError):
        brute_counts(3, start=-1)
    with pytest.raises(ValueError):
        brute_counts(3, start=5, stop=3)
    with pytest.raises(ValueError):
        brute_counts(3, jobs=0)
    with pytest.raises(ValueError, match="nonnegative"):
        brute_counts(-1)


def test_brute_counts_counts_range_slices_at_n_7_with_no_cap():
    # The count lists no code, so n = 7 needs no cap.  Code 0 is the empty
    # graph.  The slice around rows 2-4 each into {5, 6} straddles a block
    # boundary, and is checked graph by graph (284 acyclic, 48 of them even).
    assert brute_counts(7, start=0, stop=1) == (1, 1)
    middle = rows_to_code((0, 0, 0b1100000, 0b1100000, 0b1100000, 0, 0))
    graphs = [Digraph.from_code(7, code) for code in range(middle - 300, middle + 300)]
    acyclic = [g for g in graphs if is_acyclic_dfs(g)]
    assert 0 < sum(g.all_out_degrees_even() for g in acyclic) < len(acyclic) < 600
    assert brute_counts(7, middle - 300, middle + 300) == (
        len(acyclic), sum(g.all_out_degrees_even() for g in acyclic))


# ----------------------------------------------------------------------
# brute-force counters, matrix side
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (2, 3), (3, 25), (4, 543)])
def test_matrix_membership_counts(n, expected):
    assert brute_count_characteristic_matrices(n) == expected
    assert expected == count_dags(n)


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (2, 1), (3, 4), (4, 43)])
def test_orientable_matrix_counts(n, expected):
    assert brute_count_orientable_characteristic_matrices(n) == expected
    assert expected == count_orientable_dags(n)


def test_matrix_counters_at_n_5():
    assert brute_count_characteristic_matrices(5) == 29281
    assert brute_count_orientable_characteristic_matrices(5) == 1156


def test_matrix_counters_refuse_negative_n():
    # These counters grow matrices and never build a digraph.
    for counter in (brute_count_characteristic_matrices,
                    brute_count_orientable_characteristic_matrices):
        with pytest.raises(ValueError, match="matrix dimension must be nonnegative"):
            counter(-1)
