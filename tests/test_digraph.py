import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecovers import (
    Digraph,
    EnumerationCapExceeded,
    count_dags,
    count_orientable_dags,
    is_acyclic_dfs,
)
from cubecovers.digraph import (
    _acyclic_blocks,
    acyclic_codes,
    count_acyclic_codes,
    decode_slots,
    enumerate_acyclic,
    enumerate_digraphs,
    even_out_degree_slots,
)

# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def test_rejects_loops():
    with pytest.raises(ValueError):
        Digraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Digraph(2, (1, 0))  # bit 0 of row 0 is the loop (0, 0)


def test_rejects_out_of_range_edges():
    with pytest.raises(ValueError):
        Digraph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Digraph.from_edges(2, [(-1, 0)])


def test_duplicate_edges_collapse():
    g = Digraph.from_edges(3, [(0, 1), (0, 1)])
    assert g.edges() == [(0, 1)]


# ----------------------------------------------------------------------
# adjacency and degrees
# ----------------------------------------------------------------------


def adjacency_bits(g):
    """Entry (u, v) is 1 iff the edge u -> v exists: bit v of row u."""
    return tuple(tuple((mask >> v) & 1 for v in range(g.n)) for mask in g.rows)


def test_adjacency_of_empty_graph():
    assert adjacency_bits(Digraph(3, (0,) * 3)) == (
        (0, 0, 0),
        (0, 0, 0),
        (0, 0, 0),
    )


def test_adjacency_of_sample_graph(sample_graph):
    assert adjacency_bits(sample_graph) == (
        (0, 0, 0, 1),
        (1, 0, 1, 1),
        (0, 0, 0, 0),
        (0, 0, 1, 0),
    )


def test_adjacency_of_single_edge():
    g = Digraph.from_edges(2, [(0, 1)])
    assert adjacency_bits(g) == ((0, 1), (0, 0))


def test_degrees_of_empty_graph():
    g = Digraph(4, (0,) * 4)
    for v in range(4):
        assert g.out_degree(v) == 0
        assert g.in_degree(v) == 0


def test_degrees_of_sample_graph(sample_graph):
    assert [sample_graph.out_degree(v) for v in range(4)] == [1, 3, 0, 1]
    assert sample_graph.out_degree(1) == 3
    assert sample_graph.out_degree(2) == 0
    assert sample_graph.in_degree(2) == 2
    assert sample_graph.in_degree(1) == 0


def test_degree_rejects_bad_vertex(sample_graph):
    with pytest.raises(ValueError):
        sample_graph.out_degree(4)
    with pytest.raises(ValueError):
        sample_graph.in_degree(-1)


def test_out_degree_equals_adjacency_row_sum(sample_graph):
    bits = adjacency_bits(sample_graph)
    for v in range(sample_graph.n):
        assert sample_graph.out_degree(v) == sum(bits[v])


@pytest.mark.parametrize("n", range(4))
def test_degree_sums_equal_edge_count(n):
    for g in enumerate_digraphs(n):
        total_out = sum(g.out_degree(v) for v in range(n))
        total_in = sum(g.in_degree(v) for v in range(n))
        assert total_out == total_in == len(g.edges())


def test_all_out_degrees_even():
    assert Digraph(3, (0,) * 3).all_out_degrees_even()
    g = Digraph.from_edges(3, [(0, 1), (0, 2)])
    assert [g.out_degree(v) for v in range(3)] == [2, 0, 0]
    assert g.all_out_degrees_even()


def slot_layouts(n, k):
    # The layouts the batch kernels accept: a power-of-two stride of at
    # least n bits, and slots of at least the next power of two of rows.
    side = 1 << (n - 1).bit_length() if n else 1
    for stride in (side, max(side, 8), 4 * side):
        for slot in (side * stride, 2 * side * stride):
            yield stride, slot, sum(1 << t * slot for t in range(k))


@pytest.mark.parametrize("n", range(7))
def test_a_batch_decodes_and_tests_parities_like_its_graphs_one_by_one(n):
    rng = random.Random(n)
    graphs = [Digraph.from_code(n, rng.getrandbits(n * (n - 1))) for _ in range(40)]
    for stride, slot, starts in slot_layouts(n, len(graphs)):
        codes = sum(g.code() << t * slot for t, g in enumerate(graphs))
        rows = decode_slots(codes, n, stride, starts)
        assert rows == sum(mask << t * slot + u * stride
                           for t, g in enumerate(graphs) for u, mask in enumerate(g.rows))
        even = even_out_degree_slots(rows, n, stride, starts)
        assert even == sum(1 << t * slot for t, g in enumerate(graphs)
                           if all(g.out_degree(v) % 2 == 0 for v in range(n)))


def test_sample_graph_has_an_odd_out_degree(sample_graph):
    assert not sample_graph.all_out_degrees_even()


# ----------------------------------------------------------------------
# acyclicity
# ----------------------------------------------------------------------


def test_empty_graph_is_acyclic():
    assert is_acyclic_dfs(Digraph(0, ()))
    assert is_acyclic_dfs(Digraph(4, (0,) * 4))


def test_two_cycle_is_cyclic():
    assert not is_acyclic_dfs(Digraph.from_edges(2, [(0, 1), (1, 0)]))


def test_sample_graph_is_acyclic(sample_graph):
    assert is_acyclic_dfs(sample_graph)


@pytest.mark.parametrize("n", range(1, 6))
def test_every_acyclic_graph_has_a_sink(n):
    for g in enumerate_acyclic(n):
        assert any(g.out_degree(v) == 0 for v in range(n))


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n,total", [(0, 1), (1, 1), (2, 4), (3, 64)])
def test_enumerate_digraphs_count(n, total):
    assert sum(1 for _ in enumerate_digraphs(n)) == total


@pytest.mark.parametrize("n,total", [(1, 1), (2, 3), (3, 25)])
def test_enumerate_acyclic_count(n, total):
    assert sum(1 for _ in enumerate_acyclic(n)) == total


@pytest.mark.parametrize("n", range(5))
def test_stream_lengths_match_closed_forms(n):
    assert sum(1 for _ in enumerate_digraphs(n)) == 1 << (n * (n - 1))
    assert sum(1 for _ in enumerate_acyclic(n)) == count_dags(n)


@pytest.mark.parametrize("n", range(5))
def test_enumerate_acyclic_equals_dfs_filter_in_order(n):
    # The block kernel against the independent depth-first test, order included.
    expected = [g for g in enumerate_digraphs(n) if is_acyclic_dfs(g)]
    assert list(enumerate_acyclic(n)) == expected
    assert list(acyclic_codes(n)) == [g.code() for g in expected]


def test_acyclic_codes_at_n_5_are_the_dags_in_order():
    # The stream under ``enumerate --n 5``, against the DFS test graph by graph.
    codes = list(acyclic_codes(5))
    assert all(a < b for a, b in zip(codes, codes[1:]))
    assert len(codes) == count_dags(5)
    graphs = [Digraph.from_code(5, code) for code in codes]
    assert all(is_acyclic_dfs(g) for g in graphs)
    assert sum(g.all_out_degrees_even() for g in graphs) == count_orientable_dags(5)


def test_enumeration_is_in_code_order_without_repeats():
    for n in range(5):
        graphs = list(enumerate_digraphs(n))
        assert [g.code() for g in graphs] == list(range(1 << (n * (n - 1))))
        # Entrywise, edge (u, v) is bit u (n - 1) + v - [v > u] of the code.
        for code, g in enumerate(graphs):
            assert g.edges() == [
                (u, v) for u in range(n) for v in range(n)
                if u != v and code >> (u * (n - 1) + v - (v > u)) & 1
            ]


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        next(enumerate_digraphs(7))
    with pytest.raises(EnumerationCapExceeded):
        next(enumerate_digraphs(3, cap=2))
    assert sum(1 for _ in enumerate_digraphs(3, cap=3)) == 64
    with pytest.raises(EnumerationCapExceeded):
        next(acyclic_codes(3, cap=2))


def test_cap_error_is_a_value_error_with_context():
    with pytest.raises(ValueError, match="cap is 6"):
        next(enumerate_digraphs(8))


# ----------------------------------------------------------------------
# the pruned block walk
# ----------------------------------------------------------------------


def _reaching(rows, target):
    # The vertices that reach ``target``, ``target`` included, grown to a
    # fixed point one edge at a time.
    reach = 1 << target
    while True:
        grown = reach
        for v, mask in enumerate(rows):
            if mask & reach:
                grown |= 1 << v
        if grown == reach:
            return reach
        reach = grown


@functools.cache
def _linear_scan(n):
    # Every block in turn: test the shared part H (the graph with rows 0
    # and 1 empty) by depth-first search, grow the sets of vertices
    # reaching 1 and 0 to a fixed point, and read the parity flag off H's
    # rows by popcount.
    width = n - 1
    found = []
    for block in range(1 << (width * (n - 2))):
        graph = Digraph.from_code(n, block << (2 * width))
        if not is_acyclic_dfs(graph):
            continue
        rows = graph.rows
        odd = int(any(mask.bit_count() % 2 for mask in rows))
        found.append((block, _reaching(rows, 1) & ~2, _reaching(rows, 0), odd))
    return found


def _assert_walk_matches_scan(n, first, last):
    expected = [item for item in _linear_scan(n) if first <= item[0] < last]
    assert list(_acyclic_blocks(n, first, last)) == expected, (n, first, last)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_walk_matches_linear_scan_on_every_range(n):
    blocks = 1 << ((n - 1) * (n - 2))
    for first in range(blocks + 1):
        for last in range(first, blocks + 1):
            _assert_walk_matches_scan(n, first, last)


def test_block_walk_matches_linear_scan_around_top_row_chunks():
    # At n = 4 the top digit (row 3) changes every 8 blocks.
    points = sorted({
        p for k in range(9) for p in (8 * k - 1, 8 * k, 8 * k + 1, 8 * k + 5)
        if 0 <= p <= 64
    })
    for i, first in enumerate(points):
        for last in points[i:]:
            _assert_walk_matches_scan(4, first, last)


def test_block_walk_matches_linear_scan_on_random_ranges():
    rng = random.Random(20080101)
    blocks = 1 << 12
    _assert_walk_matches_scan(5, 0, blocks)
    for _ in range(40):
        first = rng.randrange(blocks + 1)
        last = rng.randrange(first, min(first + rng.choice([3, 300, blocks]), blocks) + 1)
        _assert_walk_matches_scan(5, first, last)


def _n7_ranges():
    below = Digraph(7, tuple((1 << u) - 1 for u in range(7))).code()  # u -> v < u
    above = Digraph(7, tuple(0x7F ^ ((2 << u) - 1) for u in range(7))).code()
    width = 1 << 14
    return [
        (0, width),
        ((1 << 36) - width // 2 - 5, (1 << 36) + width // 2 - 5),  # top row 0 -> 1
        (below - width // 2 + 3, below + width // 2 + 3),
        (above - width // 2 - 7, above + width // 2 - 7),
        ((1 << 42) - width, 1 << 42),
    ]


@pytest.mark.parametrize("first,last", _n7_ranges())
def test_count_acyclic_codes_matches_dfs_graph_by_graph_at_n_7(first, last):
    acyclic = []
    even = []
    for code in range(first, last):
        graph = Digraph.from_code(7, code)
        acyclic.append(is_acyclic_dfs(graph))
        even.append(acyclic[-1] and graph.all_out_degrees_even())
    assert count_acyclic_codes(7, first, last) == (sum(acyclic), sum(even))
    # Pieces cut inside blocks count the same graphs.
    cuts = [first, first + 1, first + 64 * 37 + 5, last - 3, last]
    for lo, hi in zip(cuts, cuts[1:]):
        i, j = lo - first, hi - first
        assert count_acyclic_codes(7, lo, hi) == (sum(acyclic[i:j]), sum(even[i:j]))


# ----------------------------------------------------------------------
# canonical codes
# ----------------------------------------------------------------------


def test_code_of_empty_and_full():
    assert Digraph(4, (0,) * 4).code() == 0
    full = Digraph(3, tuple(((1 << 3) - 1) ^ (1 << v) for v in range(3)))
    assert full.code() == (1 << 6) - 1


@given(st.integers(0, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1))) - 1))))
@settings(max_examples=120)
def test_code_round_trip(case):
    n, code = case
    assert Digraph.from_code(n, code).code() == code


def test_from_code_rejects_out_of_range():
    with pytest.raises(ValueError):
        Digraph.from_code(2, 4)
    with pytest.raises(ValueError):
        Digraph.from_code(2, -1)


