import random
from array import array
from bisect import bisect_left
from itertools import islice, permutations
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecovers import (
    Digraph,
    EnumerationCapExceeded,
    brute_counts,
    count_dags,
    count_orientable_dags,
    is_acyclic_dfs,
)
from cubecovers.digraph import (
    _acyclic_blocks,
    _block_count,
    _chain_block,
    _chain_count,
    _state,
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


def _linear_scan(n):
    # Every block in turn: test the shared part H (the graph with rows 0
    # and 1 empty) by depth-first search, and grow the sets of vertices
    # reaching 1 and 0 to a fixed point.
    width = n - 1
    found = []
    for base in range(0, 1 << n * width, 1 << 2 * width):
        graph = Digraph.from_code(n, base)
        if is_acyclic_dfs(graph):
            rows = graph.rows
            found.append((base, _reaching(rows, 1) & ~2, _reaching(rows, 0)))
    return found


@pytest.mark.parametrize("n", range(1, 6))
def test_block_walk_matches_the_linear_scan(n):
    assert list(_acyclic_blocks(n)) == _linear_scan(n)


def test_acyclic_codes_at_n_6_agree_with_the_count_on_ranges():
    # The list ``enumerate --n 6`` prints, held as an array of 30 MB.  The
    # count does not read the listing; the two walks share only the splice
    # of a row's diagonal zero.
    codes = array("q", acyclic_codes(6))
    assert len(codes) == 3_781_503
    assert all(map(lt, codes, islice(codes, 1, None)))
    rng = random.Random(6)
    total = 1 << 30
    ranges = [(0, total)]
    for _ in range(4):
        start = rng.randrange(total)
        ranges.append((start, min(start + rng.randrange(1 << 22), total)))
    for block in (1 << 10, 1 << 15):  # blocks of two and of three rows
        for _ in range(3):
            edge = rng.randrange(1, total // block) * block
            ranges.append((edge - rng.randrange(1, 3000), edge + rng.randrange(1, 3000)))
    for start, stop in ranges:
        listed = bisect_left(codes, stop) - bisect_left(codes, start)
        assert listed == count_acyclic_codes(6, start, stop)[0], (start, stop)


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
# the reach-state count of a block of rows
# ----------------------------------------------------------------------


def _dfs_counts(n, first, last):
    # (acyclic, acyclic with every out-degree even) among codes [first, last).
    dags = even = 0
    for code in range(first, last):
        graph = Digraph.from_code(n, code)
        if is_acyclic_dfs(graph):
            dags += 1
            even += graph.all_out_degrees_even()
    return dags, even


def _signatures(n, s, base):
    # The rows of code ``base`` and the signatures of its vertices s .. n-1,
    # read off by the fixed-point reach of the test.
    rows = Digraph.from_code(n, base).rows
    return rows, [sum(1 << v for v in range(s) if _reaching(rows, v) >> x & 1)
                  for x in range(s, n)]


def _assert_block_matches_dfs(n, s, base, rename=None):
    # The reach-state count of the block of s rows holding code ``base``
    # against a DFS scan of every code of the block.  ``rename`` maps each
    # vertex below s to a new one, and the renamed signatures are counted
    # too.
    rows, sigs = _signatures(n, s, base)
    states = [sigs]
    if rename is not None:
        states.append([sum(1 << rename[v] for v in range(s) if sig >> v & 1) for sig in sigs])
    odd = any(mask.bit_count() & 1 for mask in rows)
    size = 1 << s * (n - 1)
    scanned = _dfs_counts(n, base, base + size)
    for state in states:
        dags, even = _block_count(s, tuple(sorted(state)))
        assert (dags, 0 if odd else even) == scanned, (n, s, rows, state)


@pytest.mark.parametrize("n,s,tries", [
    (3, 1, 40), (4, 1, 40), (5, 1, 40), (3, 2, 40), (4, 2, 40), (5, 2, 12),
    (4, 3, 12), (5, 3, 4),
])
def test_block_closed_form_matches_a_dfs_scan_of_its_codes(n, s, tries):
    # Blocks of one to three rows over random acyclic H.
    rng = random.Random(100 * n + s)
    size = 1 << s * (n - 1)
    seen = 0
    while seen < tries:
        base = rng.randrange(1 << (n - s) * (n - 1)) * size
        if is_acyclic_dfs(Digraph.from_code(n, base)):
            _assert_block_matches_dfs(n, s, base)
            seen += 1


def test_a_block_of_four_rows_matches_a_dfs_scan_of_its_2_16_codes():
    # At n = 5, row 4 points to vertices 0 and 2, so H is even and both
    # counts are compared.
    _assert_block_matches_dfs(5, 4, 0b0101 << 16)


@pytest.mark.parametrize("n,s,tries", [(4, 2, 20), (5, 2, 8), (4, 3, 8), (5, 3, 3)])
def test_a_block_counts_the_same_with_its_low_vertices_renamed(n, s, tries):
    # The memo key renames the vertices below s (_state); any renaming
    # keeps the count of the block, and both counts match the DFS scan.
    rng = random.Random(1000 + 10 * n + s)
    size = 1 << s * (n - 1)
    seen = 0
    while seen < tries:
        base = rng.randrange(1 << (n - s) * (n - 1)) * size
        if is_acyclic_dfs(Digraph.from_code(n, base)):
            rename = list(range(s))
            rng.shuffle(rename)
            _assert_block_matches_dfs(n, s, base, rename)
            seen += 1


@pytest.mark.parametrize("n,s,edges", [
    (5, 3, [(4, 0), (4, 3)]),  # 3 is free, 4 reaches 0: one signature 0
    (5, 3, []),  # 3 and 4 reach nothing below 3: two signatures 0
    (5, 2, [(2, 3), (2, 4), (3, 1), (3, 4)]),  # only 4 is free
])
def test_a_block_over_free_vertices_matches_a_dfs_scan_of_its_codes(n, s, edges):
    # Every row of H is even, so both counts are compared.
    base = Digraph.from_edges(n, edges).code()
    assert base % (1 << s * (n - 1)) == 0
    _assert_block_matches_dfs(n, s, base, rename=list(range(s))[::-1])


@given(st.integers(0, 5).flatmap(lambda j: st.tuples(
    st.just(j), st.lists(st.integers(0, (1 << j) - 1), max_size=6))))
@settings(max_examples=200, deadline=None)
def test_state_is_a_sorted_renaming_of_its_signatures(case):
    j, sigs = case
    state = _state(j, sigs)
    assert list(state) == sorted(state)
    assert sorted(sig.bit_count() for sig in state) == sorted(sig.bit_count() for sig in sigs)
    assert any(
        sorted(sum(1 << rename[v] for v in range(j) if sig >> v & 1) for sig in sigs)
        == list(state)
        for rename in permutations(range(j))
    )


def test_the_chain_memo_holds_2_7_plus_1_states_after_the_full_range_at_n_8():
    # One per chain, free vertices and full signatures stripped before the
    # lookup: a state cached beside its stripped copy would add to it.
    # The reach-state memo of the code ranges is not touched.
    _block_count.cache_clear()
    _chain_count.cache_clear()
    assert brute_counts(8) == (783702329343, 3862830343)
    assert _chain_count.cache_info().currsize == (1 << 7) + 1
    assert _block_count.cache_info().currsize == 0


@pytest.mark.parametrize("n", range(11))
def test_the_chain_count_matches_the_reach_state_count_of_the_full_range(n):
    # The two paths of the full range: by chain sizes, and as one block of
    # all n rows over reach states.
    assert _chain_count(n, ()) == _block_count(n, ())


@pytest.mark.parametrize("n,s,tries", [
    (3, 1, 20), (4, 1, 20), (5, 1, 20), (3, 2, 30), (4, 2, 30), (5, 2, 12),
    (4, 3, 12), (5, 3, 4),
])
def test_a_block_over_a_chain_counts_by_its_sizes(n, s, tries):
    # Random blocks whose signatures form a chain, top sets among them; the
    # chain count of their sizes, from 0 to s, against the DFS scan.
    rng = random.Random(500 + 10 * n + s)
    size = 1 << s * (n - 1)
    seen = tops = 0
    while seen < tries:
        base = rng.randrange(1 << (n - s) * (n - 1)) * size
        if not is_acyclic_dfs(Digraph.from_code(n, base)):
            continue
        rows, sigs = _signatures(n, s, base)
        chain = sorted(sigs, key=int.bit_count)
        if any(low & ~high for low, high in zip(chain, chain[1:])):
            continue
        sizes = tuple(sig.bit_count() for sig in chain)
        dags, even = _chain_block(s, sizes)
        odd = any(mask.bit_count() & 1 for mask in rows)
        assert (dags, 0 if odd else even) == _dfs_counts(n, base, base + size), (n, s, rows)
        seen += 1
        tops += all(sig == (1 << s) - (1 << s - sig.bit_count()) for sig in sigs)
    assert tops


@pytest.mark.parametrize("n", [5, 6])
def test_count_acyclic_codes_matches_dfs_on_random_ranges(n):
    # Ranges cut inside blocks of one to three rows, and ranges that hold
    # whole blocks between two cut ones.  Blocks of more rows would make
    # the DFS reference scan too many codes.
    rng = random.Random(n)
    width = n - 1
    ranges = []
    for _ in range(12):
        first = rng.randrange(1 << n * width)
        ranges.append((first, min(first + rng.choice([1, 7, 300, 3000]), 1 << n * width)))
    for _ in range(4):
        edge = rng.randrange(1, 1 << (n - 3) * width) << 3 * width
        ranges.append((edge - rng.randrange(1, 2000), edge + rng.randrange(1, 2000)))
    for j in (1, 2, 3):
        edge = rng.randrange(1, 1 << (n - j) * width) << j * width
        ranges.append((edge - 5, edge + (1 << j * width) + 3))
    for first, last in ranges:
        assert count_acyclic_codes(n, first, last) == _dfs_counts(n, first, last), (first, last)


@pytest.mark.parametrize("n", range(11))
def test_count_acyclic_codes_over_the_full_range_gives_d_and_v(n):
    assert count_acyclic_codes(n, 0, 1 << n * (n - 1)) == (count_dags(n), count_orientable_dags(n))


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


