"""The cross-checks of ``cubecovers verify``, one record per check.

Each record ties a closed form of :mod:`cubecovers.counting` to an
independent oracle: a brute force on either side of the graph/matrix
dictionary, or an exact series identity.  The command line prints the
records and the acceptance tests assert on them.

One series record is weaker than its name: ``half-argument-decomposition``
checks V's arithmetic given D, because V is grown from the stored D by the
same decomposition, so a wrong D passes it.  A wrong D fails the
brute-force records and ``alternating-inverse``, and the V grown from it
fails ``orientable-quotient``.

The matrix records end in a per-graph pass over all ``2^(n(n-1))``
digraphs: both maps, the round trip, the two orientability tests and a
member lookup for each.  It runs on adjacency-row and matrix-row tuples,
through the same kernels that :class:`~cubecovers.digraph.Digraph`,
:class:`~cubecovers.gf2.BitMatrix` and the maps of
:mod:`cubecovers.correspondence` delegate to, so a fault in a kernel shows
in both.  The graphs of one n come from
:func:`~cubecovers.digraph.digraph_rows` in chunks of ``PASS_CHUNK``, and
each map takes a whole chunk stacked, in one call; the round trip compares
the chunk's rows as one tuple, and the orientability tests and the member
lookup run graph by graph on the stacked output.  Acyclicity is read from
the code set of :func:`~cubecovers.digraph.acyclic_codes`, which
:func:`~cubecovers.digraph.enumerate_acyclic` also decodes, so the pass
builds no value object at all.
"""

from __future__ import annotations

from itertools import chain, compress, islice, repeat

from cubecovers import correspondence, counting, digraph, gf2, series

# The matrix checks compare the grown member set with the image of every
# one of the 2^(n(n-1)) digraphs.  At n = 5 that per-graph pass takes 2.0
# to 2.5 s on one core of a 2-core VM with Python 3.11, against about
# 0.05 s for all of ``verify --n-max 5``, so they stop at 4.
MATRIX_BRUTEFORCE_CAP = 4

# Graphs per call of each map in the per-graph pass.  Past a few hundred
# graphs a bigger call is no faster, but its word, its cached masks and the
# chunk's row tuples all grow with it: 4,096 graphs a call raised the peak
# RSS of ``verify --n-max 5`` by about 0.9 MB, 256 by about 0.15 MB.
PASS_CHUNK = 1 << 8


def _first_failure(code: int | None, start: int, got: list | tuple,
                   want: list | tuple, per_graph: int = 1) -> int | None:
    """``code`` if a failure is already known, else the code of the first
    graph of a chunk, whose first graph has code ``start``, on which ``got``
    and ``want`` differ, with ``per_graph`` entries each; None when they
    agree."""
    if code is None and got != want:
        i = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                 min(len(got), len(want)))
        code = start + i // per_graph
    return code


def verify_checks(n_max: int, series_order: int, series_only: bool,
                  jobs: int, enum_cap: int) -> list[dict]:
    """The records of ``verify`` in its order: a dict with the check's name,
    its scope (``identity``, ``n`` or ``order``), ``pass``, and ``detail``
    or ``first_failure``.  Unless ``series_only``, an ``n_max`` above
    ``enum_cap`` raises :class:`~cubecovers.digraph.EnumerationCapExceeded`
    before any brute force runs.
    """
    checks: list[dict] = []

    def add(check: str, passed: bool, detail=None, key="detail", **scope) -> None:
        checks.append({"check": check, **scope, "pass": passed, key: detail})

    if not series_only:
        if n_max > enum_cap:
            # The first n the walk below would refuse.
            raise digraph.EnumerationCapExceeded(enum_cap + 1, enum_cap)
        for n in range(n_max + 1):
            got = correspondence.brute_counts(n, jobs=jobs, cap=enum_cap)
            want_d = counting.count_dags(n)
            want_v = counting.count_orientable_dags(n)
            add("dag-count-bruteforce", got.dags == want_d,
                f"brute={got.dags} formula={want_d}", n=n)
            add("orientable-count-bruteforce", got.orientable == want_v,
                f"brute={got.orientable} formula={want_v}", n=n)

        # The kernels of the per-graph pass (see the module docstring).
        forward = correspondence.characteristic_rows
        inverse = correspondence.adjacency_rows
        even = digraph.out_degrees_even
        odd = gf2.odd_column_sums
        for n in range(min(n_max, MATRIX_BRUTEFORCE_CAP) + 1):
            # Grown on the matrix side alone; every matrix-side check below
            # reads this set.
            members = set(gf2.unit_minor_rows(n))
            m_all = len(members)
            add("matrix-count-bruteforce", m_all == counting.count_dags(n),
                f"brute={m_all} formula={counting.count_dags(n)}", n=n)
            m_orient = sum(odd(m, n) for m in members)
            add("orientable-matrix-count-bruteforce",
                m_orient == counting.count_orientable_dags(n),
                f"brute={m_orient} formula={counting.count_orientable_dags(n)}", n=n)

            acyclic_codes = set(digraph.acyclic_codes(n))
            images = set()
            # The code of the first graph that breaks each per-graph check.
            round_trip = equivalence = transfer = None
            # digraph_rows yields the graphs in code order; each map takes
            # a chunk of them stacked, in one call, and the tests below
            # run graph by graph on the chunk.
            graphs = digraph.digraph_rows(n)
            start = 0  # the code of the chunk's first graph
            while chunk := list(islice(graphs, PASS_CHUNK)):
                stacked = tuple(chain.from_iterable(chunk))
                matrices = forward(stacked, n)
                round_trip = _first_failure(round_trip, start,
                                            inverse(matrices, n), stacked, n or 1)
                # Each graph's matrix, as its own tuple of n rows.
                matrices = (list(zip(*[iter(matrices)] * n)) if n
                            else [()] * len(chunk))
                equivalence = _first_failure(equivalence, start,
                                             list(map(even, chunk)),
                                             list(map(odd, matrices, repeat(n))))
                acyclic = list(map(acyclic_codes.__contains__,
                                   range(start, start + len(chunk))))
                images.update(compress(matrices, acyclic))
                transfer = _first_failure(transfer, start, acyclic,
                                          list(map(members.__contains__, matrices)))
                start += len(chunk)
            add("bijection-image", images == members,
                f"images={len(images)} members={len(members)}", n=n)
            for check, code in (("round-trip", round_trip),
                                ("orientability-equivalence", equivalence),
                                ("acyclicity-transfer", transfer)):
                add(check, code is None,
                    None if code is None else f"first failure at code={code}", n=n)

    for result in series.verify_identities(series_order):
        add("series-identity", result.passed, result.first_failure,
            key="first_failure", identity=result.name, order=result.order)

    # A non-integer coefficient differs from the integer V(n), and both
    # series have constant term 0.
    bad = series._first_mismatch(series.orientable_from_quotient(series_order),
                                 series.orientable_series(series_order))
    add("orientable-quotient", bad is None,
        None if bad is None else f"first mismatch at n={bad}", order=series_order)

    derivative_span = max(40, series_order)
    miss = series.derivative_identity_first_failure(derivative_span)
    add("derivative-rule", miss is None, miss, key="first_failure",
        order=derivative_span)
    return checks
