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

The series records read the counts only through the public counters:
:func:`~cubecovers.series.verify_identities` checks both product
identities in one integer pass, and ``orientable-quotient`` compares each
coefficient of :func:`~cubecovers.series.orientable_from_quotient`, an
``int`` where the solve is integral and a ``Fraction`` where it is not,
with V(n), and with 0 at n = 0, naming the first that differs.

The matrix records quantify over the D(n) acyclic digraphs, read as codes
from :func:`~cubecovers.digraph.acyclic_codes`, and over the members grown
by one :func:`~cubecovers.gf2.unit_minor_walk` to the side below the
largest, where each member adds its whole border to the largest side as
one list (:func:`~cubecovers.gf2.unit_minor_border`).  Each DAG must come
back from its image, pass or fail both orientability tests together, and
map to a member; each member must be the image of a DAG.  That is the paper's
dictionary: injective on the DAGs, onto the members, even out-degrees to
odd column sums.  The claims about all digraphs stay in the unit tests.
Each n runs as one batch.  Its codes are packed into one int, one slot
per graph in the layout of :func:`~cubecovers.gf2.slot_layout`, decoded
to adjacency rows by :func:`~cubecovers.digraph.decode_slots`, sent
through each map as one transpose, and tested for both parities slot by
slot; the images are compared with the members packed as ints.  The maps
and the column-parity test are the kernels that
:class:`~cubecovers.gf2.BitMatrix` and :mod:`cubecovers.correspondence`
call as batches of one (the out-degree test of one graph stays a loop, see
:meth:`~cubecovers.digraph.Digraph.all_out_degrees_even`).  No value
object is built per graph, and a failing check names the code of its
lowest failing slot: the smallest failing code.
"""

from __future__ import annotations

from cubecovers import correspondence, counting, digraph, gf2, series

# ``perfbench/expected.json`` pins the records of ``verify --n-max 5``.  At
# n = 5 the matrix records would grow the 29,281 members of side 5 (the walk
# to it takes about 35 ms) and take the in-process ``verify --n-max 5``
# checks from about 1.2 ms to 60-80 ms (2-core VM, Python 3.11.7), so the
# matrix checks stop at 4.
MATRIX_BRUTEFORCE_CAP = 4

# The largest ``n_max`` that ``verify`` accepts: the largest whose cold
# ``verify --n-max`` stays within about 2.5 s.  The digraph-side records
# count chains of reach states rather than walk codes, and a cold
# ``verify --n-max`` takes 0.13-0.22 s at 12, 0.36-0.51 s at 14 and
# 0.79-1.2 s at 15, but 1.9-3.0 s at 16 (2-core VM, Python 3.11.7); each
# further n costs about 2.7 times more.
BRUTE_FORCE_MAX_N = 15

# The largest ``series_order`` that ``verify`` accepts: the largest whose
# cold ``verify --series --series-order`` stays within about 2.5 s, as for
# :data:`BRUTE_FORCE_MAX_N`.  The series records are exact bigint products
# and quotients, and a cold run takes 0.24-0.26 s at 200, 0.58-0.79 s at
# 300, 1.6-2.0 s at 400, 1.8-2.3 s at 410 and 420, 2.7-2.9 s at 425 and
# 5.1-5.6 s at 500 (2-core VM, Python 3.11.7).  :func:`verify_checks`
# takes any order.
SERIES_MAX_ORDER = 400


def _first_code(failing: int, codes: list[int], slot: int) -> int | None:
    """The code in the lowest slot that has a bit of ``failing`` set, or
    None; the codes increase with the slot, so it is the smallest."""
    if not failing:
        return None
    return codes[((failing & -failing).bit_length() - 1) // slot]


def verify_checks(n_max: int, series_order: int, series_only: bool) -> list[dict]:
    """The records of ``verify`` in its order: a dict with the check's name,
    its scope (``identity``, ``n`` or ``order``), ``pass``, and ``detail``
    or ``first_failure``.  Unless ``series_only``, the digraph-side counts
    run for every n up to ``n_max``; they count reach states, not codes, so
    no cap applies (the command line bounds ``n_max`` by
    :data:`BRUTE_FORCE_MAX_N`).
    """
    checks: list[dict] = []

    def add(check: str, passed: bool, detail=None, key="detail", **scope) -> None:
        checks.append({"check": check, **scope, "pass": passed, key: detail})

    if not series_only:
        for n in range(n_max + 1):
            got = correspondence.brute_counts(n)
            want_d = counting.count_dags(n)
            want_v = counting.count_orientable_dags(n)
            add("dag-count-bruteforce", got.dags == want_d,
                f"brute={got.dags} formula={want_d}", n=n)
            add("orientable-count-bruteforce", got.orientable == want_v,
                f"brute={got.orientable} formula={want_v}", n=n)

        # The batch kernels of the matrix records (see the module docstring).
        forward = correspondence.characteristic_slots
        inverse = correspondence.adjacency_slots
        even = digraph.even_out_degree_slots
        odd = gf2.odd_column_slots
        # Grown on the matrix side alone, each packed into one int (at the
        # 8-bit stride of every side up to 8); every matrix-side check below
        # reads these.  The walk stops at side cap - 1, and each member
        # there adds its whole border to side cap.
        cap = min(n_max, MATRIX_BRUTEFORCE_CAP)
        grown: list[set[int]] = [set() for _ in range(cap + 1)]
        stride = gf2.slot_layout(cap)[0]
        for n, word, planes in gf2.unit_minor_walk(max(cap - 1, 0)):
            grown[n].add(word)
            if n == cap - 1:
                grown[cap].update(gf2.unit_minor_border(word, planes, stride))
        for n, members in enumerate(grown):
            m_all = len(members)
            add("matrix-count-bruteforce", m_all == counting.count_dags(n),
                f"brute={m_all} formula={counting.count_dags(n)}", n=n)
            m_orient = odd(gf2.join_slots([*members], n), n, m_all).bit_count()
            add("orientable-matrix-count-bruteforce",
                m_orient == counting.count_orientable_dags(n),
                f"brute={m_orient} formula={counting.count_orientable_dags(n)}", n=n)

            # Every DAG at once, code t in slot t.
            codes = list(digraph.acyclic_codes(n))
            k = len(codes)
            stride, slot, starts = gf2.slot_layout(n, k)
            adjacency = digraph.decode_slots(gf2.join_slots(codes, n), n, stride, starts)
            matrices = forward(adjacency, n, k)
            round_trip = _first_code(inverse(matrices, n, k) ^ adjacency, codes, slot)
            equivalence = _first_code(
                even(adjacency, n, stride, starts) ^ odd(matrices, n, k), codes, slot)
            images = gf2.split_slots(matrices, n, k)
            hit = set(images)
            # A member that no DAG hits fails the transfer at the code of its
            # preimage, and an image that is no member at its own code.
            failures = [digraph.rows_to_code(gf2.unpack_rows(inverse(m, n), n))
                        for m in members - hit]
            if not hit <= members:
                failures.append(next(code for code, m in zip(codes, images)
                                     if m not in members))
            transfer = min(failures, default=None)
            add("bijection-image", hit == members,
                f"images={len(hit)} members={m_all}", n=n)
            for check, code in (("round-trip", round_trip),
                                ("orientability-equivalence", equivalence),
                                ("acyclicity-transfer", transfer)):
                add(check, code is None,
                    None if code is None else f"first failure at code={code}", n=n)

    for result in series.verify_identities(series_order):
        add("series-identity", result.passed, result.first_failure,
            key="first_failure", identity=result.name, order=result.order)

    # A non-integer coefficient differs from the integer V(n); the series
    # normalization puts 0 at n = 0 (see the series module docstring).
    quotient = series.orientable_from_quotient(series_order).coeffs
    bad = next((n for n, c in enumerate(quotient)
                if c != (counting.count_orientable_dags(n) if n else 0)), None)
    add("orientable-quotient", bad is None,
        None if bad is None else f"first mismatch at n={bad}", order=series_order)

    derivative_span = max(40, series_order)
    miss = series.derivative_identity_first_failure(derivative_span)
    add("derivative-rule", miss is None, miss, key="first_failure",
        order=derivative_span)
    return checks
