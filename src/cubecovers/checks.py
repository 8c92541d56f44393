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

The matrix records quantify over the D(n) acyclic digraphs, read as codes
from :func:`~cubecovers.digraph.acyclic_codes`, and over the members grown
by :func:`~cubecovers.gf2.unit_minor_rows`.  Each DAG must come back from
its image, pass or fail both orientability tests together, and map to a
member; each member must be the image of a DAG.  That is the paper's
dictionary: injective on the DAGs, onto the members, even out-degrees to
odd column sums.  The claims about all digraphs stay in the unit tests.
The records run on row tuples through the kernels that
:class:`~cubecovers.digraph.Digraph`, :class:`~cubecovers.gf2.BitMatrix`
and :mod:`cubecovers.correspondence` delegate to, build no value object,
and name the smallest failing code.
"""

from __future__ import annotations

from cubecovers import correspondence, counting, digraph, gf2, series

# ``perfbench/expected.json`` pins the records of ``verify --n-max 5``, and
# growing the 29,281 members at n = 5 takes about 0.2 s, several times a
# whole ``verify --n-max 5`` run, so the matrix checks stop at 4.
MATRIX_BRUTEFORCE_CAP = 4


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

        # The kernels of the matrix records (see the module docstring).
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

            images = set()
            # The code of the first DAG that breaks each check; the codes
            # come in increasing order.
            round_trip = equivalence = transfer = None
            for code in digraph.acyclic_codes(n):
                rows = digraph.code_to_rows(n, code)
                matrix = forward(rows, n)
                if round_trip is None and inverse(matrix, n) != rows:
                    round_trip = code
                if equivalence is None and even(rows) != odd(matrix, n):
                    equivalence = code
                images.add(matrix)
                if transfer is None and matrix not in members:
                    transfer = code
            # A member that no DAG hits fails the transfer too, named by the
            # code of its preimage.
            misses = [digraph.rows_to_code(inverse(m, n)) for m in members - images]
            if transfer is not None:
                misses.append(transfer)
            transfer = min(misses, default=None)
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
