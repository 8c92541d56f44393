"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 2, 4, 5 and 6 assert on the records that ``cubecovers
verify`` prints (:func:`cubecovers.checks.verify_checks`).  The deep checks
count all 2^30 digraphs at n = 6, all 2^42 at n = 7, all 2^56 at n = 8
and all 2^72 at n = 9 in this process, with no worker pool; the
reach-state count of :mod:`cubecovers.digraph` counts each state of the
rows still to come once, up to a renaming of the vertices below them, so
each takes under a tenth of a second on one core.
"""

import math
import time
from contextlib import contextmanager

from cubecovers import (
    brute_counts,
    characteristic_matrix,
    compute_constants,
    count_dags,
    count_orientable_dags,
    log_dag_estimate,
    log_orientable_estimate,
    ratio_estimate,
)
from cubecovers.checks import verify_checks
from cubecovers.correspondence import unit_diagonal_matrices
from cubecovers.digraph import enumerate_acyclic

DAG_COUNTS = [1, 3, 25, 543, 29281, 3781503, 1138779265]
ORIENTABLE_COUNTS = [1, 1, 4, 43, 1156, 74581, 11226874]


@contextmanager
def criterion(number: int, name: str, budget_seconds: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s]")


def passing(names, n_max=0, order=0):
    """The records of ``verify`` named in ``names``, each asserted to pass."""
    checks = verify_checks(n_max, order, False)
    records = [c for c in checks if c["check"] in names]
    assert all(c["pass"] for c in records), records
    return records


def test_criterion_1_exact_table_reproduction():
    with criterion(1, "exact table reproduction", budget_seconds=1.0):
        assert [count_dags(n) for n in range(1, 8)] == DAG_COUNTS
        assert [count_orientable_dags(n) for n in range(1, 8)] == ORIENTABLE_COUNTS


def test_criterion_2_bruteforce_equals_closed_forms():
    with criterion(2, "brute force equals closed forms, n <= 5",
                   budget_seconds=60.0):
        names = ("dag-count-bruteforce", "orientable-count-bruteforce")
        records = passing(names, n_max=5)  # single-threaded single pass
        assert [c["check"] for c in records] == list(names) * 6
        assert [c["n"] for c in records] == sorted(list(range(6)) * 2)


def test_criterion_3_bijection_verification(sample_graph, sample_matrix):
    with criterion(3, "bijection onto the unit-minor matrices, n <= 4",
                   budget_seconds=60.0):
        assert characteristic_matrix(sample_graph) == sample_matrix
        for n in range(5):
            images = [characteristic_matrix(g) for g in enumerate_acyclic(n)]
            image_set = set(images)
            assert len(image_set) == len(images)  # injective on acyclic graphs
            members = {
                m for m in unit_diagonal_matrices(n)
                if m.has_unit_principal_minors()
            }
            assert image_set == members


def test_criterion_4_orientability_equivalence():
    with criterion(4, "even out-degrees equal odd column sums, all digraphs n <= 4",
                   budget_seconds=60.0):
        records = passing({"orientability-equivalence"}, n_max=4)
        assert [c["n"] for c in records] == list(range(5))


def test_criterion_5_series_identities_to_order_12():
    with criterion(5, "series identities, exact rationals to order 12",
                   budget_seconds=1.0):
        records = passing({"series-identity", "orientable-quotient"}, order=12)
        assert [(c.get("identity"), c["order"]) for c in records] == [
            ("alternating-inverse", 12), ("half-argument-decomposition", 12), (None, 12)
        ]


def test_criterion_6_derivative_identity_to_40():
    with criterion(6, "termwise derivative rule to n = 40", budget_seconds=1.0):
        [record] = passing({"derivative-rule"})
        assert record["order"] == 40


def test_criterion_7_constants():
    with criterion(7, "asymptotic constants within 5e-3", budget_seconds=1.0):
        c = compute_constants()
        assert abs(c.alpha - (-1.488)) < 5e-3
        assert abs(c.dag_prefactor - 1.739) < 5e-3
        assert abs(c.orientable_prefactor - 2.197) < 5e-3
        assert abs(c.ratio_factor - 1.262) < 5e-3
        exact = count_orientable_dags(7) / count_dags(7)
        assert abs(ratio_estimate(7) / exact - 1) < 0.01


def test_criterion_8_asymptotic_convergence():
    with criterion(8, "estimates sharpen from n = 15 to n = 30",
                   budget_seconds=1.0):
        def gap(exact: int, log_estimate: float) -> float:
            return abs(math.exp(math.log(exact) - log_estimate) - 1.0)

        assert gap(count_dags(30), log_dag_estimate(30)) < gap(
            count_dags(15), log_dag_estimate(15)
        )
        assert gap(count_orientable_dags(30), log_orientable_estimate(30)) < gap(
            count_orientable_dags(15), log_orientable_estimate(15)
        )


def test_criterion_9_parallel_determinism():
    with criterion(9, "counts independent of jobs and partition"):
        reference = brute_counts(5, jobs=1)
        assert brute_counts(5, jobs=4) == reference
        span = 1 << 20
        cuts = [0, span // 5, span // 2 + 7, span - 3, span]
        pieces = [brute_counts(5, start=a, stop=b) for a, b in zip(cuts, cuts[1:])]
        assert sum(p.dags for p in pieces) == reference.dags
        assert sum(p.orientable for p in pieces) == reference.orientable


def test_optional_deep_bruteforce_at_n_6():
    with criterion(0, "deep check at n = 6, one process", budget_seconds=60.0):
        got = brute_counts(6, jobs=1)
        assert got.dags == 3781503
        assert got.orientable == 74581


def test_deep_bruteforce_at_n_7_gives_the_papers_counts():
    # About 1 ms from a cold memo on one core (2-core VM, Python 3.11.7).
    with criterion(0, "deep check at n = 7, one process", budget_seconds=30.0):
        got = brute_counts(7, jobs=1)
        assert (got.dags, got.orientable) == (DAG_COUNTS[6], ORIENTABLE_COUNTS[6])


def test_deep_bruteforce_at_n_8_gives_the_papers_counts():
    # About 1-1.5 ms from a cold memo on one core (2-core VM, Python 3.11.7).
    with criterion(0, "deep check at n = 8, one process", budget_seconds=60.0):
        got = brute_counts(8, jobs=1)
        assert (got.dags, got.orientable) == (783702329343, 3862830343)


def test_deep_bruteforce_at_n_9_gives_the_papers_counts():
    # About 4 ms from a cold memo on one core (2-core VM, Python 3.11.7).
    with criterion(0, "deep check at n = 9, one process", budget_seconds=30.0):
        got = brute_counts(9, jobs=1)
        assert (got.dags, got.orientable) == (1213442454842881, 2990426173816)
