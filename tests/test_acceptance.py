"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The deep brute-force check counts all 2^30 digraphs at n = 6 in this
process, with no worker pool.  The pruned block walk of
:mod:`cubecovers.digraph` drops every prefix of rows 5, 4, .., 1 that
already holds a cycle, so the check takes a few seconds on one core.
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
    orientable_from_quotient,
    ratio_estimate,
    verify_identities,
)
from cubecovers.correspondence import unit_diagonal_matrices
from cubecovers.digraph import enumerate_acyclic, enumerate_digraphs
from cubecovers.series import derivative_identity_first_failure

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


def test_criterion_1_exact_table_reproduction():
    with criterion(1, "exact table reproduction", budget_seconds=1.0):
        assert [count_dags(n) for n in range(1, 8)] == DAG_COUNTS
        assert [count_orientable_dags(n) for n in range(1, 8)] == ORIENTABLE_COUNTS


def test_criterion_2_bruteforce_equals_closed_forms():
    with criterion(2, "brute force equals closed forms, n <= 5",
                   budget_seconds=60.0):
        for n in range(6):
            got = brute_counts(n)  # single-threaded single pass
            assert got.dags == count_dags(n), n
            assert got.orientable == count_orientable_dags(n), n


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
        for n in range(5):
            for g in enumerate_digraphs(n):
                assert (
                    g.all_out_degrees_even()
                    == characteristic_matrix(g).has_odd_column_sums()
                )


def test_criterion_5_series_identities_to_order_12():
    with criterion(5, "series identities, exact rationals to order 12",
                   budget_seconds=1.0):
        for check in verify_identities(12):
            assert check.passed, check
        quotient = orientable_from_quotient(12)
        assert quotient.coefficient(0) == 0  # series normalization at n = 0;
        # the combinatorial count there is 1 (the empty digraph)
        for n in range(1, 13):
            c = quotient.coefficient(n)
            assert c.denominator == 1
            assert c == count_orientable_dags(n)


def test_criterion_6_derivative_identity_to_40():
    with criterion(6, "termwise derivative rule to n = 40", budget_seconds=1.0):
        assert derivative_identity_first_failure(40) is None


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
