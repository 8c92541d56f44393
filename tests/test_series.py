import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chromatic_sum

from cubecovers import (
    ChromaticSeries,
    count_dags,
    count_orientable_dags,
    orientable_from_quotient,
    verify_identities,
)
from cubecovers import counting, series
from cubecovers.series import derivative_identity_first_failure


def dag_counts(order):
    return [count_dags(n) for n in range(order + 1)]


def powers(base, order):
    # base^0 .. base^order, the coefficients of E(base * x).
    return [base**j for j in range(order + 1)]


# ----------------------------------------------------------------------
# the series type
# ----------------------------------------------------------------------


def test_series_needs_a_constant_term():
    with pytest.raises(ValueError):
        ChromaticSeries(())


def test_order_and_coefficients():
    s = ChromaticSeries([1, 2, Fraction(3, 4)])
    assert s.order == 2
    assert s.coefficient(2) == Fraction(3, 4)
    assert s.coeffs == (1, 2, Fraction(3, 4))


@pytest.mark.parametrize("n", [-1, 4])
def test_coefficient_outside_the_order_raises(n):
    # A negative index must not read the coefficients from the top end.
    s = orientable_from_quotient(3)
    with pytest.raises(IndexError, match=f"no coefficient {n} in a series of order 3"):
        s.coefficient(n)


@st.composite
def kernel_inputs(draw):
    # Odd and even n; entries with zeros, negatives and big values.
    n = draw(st.integers(min_value=0, max_value=21))
    entries = st.sampled_from([0, 1, -1]) | st.integers(-(1 << 80), 1 << 80)
    a = draw(st.lists(entries, min_size=n + 1, max_size=n + 1))
    b = draw(st.lists(entries, min_size=n + 1, max_size=n + 1))
    return n, a, b


@given(kernel_inputs())
@settings(max_examples=200)
def test_paired_kernel_equals_the_literal_sum(inputs):
    # The reference shifts where this sum multiplies by a power of two, and
    # a negative product must shift like a positive one.
    n, a, b = inputs
    assert chromatic_sum(n, a, b) == sum(
        math.comb(n, k) * a[k] * b[n - k] * 2 ** (k * (n - k))
        for k in range(n + 1)
    )


# ----------------------------------------------------------------------
# the identities
# ----------------------------------------------------------------------


@pytest.mark.parametrize("order", [0, 3, 7, 12])
def test_alternating_series_inverts_the_dag_series(order):
    dags = dag_counts(order)
    assert [chromatic_sum(n, powers(-1, order), dags) for n in range(order + 1)] == (
        [1] + [0] * order)


@pytest.mark.parametrize("build", [
    orientable_from_quotient, verify_identities, derivative_identity_first_failure,
], ids=lambda build: build.__name__)
@pytest.mark.parametrize("order", [-1, -5])
def test_a_negative_order_is_refused(build, order):
    # Each used to answer: an order-0 series, a pass (None), or the
    # misleading "a series needs at least its constant coefficient".
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        build(order)


@pytest.mark.parametrize("order", [0, 7, 12])
def test_verify_identities_pass(order):
    for check in verify_identities(order):
        assert check.passed, check
        assert check.first_failure is None
        assert check.order == order


def test_verify_identities_reports_first_failure(corrupted_dag_count):
    # With D(3) corrupted, the alternating inverse fails at index 3.  The
    # half-argument decomposition is what defines V from D, and V grows from
    # the same corrupted D, so that identity still holds: it checks the
    # arithmetic of V, not the value of D.
    checks = verify_identities(5)
    assert [(c.passed, c.first_failure) for c in checks] == [(False, 3), (True, None)]


def reference_identities(order):
    # Both identities through the term-by-term convolution, in integers:
    # E(-x) * D(x) = 1 as it stands, and D(x/2) * E(-x) + V(x) = D(x/2)
    # multiplied through by 2^n, which turns D(k)/2^k * (-1)^(n-k) into
    # D(k) * (-2)^(n-k).  No pairing and no Horner order.
    dags = dag_counts(order)
    orientable = [0] + [count_orientable_dags(n) for n in range(1, order + 1)]
    alternating, doubled = powers(-1, order), powers(-2, order)
    misses = [
        next((n for n in range(order + 1)
              if chromatic_sum(n, alternating, dags) != (n == 0)), None),
        next((n for n in range(order + 1)
              if chromatic_sum(n, dags, doubled) + (orientable[n] << n) != dags[n]), None),
    ]
    return [(miss is None, miss) for miss in misses]


def outcomes(order):
    return [(c.passed, c.first_failure) for c in verify_identities(order)]


@pytest.mark.parametrize("order", [0, 1, 2, 3, 12, 40])
def test_integer_pass_agrees_with_the_series_products(order):
    assert outcomes(order) == reference_identities(order) == [(True, None)] * 2


@pytest.mark.parametrize("order", [3, 12])
def test_integer_pass_agrees_on_a_corrupted_memo(corrupted_dag_count, order):
    assert outcomes(order) == reference_identities(order) == [(False, 3), (True, None)]


@pytest.mark.parametrize("which,index,expected", [
    (0, 16, [(False, 16), (False, 17)]),
    (0, 17, [(False, 17), (False, 18)]),
    (1, 29, [(True, None), (False, 29)]),
    (1, 30, [(True, None), (False, 30)]),
], ids=["dag-16", "dag-17", "orientable-29", "orientable-30"])
def test_integer_pass_agrees_on_a_stored_count_off_by_one(
    monkeypatch, which, index, expected
):
    # Written into the memo after growth, so no later count grows from it:
    # a wrong D(17) enters D(17) on both sides of the decomposition, and
    # first shows there at n = 18.
    order = 40
    count_dags(order)
    memo = [list(values) for values in counting._COUNTS]
    memo[which][index] += 1
    monkeypatch.setattr(counting, "_COUNTS", tuple(memo))
    assert outcomes(order) == reference_identities(order) == expected


def test_half_argument_decomposition_by_hand():
    # At n = 3 the decomposition reads -1 + 6 - 9 + 25/8 + V_3 = 25/8: the
    # terms C(3,k) 2^(k(3-k)) D(k)/2^k (-1)^(3-k) of D(x/2) * E(-x), summed
    # in Fractions, and 2^3 times them through the reference.
    terms = [Fraction(math.comb(3, k) << k * (3 - k), 2**k) * count_dags(k) * (-1) ** (3 - k)
             for k in range(4)]
    assert terms == [-1, 6, -9, Fraction(25, 8)]
    assert sum(terms) + count_orientable_dags(3) == Fraction(count_dags(3), 8)
    assert chromatic_sum(3, dag_counts(3), powers(-2, 3)) == 8 * sum(terms)


# ----------------------------------------------------------------------
# the quotient route to the orientable counts
# ----------------------------------------------------------------------


def test_quotient_constant_term_is_zero():
    # Forced by the identities; the combinatorial count at n = 0 is 1.
    assert orientable_from_quotient(4).coefficient(0) == 0


def test_quotient_reproduces_published_values():
    q = orientable_from_quotient(7)
    assert [q.coefficient(n) for n in range(1, 8)] == [
        1, 1, 4, 43, 1156, 74581, 11226874,
    ]


@pytest.mark.parametrize("order", [0, 5, 12])
def test_quotient_is_integral_and_matches_the_formula(order):
    q = orientable_from_quotient(order)
    for n in range(order + 1):
        c = q.coefficient(n)
        assert c.denominator == 1
        if n >= 1:
            assert c == count_orientable_dags(n)
    assert q.coeffs == (0, *map(count_orientable_dags, range(1, order + 1)))


def test_quotient_matches_the_counts_through_sixty():
    q = orientable_from_quotient(60)
    assert q.coefficient(0) == 0
    for n in range(1, 61):
        c = q.coefficient(n)
        assert c.denominator == 1
        assert c.numerator == count_orientable_dags(n)


def test_quotient_returns_a_non_integer_coefficient_as_a_fraction(monkeypatch):
    # Off by one in every scaled coefficient W_n = 2^n V_n past the first,
    # W_1 is odd: the division at the end must leave a proper fraction for
    # the check to see.
    solve = series._scaled_quotient
    monkeypatch.setattr(series, "_scaled_quotient",
                        lambda order: [w - (n > 0) for n, w in enumerate(solve(order))])
    q = orientable_from_quotient(5)
    assert q.coefficient(1) == Fraction(1, 2)
    assert any(c.denominator != 1 for c in q.coeffs)


def kernel_quotient(order):
    # The solve by its definition: W_n from the reference convolution
    # against the signs of E(-x), with no pairing and no Horner order.  A
    # placeholder W_n = 0 makes the sum's k = 0 term, the unknown itself,
    # vanish.
    alternating = powers(-1, order)
    scaled = [0]
    for n in range(1, order + 1):
        forcing = 1 << n if n % 2 else -(1 << n)
        scaled.append(0)
        scaled[n] = forcing - chromatic_sum(n, alternating, scaled)
    return scaled


def test_quotient_equals_the_kernel_solve_through_sixty():
    scaled = kernel_quotient(60)
    assert series._scaled_quotient(60) == scaled
    for order in range(61):
        assert orientable_from_quotient(order) == ChromaticSeries(tuple(
            Fraction(w, 1 << n) for n, w in enumerate(scaled[: order + 1])
        ))


def test_quotient_times_divisor_recovers_numerator():
    # V(x) * E(-x/2) = 1 - E(-x), multiplied through by 2^n: V_k becomes
    # 2^k V_k, the divisor's (-1/2)^j becomes (-1)^j, and the numerator's
    # -(-1)^n for n >= 1 becomes -(-2)^n.
    order = 10
    scaled = [v << k for k, v in enumerate(orientable_from_quotient(order).coeffs)]
    assert [chromatic_sum(n, scaled, powers(-1, order)) for n in range(order + 1)] == (
        [0] + [-(-2) ** n for n in range(1, order + 1)])


# ----------------------------------------------------------------------
# the derivative rule
# ----------------------------------------------------------------------


def test_derivative_rule_holds_through_forty():
    assert derivative_identity_first_failure(40) is None


def test_derivative_rule_spot_check():
    # n = 4: 1/(3! * 2^6) on both sides.
    lhs = Fraction(1, math.factorial(3) * 2**6)
    rhs = Fraction(1, 2**3) * Fraction(1, math.factorial(3) * 2**3)
    assert lhs == rhs
