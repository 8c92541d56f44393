import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecovers import (
    ChromaticSeries,
    chrom_mul,
    count_dags,
    count_orientable_dags,
    dag_series,
    deformed_exp_series,
    orientable_from_quotient,
    unit_series,
    verify_identities,
)
from cubecovers import counting, series
from cubecovers.series import derivative_identity_first_failure, orientable_series

small_rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


def series_strategy(max_order: int = 8):
    return st.lists(small_rationals, min_size=1, max_size=max_order + 1).map(
        lambda cs: ChromaticSeries(tuple(cs))
    )


# ----------------------------------------------------------------------
# the series type
# ----------------------------------------------------------------------


def test_series_needs_a_constant_term():
    with pytest.raises(ValueError):
        ChromaticSeries(())


def test_order_and_coefficients():
    s = ChromaticSeries((1, 2, Fraction(3, 4)))
    assert s.order == 2
    assert s.coefficient(2) == Fraction(3, 4)
    assert all(isinstance(c, Fraction) for c in s.coeffs)


@pytest.mark.parametrize("n", [-1, 4])
def test_coefficient_outside_the_order_raises(n):
    # A negative index must not read the coefficients from the top end.
    s = deformed_exp_series(3).scale_argument(-1)
    with pytest.raises(IndexError, match=f"no coefficient {n} in a series of order 3"):
        s.coefficient(n)


def test_all_ones_series_shape():
    assert deformed_exp_series(0).coeffs == (Fraction(1),)
    assert deformed_exp_series(3).coeffs == (1, 1, 1, 1)


# ----------------------------------------------------------------------
# multiplication on the chromatic basis
# ----------------------------------------------------------------------


def test_unit_series_is_the_identity():
    e = deformed_exp_series(6)
    assert chrom_mul(unit_series(6), e) == e
    assert chrom_mul(e, unit_series(6)) == e


def test_squared_all_ones_coefficient_two():
    ee = chrom_mul(deformed_exp_series(2), deformed_exp_series(2))
    # 1 + C(2,1)*2^1 + 1 = 6
    assert ee.coefficient(2) == 6


def test_product_truncates_to_smaller_order():
    a = deformed_exp_series(3)
    b = deformed_exp_series(7)
    assert chrom_mul(a, b).order == 3
    assert (a + b).order == 3
    assert (a - b).order == 3


@given(series_strategy(), series_strategy())
@settings(max_examples=40)
def test_multiplication_commutes(a, b):
    assert chrom_mul(a, b) == chrom_mul(b, a)


@given(series_strategy(5), series_strategy(5), series_strategy(5))
@settings(max_examples=30)
def test_multiplication_is_associative(a, b, c):
    assert chrom_mul(chrom_mul(a, b), c) == chrom_mul(a, chrom_mul(b, c))


def naive_chrom_mul(a, b):
    # The convolution written out in Fractions, term by term.
    order = min(a.order, b.order)
    return ChromaticSeries(tuple(
        sum(
            (Fraction(math.comb(n, k) * 2 ** (k * (n - k))) * a.coeffs[k] * b.coeffs[n - k]
             for k in range(n + 1)),
            Fraction(0),
        )
        for n in range(order + 1)
    ))


# Non-dyadic denominators and negative values, so the common denominator
# of a factor is rarely a power of two.
odd_rationals = st.sampled_from(
    [Fraction(1, 3), Fraction(5, 7), Fraction(-2, 9), Fraction(-11, 5), Fraction(0)]
) | st.fractions(min_value=-50, max_value=50, max_denominator=35)


@given(
    st.lists(odd_rationals, min_size=1, max_size=12),
    st.lists(odd_rationals, min_size=1, max_size=12),
)
@settings(max_examples=60)
def test_multiplication_matches_the_naive_convolution(xs, ys):
    a, b = ChromaticSeries(tuple(xs)), ChromaticSeries(tuple(ys))
    product = chrom_mul(a, b)
    assert product == naive_chrom_mul(a, b)
    assert all(type(c) is Fraction for c in product.coeffs)


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
    # The kernel shifts where this sum multiplies by a power of two, and a
    # negative product must shift like a positive one.
    n, a, b = inputs
    assert series.chromatic_sum(n, a, b) == sum(
        math.comb(n, k) * a[k] * b[n - k] * 2 ** (k * (n - k))
        for k in range(n + 1)
    )


def test_multiplication_by_hand_with_odd_denominators():
    a = ChromaticSeries((Fraction(1, 3), Fraction(5, 7)))
    b = ChromaticSeries((Fraction(-1, 2), Fraction(3, 5), Fraction(4)))
    # c_1 = a_0 b_1 + a_1 b_0 = 1/5 - 5/14 = -11/70
    assert chrom_mul(a, b).coeffs == (Fraction(-1, 6), Fraction(-11, 70))


@given(series_strategy())
@settings(max_examples=30)
def test_unit_is_two_sided_identity(a):
    one = unit_series(a.order)
    assert chrom_mul(one, a) == a
    assert chrom_mul(a, one) == a


# ----------------------------------------------------------------------
# argument scaling
# ----------------------------------------------------------------------


def test_scale_by_one_is_identity():
    d = dag_series(6)
    assert d.scale_argument(1) == d


def test_scale_by_minus_one_alternates():
    e = deformed_exp_series(5).scale_argument(-1)
    assert e.coeffs == tuple(Fraction((-1) ** n) for n in range(6))


def test_scale_by_half_divides_by_powers_of_two():
    d = dag_series(6).scale_argument(Fraction(1, 2))
    for n in range(7):
        assert d.coefficient(n) == Fraction(count_dags(n), 2**n)


# ----------------------------------------------------------------------
# the identities
# ----------------------------------------------------------------------


@pytest.mark.parametrize("order", [0, 3, 7, 12])
def test_alternating_series_inverts_the_dag_series(order):
    product = chrom_mul(
        deformed_exp_series(order).scale_argument(-1), dag_series(order)
    )
    assert product == unit_series(order)


@pytest.mark.parametrize("build", [
    unit_series, deformed_exp_series, dag_series, orientable_series,
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
    # Both identities as series products, in Fractions: the formulation
    # that verify_identities replaced, which it must agree with exactly.
    def first_mismatch(a, b):
        return next((n for n, (x, y) in enumerate(zip(a.coeffs, b.coeffs)) if x != y),
                    None)

    alternating = deformed_exp_series(order).scale_argument(-1)
    dags = dag_series(order)
    halved = dags.scale_argument(Fraction(1, 2))
    lhs = chrom_mul(halved, alternating) + orientable_series(order)
    misses = [
        first_mismatch(chrom_mul(alternating, dags), unit_series(order)),
        first_mismatch(lhs, halved),
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
    # At n = 3 the decomposition reads -1 + 6 - 9 + 25/8 + V_3 = 25/8.
    order = 3
    halved = dag_series(order).scale_argument(Fraction(1, 2))
    alternating = deformed_exp_series(order).scale_argument(-1)
    lhs = chrom_mul(halved, alternating) + orientable_series(order)
    assert lhs.coefficient(3) == Fraction(25, 8)
    assert lhs == halved


# ----------------------------------------------------------------------
# the quotient route to the orientable counts
# ----------------------------------------------------------------------


def test_quotient_constant_term_is_zero():
    # Forced by the identities; the combinatorial count at n = 0 is 1.
    assert orientable_from_quotient(4).coefficient(0) == 0
    assert orientable_series(4).coefficient(0) == 0


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
    assert q == orientable_series(order)


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
    # The solve by its definition: W_n from the term-by-term product
    # kernel against the signs of E(-x) as a list of +-1, with no pairing
    # and no Horner order.  A placeholder W_n = 0 makes the kernel's k = 0
    # term, the unknown itself, vanish.
    signs = [(-1) ** k for k in range(order + 1)]
    scaled = [0]
    for n in range(1, order + 1):
        forcing = 1 << n if n % 2 else -(1 << n)
        scaled.append(0)
        scaled[n] = forcing - series.chromatic_sum(n, signs, scaled)
    return scaled


def test_quotient_equals_the_kernel_solve_through_sixty():
    scaled = kernel_quotient(60)
    assert series._scaled_quotient(60) == scaled
    for order in range(61):
        assert orientable_from_quotient(order) == ChromaticSeries(tuple(
            Fraction(w, 1 << n) for n, w in enumerate(scaled[: order + 1])
        ))


def test_quotient_times_divisor_recovers_numerator():
    order = 10
    q = orientable_from_quotient(order)
    divisor = deformed_exp_series(order).scale_argument(Fraction(-1, 2))
    numerator = unit_series(order) - deformed_exp_series(order).scale_argument(-1)
    assert chrom_mul(q, divisor) == numerator


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
