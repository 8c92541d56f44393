import math
import re

import pytest

from cubecovers import (
    AsymptoticConstants,
    RootFindingError,
    compute_constants,
    count_dags,
    count_orientable_dags,
    deformed_exp,
    log_dag_estimate,
    log_orientable_estimate,
    ratio_estimate,
)
from cubecovers.asymptotics import _newton_zero


def bisect_zero(lo: float = -1.6, hi: float = -1.4, steps: int = 120) -> float:
    """Independent root oracle: plain bisection on the known bracket."""
    f_lo = deformed_exp(lo)
    assert f_lo * deformed_exp(hi) < 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        f_mid = deformed_exp(mid)
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# evaluating the deformed exponential
# ----------------------------------------------------------------------


def test_value_at_zero():
    assert deformed_exp(0.0) == 1.0


def test_two_term_partial_sum():
    assert deformed_exp(1.0, terms=1) == 2.0


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        deformed_exp(float("nan"))
    with pytest.raises(ValueError):
        deformed_exp(float("inf"))
    with pytest.raises(ValueError):
        deformed_exp(1.0, terms=-1)


def test_monotone_in_truncation_for_positive_x():
    # Strictly increasing while the next term is above one ulp of the total,
    # never decreasing after that.
    values = [deformed_exp(2.0, terms=n) for n in range(12)]
    assert all(a < b for a, b in zip(values[:8], values[1:8]))
    assert all(a <= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("x", [0.5, -1.3, 2.5])
@pytest.mark.parametrize("terms", [4, 7, 10])
def test_truncation_step_equals_next_term(x, terms):
    # Equality holds exactly in real arithmetic; in doubles the step can
    # only be trusted down to a few ulps of the running total.
    step = deformed_exp(x, terms + 1) - deformed_exp(x, terms)
    expected = x ** (terms + 1) / (
        math.factorial(terms + 1) * 2 ** ((terms + 1) * terms // 2)
    )
    assert step == pytest.approx(expected, rel=1e-6, abs=5e-15)


def test_tail_negligible_past_twenty_five_terms():
    # The first omitted term at 25 terms and |x| <= 4 is below 1e-30 ...
    from fractions import Fraction

    bound = Fraction(4**26, math.factorial(26) * 2**325)
    assert bound < Fraction(1, 10**30)
    # ... so deeper truncations cannot move the double at all.
    for x in (-4.0, -1.5, 3.0):
        assert deformed_exp(x, 30) == deformed_exp(x, 60)


def _every_term(x, terms):
    # deformed_exp without the early stop: all terms + 1 Kahan steps.
    total = lost = 0.0
    term = 1.0
    for n in range(terms + 1):
        y = term - lost
        t = total + y
        lost = (t - total) - y
        total = t
        term *= x / ((n + 1) * (1 << n))
    return total


@pytest.mark.parametrize("x", [4.0, -4.0, -2.976, -1.488, -0.744, 0.3, 1e-300])
def test_early_stop_gives_the_bits_of_running_every_term(x):
    for terms in (0, 1, 25, 44, 45, 46, 60, 200, 1000):
        assert deformed_exp(x, terms) == _every_term(x, terms)
    # Past about 1020 terms the full loop cannot convert (n + 1) * 2^n.
    assert deformed_exp(x, 5000) == _every_term(x, 1000)


@pytest.mark.parametrize("x", [1e300, -1e300, -1e20])
@pytest.mark.parametrize("terms", [50, 1100])
def test_partial_sum_outside_the_float_range_is_a_value_error(x, terms):
    # Terms overflow to inf before they underflow to 0.0: no nan, no
    # OverflowError from converting (n + 1) * 2^n to a float.
    with pytest.raises(ValueError, match=re.escape(repr(x))):
        deformed_exp(x, terms)


# ----------------------------------------------------------------------
# root finding
# ----------------------------------------------------------------------


def test_zero_is_near_minus_one_point_four_eight_eight():
    alpha = compute_constants().alpha
    assert -1.6 < alpha < -1.4
    assert round(alpha, 3) == -1.488


def test_zero_really_is_a_zero():
    alpha = compute_constants().alpha
    assert abs(deformed_exp(alpha)) < 1e-12


def test_newton_agrees_with_bisection_oracle():
    assert compute_constants().alpha == pytest.approx(bisect_zero(), abs=1e-10)


def test_zero_is_stable_in_truncation():
    reference = compute_constants(terms=25).alpha
    for terms in (28, 30, 40):
        alpha = compute_constants(terms=terms).alpha
        assert alpha == pytest.approx(reference, abs=1e-12)


def test_root_finder_validates_input():
    with pytest.raises(ValueError):
        compute_constants(terms=10)
    with pytest.raises(ValueError):
        compute_constants(tol=1e-16)
    with pytest.raises(ValueError):
        compute_constants(tol=float("nan"))


def test_newton_refuses_a_root_outside_the_bracket():
    # From far left the iteration settles on a spurious zero of the
    # truncated sum; the bracket check must reject it.
    with pytest.raises(RootFindingError):
        _newton_zero(30, 1e-13, initial=-30.0)


# ----------------------------------------------------------------------
# the constants
# ----------------------------------------------------------------------


def test_constants_match_their_coarse_published_roundings():
    c = compute_constants()
    assert c.alpha == pytest.approx(-1.488, abs=5e-3)
    assert c.dag_prefactor == pytest.approx(1.739, abs=5e-3)
    assert c.orientable_prefactor == pytest.approx(2.197, abs=5e-3)
    assert c.ratio_factor == pytest.approx(1.262, abs=5e-3)


def test_constants_signs_and_provenance():
    c = compute_constants(terms=32, tol=1e-13)
    assert isinstance(c, AsymptoticConstants)
    assert c.alpha < 0
    assert c.dag_prefactor > 0
    assert c.orientable_prefactor > 0
    assert c.truncation == 32
    assert c.tolerance == 1e-13
    assert c.newton_iterations >= 1


def test_ratio_factor_two_ways():
    c = compute_constants()
    direct = 1.0 - deformed_exp(2 * c.alpha)
    assert abs(c.ratio_factor - direct) < 1e-12
    assert c.ratio_factor == pytest.approx(
        c.orientable_prefactor / c.dag_prefactor, rel=1e-15
    )


# ----------------------------------------------------------------------
# estimates against exact counts
# ----------------------------------------------------------------------


def test_estimate_at_seven_is_within_fifteen_percent():
    ratio = math.exp(math.log(count_dags(7)) - log_dag_estimate(7))
    assert abs(ratio - 1) < 0.15
    # measured: the estimate is already within 0.1 percent here
    assert abs(ratio - 1) < 1e-3


def test_estimate_at_one_is_prefactor_over_zero_magnitude():
    c = compute_constants()
    assert math.exp(log_dag_estimate(1)) == pytest.approx(
        c.dag_prefactor / abs(c.alpha), rel=1e-12
    )


def test_log_estimate_difference_is_the_ratio_estimate():
    for n in (0, 3, 9, 20):
        diff = math.exp(log_orientable_estimate(n) - log_dag_estimate(n))
        assert diff == pytest.approx(ratio_estimate(n), rel=1e-10)


def test_ratio_estimate_values():
    assert ratio_estimate(0) == pytest.approx(1.262, abs=5e-3)
    exact = count_orientable_dags(7) / count_dags(7)
    assert ratio_estimate(7) == pytest.approx(exact, rel=0.01)


def test_ratio_estimate_is_asymptotic_not_exact():
    # At n = 1 the exact fraction is 1 while the estimate sits near 0.63.
    assert count_orientable_dags(1) == count_dags(1) == 1
    assert 0.60 < ratio_estimate(1) < 0.66


def test_estimates_sharpen_with_n():
    def rel_gap(log_est, exact):
        return abs(math.exp(math.log(exact) - log_est) - 1)

    assert rel_gap(log_dag_estimate(15), count_dags(15)) < rel_gap(
        log_dag_estimate(7), count_dags(7)
    )
    assert rel_gap(log_orientable_estimate(15), count_orientable_dags(15)) < rel_gap(
        log_orientable_estimate(7), count_orientable_dags(7)
    )


def test_estimates_reject_negative_n():
    with pytest.raises(ValueError):
        log_dag_estimate(-1)
    with pytest.raises(ValueError):
        log_orientable_estimate(-2)
    with pytest.raises(ValueError):
        ratio_estimate(-3)
