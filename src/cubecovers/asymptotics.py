"""Floating-point asymptotics for the two counting sequences.

The all-ones chromatic series, read as an entire function, is the deformed
exponential

    E(x) = sum_{n>=0} x^n / (n! * 2^C(n,2)),

whose terms decay like 2^(-n^2/2), so a truncation around thirty terms is
exact to well below double precision for any argument of interest here.
E has an isolated negative zero alpha near -1.488, and the growth of both
counting sequences is governed by it:

    D(n) ~ C * 2^C(n,2) * n! * (1/|alpha|)^n
    V(n) ~ K * 2^C(n,2) * n! * (1/(2|alpha|))^n

with C = -1 / (alpha * E(alpha/2)) and K = (1 - E(2*alpha)) * C.  The
orientable fraction therefore decays geometrically:

    V(n) / D(n) ~ (K/C) / 2^n,   K/C = 1 - E(2*alpha) = 1.2617...

Newton's method for alpha uses the exact derivative rule E'(x) = E(x/2)
rather than finite differences.  Estimates are assembled in log space so
they stay finite long after the counts leave floating-point range.

The solve has no knobs: it sums 30 terms and stops at a Newton step below
1e-13, and both are printed as provenance.  Neither value moves a bit of
the result.  Every point the solve evaluates lies in [-3.2, 0] (alpha,
alpha/2 and 2*alpha, the last for K), and there the partial sums through
25 .. 60 terms and through 1000 terms equal the 30-term sum bit for bit
at every multiple of 0.005.  Any truncation from 25 to 79 terms, or 200,
1000, 1100 or 5000, and any tolerance from 1e-14 to 1e-10, gives the
same alpha, C, K, K/C and iteration count.  A looser tolerance only makes
alpha worse (off by 1.6e-9 at 1e-4), and a tighter one than 1e-14 is not
reachable in doubles.  More digits than these need exact arithmetic, not
other values of the two constants.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple


__all__ = [
    "DEFAULT_TERMS",
    "AsymptoticConstants",
    "RootFindingError",
    "compute_constants",
    "deformed_exp",
    "log_dag_estimate",
    "log_orientable_estimate",
    "ratio_estimate",
]

DEFAULT_TERMS = 30
_TOLERANCE = 1e-13  # Newton step; see the module docstring for both values

# The zero is a simple root well inside this bracket; landing anywhere else
# means the iteration went wrong.
_BRACKET = (-1.6, -1.4)

_MAX_NEWTON_ITERATIONS = 100
_MIN_DERIVATIVE = 1e-12


class RootFindingError(ArithmeticError):
    """Newton iteration failed to locate the zero of the deformed exponential."""


def deformed_exp(x: float, terms: int = DEFAULT_TERMS) -> float:
    """Partial sum of E(x) through the x^terms term.

    Terms are added in increasing degree with Kahan compensation.  Each term
    is the previous one times x / ((n+1) * 2^n), scaled by ``ldexp`` so the
    power of two is never converted to a float; for |x| <= 4 and
    terms >= 25 the omitted tail is far below double-precision resolution.
    Once a term has underflowed to 0.0 and adding it would leave both the
    sum and the compensation as they are, every later step would too, so
    the loop stops there: the result is the same bits as running every
    term.  A partial sum that leaves the float range raises ``ValueError``.
    """
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    total = 0.0
    lost = 0.0
    term = 1.0
    for n in range(terms + 1):
        y = term - lost
        t = total + y
        if not math.isfinite(t):
            raise ValueError(
                f"partial sum of E({x!r}) through x^{n} leaves the float range"
            )
        compensation = (t - total) - y
        if term == 0.0 and t == total and compensation == lost:
            break
        lost = compensation
        total = t
        term *= math.ldexp(x / (n + 1), -n)
    return total


def _newton_zero(initial: float) -> tuple[float, int]:
    """Newton iteration for the zero, returning (zero, iterations used)."""
    x = initial
    for iteration in range(1, _MAX_NEWTON_ITERATIONS + 1):
        derivative = deformed_exp(x / 2)  # E'(x) = E(x/2)
        if abs(derivative) < _MIN_DERIVATIVE:
            raise RootFindingError(
                f"derivative {derivative!r} too small at x={x!r}"
            )
        step = deformed_exp(x) / derivative
        x -= step
        if abs(step) < _TOLERANCE:
            lo, hi = _BRACKET
            if not lo < x < hi:
                raise RootFindingError(
                    f"converged to {x!r}, outside the expected bracket {_BRACKET}"
                )
            residual = deformed_exp(x)
            if abs(residual) >= 10 * _TOLERANCE:
                raise RootFindingError(
                    f"residual {residual!r} too large after convergence"
                )
            return x, iteration
    raise RootFindingError(
        f"no convergence within {_MAX_NEWTON_ITERATIONS} iterations"
    )


class AsymptoticConstants(NamedTuple):
    """The zero and growth prefactors, with the numerics that produced them.

    ``ratio_factor`` is orientable_prefactor / dag_prefactor, the constant in
    the orientable-fraction estimate ratio_factor / 2^n.
    """

    alpha: float
    dag_prefactor: float
    orientable_prefactor: float
    ratio_factor: float
    truncation: int
    tolerance: float
    newton_iterations: int


@lru_cache(maxsize=1)
def compute_constants() -> AsymptoticConstants:
    """Locate the zero and evaluate both prefactors, once per process."""
    alpha, iterations = _newton_zero(initial=-1.5)
    at_half = deformed_exp(alpha / 2)
    if abs(at_half) < _MIN_DERIVATIVE:
        raise RootFindingError("E(alpha/2) vanished; prefactors undefined")
    dag_prefactor = -1.0 / (alpha * at_half)
    orientable_prefactor = -(1.0 - deformed_exp(2 * alpha)) / (alpha * at_half)
    return AsymptoticConstants(
        alpha=alpha,
        dag_prefactor=dag_prefactor,
        orientable_prefactor=orientable_prefactor,
        ratio_factor=orientable_prefactor / dag_prefactor,
        truncation=DEFAULT_TERMS,
        tolerance=_TOLERANCE,
        newton_iterations=iterations,
    )


def _log_factorial(n: int) -> float:
    # Plain summation; exact enough for the n in play and free of Stirling error.
    return sum(math.log(k) for k in range(2, n + 1))


def _log_estimate(n: int, prefactor: float, base: float) -> float:
    """Natural log of prefactor * 2^C(n,2) * n! / base^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (
        math.log(prefactor)
        + (n * (n - 1) // 2) * math.log(2.0)
        + _log_factorial(n)
        - n * math.log(base)
    )


def log_dag_estimate(n: int) -> float:
    """Natural log of the asymptotic DAG-count estimate at n."""
    c = compute_constants()
    return _log_estimate(n, c.dag_prefactor, abs(c.alpha))


def log_orientable_estimate(n: int) -> float:
    """Natural log of the asymptotic orientable-count estimate at n."""
    c = compute_constants()
    return _log_estimate(n, c.orientable_prefactor, 2.0 * abs(c.alpha))


def ratio_estimate(n: int) -> float:
    """Estimated orientable fraction at n: ratio_factor / 2^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.ldexp(compute_constants().ratio_factor, -n)
