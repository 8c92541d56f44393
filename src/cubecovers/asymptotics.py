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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


__all__ = [
    "DEFAULT_TERMS",
    "DEFAULT_TOL",
    "MIN_TOL",
    "AsymptoticConstants",
    "RootFindingError",
    "compute_constants",
    "deformed_exp",
    "log_dag_estimate",
    "log_orientable_estimate",
    "ratio_estimate",
]

DEFAULT_TERMS = 30
DEFAULT_TOL = 1e-13
MIN_TOL = 1e-14  # a smaller Newton tolerance is not reachable in doubles

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


def _newton_zero(terms: int, tol: float, initial: float) -> tuple[float, int]:
    """Newton iteration for the zero, returning (zero, iterations used)."""
    if terms < 25:
        raise ValueError("need at least 25 terms for a trustworthy tail")
    if not tol >= MIN_TOL:
        raise ValueError(f"tolerance must be at least {MIN_TOL}, got {tol!r}")
    x = initial
    for iteration in range(1, _MAX_NEWTON_ITERATIONS + 1):
        derivative = deformed_exp(x / 2, terms)  # E'(x) = E(x/2)
        if abs(derivative) < _MIN_DERIVATIVE:
            raise RootFindingError(
                f"derivative {derivative!r} too small at x={x!r}"
            )
        step = deformed_exp(x, terms) / derivative
        x -= step
        if abs(step) < tol:
            lo, hi = _BRACKET
            if not lo < x < hi:
                raise RootFindingError(
                    f"converged to {x!r}, outside the expected bracket {_BRACKET}"
                )
            residual = deformed_exp(x, terms)
            if abs(residual) >= 10 * tol:
                raise RootFindingError(
                    f"residual {residual!r} too large after convergence"
                )
            return x, iteration
    raise RootFindingError(
        f"no convergence within {_MAX_NEWTON_ITERATIONS} iterations"
    )


@dataclass(frozen=True)
class AsymptoticConstants:
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


def compute_constants(
    terms: int = DEFAULT_TERMS, tol: float = DEFAULT_TOL
) -> AsymptoticConstants:
    """Locate the zero and evaluate both prefactors.

    The ratio factor is computed two ways, as K/C and as 1 - E(2*alpha);
    they agree to roundoff by construction and the cross-check is enforced
    here rather than assumed.
    """
    alpha, iterations = _newton_zero(terms, tol, initial=-1.5)
    at_half = deformed_exp(alpha / 2, terms)
    if abs(at_half) < _MIN_DERIVATIVE:
        raise RootFindingError("E(alpha/2) vanished; prefactors undefined")
    dag_prefactor = -1.0 / (alpha * at_half)
    direct_ratio = 1.0 - deformed_exp(2 * alpha, terms)
    orientable_prefactor = -direct_ratio / (alpha * at_half)
    ratio_factor = orientable_prefactor / dag_prefactor
    if abs(ratio_factor - direct_ratio) > 1e-12:
        raise RootFindingError(
            f"ratio cross-check failed: {ratio_factor!r} vs {direct_ratio!r}"
        )
    return AsymptoticConstants(
        alpha=alpha,
        dag_prefactor=dag_prefactor,
        orientable_prefactor=orientable_prefactor,
        ratio_factor=ratio_factor,
        truncation=terms,
        tolerance=tol,
        newton_iterations=iterations,
    )


@lru_cache(maxsize=1)
def _default_constants() -> AsymptoticConstants:
    return compute_constants()


def _log_factorial(n: int) -> float:
    # Plain summation; exact enough for the n in play and free of Stirling error.
    return sum(math.log(k) for k in range(2, n + 1))


def log_dag_estimate(n: int) -> float:
    """Natural log of the asymptotic DAG-count estimate at n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = _default_constants()
    return (
        math.log(c.dag_prefactor)
        + (n * (n - 1) // 2) * math.log(2.0)
        + _log_factorial(n)
        - n * math.log(abs(c.alpha))
    )


def log_orientable_estimate(n: int) -> float:
    """Natural log of the asymptotic orientable-count estimate at n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = _default_constants()
    return (
        math.log(c.orientable_prefactor)
        + (n * (n - 1) // 2) * math.log(2.0)
        + _log_factorial(n)
        - n * math.log(2.0 * abs(c.alpha))
    )


def ratio_estimate(n: int) -> float:
    """Estimated orientable fraction at n: ratio_factor / 2^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.ldexp(_default_constants().ratio_factor, -n)
