"""Exact arithmetic for chromatic generating functions.

A chromatic generating function stores a sequence a_0 .. a_N against the
basis x^n / (n! * 2^C(n,2)).  On that basis the product of two series has
the integer-friendly convolution

    c_n = sum_{k=0..n} C(n,k) * 2^(k(n-k)) * a_k * b_{n-k},

because C(n,2) = C(k,2) + C(n-k,2) + k(n-k).  Working in this basis keeps
every identity below in integer numerators over power-of-two denominators
instead of the astronomically scaled plain power-series coefficients.

Two kinds of code serve two kinds of caller:

* :class:`ChromaticSeries` and :func:`chrom_mul` are the public product
  API, with coefficients stored as :class:`~fractions.Fraction`.  Products
  run on integer numerators through one kernel, :func:`chromatic_sum`, and
  build one ``Fraction`` per output coefficient.
* :func:`verify_identities` and :func:`orientable_from_quotient` sum
  their terms in integers, k and n - k paired under one binomial stepped
  along the row, in Horner order from the middle pair down, so no term
  is shifted by its whole k(n-k).

Nothing here reads :mod:`cubecovers.counting` but through its two
counters.  Counting advances its products C(n,j) * D(j) by exact
division; here each term takes a binomial of the row, so the identities
check its integers through different arithmetic.

Notation used throughout this module:

    E(x) = series with every coefficient 1   (the deformed exponential,
           sum_n x^n / (n! 2^C(n,2)), as an entire function)
    D(x) = series of the DAG counts D(n)
    V(x) = series of the orientable counts, with constant term 0

Two exact identities tie them together at every order:

    E(-x) * D(x) = 1
    D(x/2) * E(-x) + V(x) = D(x/2)

and eliminating D gives V(x) = (1 - E(-x)) / E(-x/2), which
:func:`orientable_from_quotient` solves coefficient by coefficient.

Note on the constant term: the identities and the quotient force V_0 = 0,
while the count of zero-vertex digraphs is 1 (see
:func:`cubecovers.counting.count_orientable_dags`); every coefficient
with n >= 1 agrees exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from cubecovers.counting import count_dags, count_orientable_dags


__all__ = [
    "ChromaticSeries",
    "IdentityCheck",
    "chrom_mul",
    "chromatic_sum",
    "dag_series",
    "deformed_exp_series",
    "derivative_identity_first_failure",
    "orientable_from_quotient",
    "orientable_series",
    "unit_series",
    "verify_identities",
]


def chromatic_sum(n: int, a: list[int], b: list[int]) -> int:
    """The exact integer sum over ``k = 0 .. n`` of

        C(n,k) * a[k] * b[n-k] * 2^(k(n-k)),

    the n-th coefficient of the chromatic convolution of ``a`` and ``b``.
    Terms k and n - k share C(n,k) and the shift k(n-k), so their products
    a[k] * b[n-k] and a[n-k] * b[k] are added first, and the pair is
    multiplied by the binomial and shifted once; no k(n-k)-bit power of two
    is ever built.  No big-by-big product is taken when ``a`` holds the
    small numbers.  The binomial is stepped along the row, over k <= n/2
    only.
    """
    total = 0
    c = 1
    for k in range(n // 2 + 1):
        mirror = n - k
        x = a[mirror] * b[k]
        if k < mirror:
            x += a[k] * b[mirror]
        if x:
            total += (c * x) << (k * mirror)
        c = c * mirror // (k + 1)
    return total


@dataclass(frozen=True)
class ChromaticSeries:
    """Coefficients a_0 .. a_N on the basis x^n / (n! * 2^C(n,2)).

    The truncation order N is ``len(coeffs) - 1`` and is part of the value:
    equality compares both the order and every coefficient.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(
            self,
            "coeffs",
            tuple(c if type(c) is Fraction else Fraction(c) for c in self.coeffs),
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"no coefficient {n} in a series of order {self.order}")
        return self.coeffs[n]

    def scale_argument(self, s) -> ChromaticSeries:
        """Substitute x -> s*x, which scales the n-th coefficient by s^n."""
        s = Fraction(s)
        return ChromaticSeries(
            tuple(c * s**n for n, c in enumerate(self.coeffs))
        )

    def __mul__(self, other: ChromaticSeries) -> ChromaticSeries:
        return chrom_mul(self, other)

    def __add__(self, other: ChromaticSeries) -> ChromaticSeries:
        order = min(self.order, other.order)
        return ChromaticSeries(
            tuple(self.coeffs[n] + other.coeffs[n] for n in range(order + 1))
        )

    def __sub__(self, other: ChromaticSeries) -> ChromaticSeries:
        order = min(self.order, other.order)
        return ChromaticSeries(
            tuple(self.coeffs[n] - other.coeffs[n] for n in range(order + 1))
        )


def _numerators(s: ChromaticSeries, order: int) -> tuple[list[int], int]:
    """Coefficients 0 .. order as integer numerators over one common
    denominator, the lcm of theirs."""
    coeffs = s.coeffs[: order + 1]
    common = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (common // c.denominator) for c in coeffs], common


def chrom_mul(a: ChromaticSeries, b: ChromaticSeries) -> ChromaticSeries:
    """Product on the chromatic basis, truncated to the smaller order.

    Both factors go over a common denominator, so every coefficient of the
    product is one integer :func:`chromatic_sum` over the product of the
    two denominators.
    """
    order = min(a.order, b.order)
    xs, x_den = _numerators(a, order)
    ys, y_den = _numerators(b, order)
    if max(map(int.bit_length, xs)) > max(map(int.bit_length, ys)):
        xs, ys = ys, xs  # the kernel multiplies by its first sequence first
    den = x_den * y_den
    return ChromaticSeries(
        tuple(Fraction(chromatic_sum(n, xs, ys), den) for n in range(order + 1))
    )


def _check_order(order: int) -> None:
    """Refuse a negative truncation order, which would otherwise pass as an
    empty or order-0 series."""
    if order < 0:
        raise ValueError("order must be nonnegative")


def unit_series(order: int) -> ChromaticSeries:
    """The multiplicative identity: constant coefficient 1, rest 0."""
    _check_order(order)
    return ChromaticSeries((Fraction(1),) + (Fraction(0),) * order)


def deformed_exp_series(order: int) -> ChromaticSeries:
    """E(x): every chromatic coefficient is 1."""
    _check_order(order)
    return ChromaticSeries((Fraction(1),) * (order + 1))


def dag_series(order: int) -> ChromaticSeries:
    """D(x): chromatic coefficients are the exact DAG counts."""
    _check_order(order)
    return ChromaticSeries(tuple(Fraction(count_dags(n)) for n in range(order + 1)))


def orientable_series(order: int) -> ChromaticSeries:
    """V(x): orientable counts for n >= 1, constant term 0.

    The zero constant term is what the identities in the module docstring
    require; the combinatorial count at n = 0 is 1.
    """
    _check_order(order)
    coeffs = [Fraction(0)]
    coeffs.extend(Fraction(count_orientable_dags(n)) for n in range(1, order + 1))
    return ChromaticSeries(tuple(coeffs))


def _scaled_quotient(order: int) -> list[int]:
    """W_0 .. W_order with W_n = 2^n V_n, from

        W_n = (-1)^(n+1) 2^n - sum_{0<k<n} (-1)^(n-k) C(n,k) 2^(k(n-k)) W_k.

    Terms k and n - k share C(n,k), the shift and the sign (-1)^(n-k): the
    pair W_k + (-1)^n W_(n-k) takes the binomial once, and the pairs are
    summed in Horner order, k falling from n/2.
    """
    scaled = [0]
    for n in range(1, order + 1):
        odd = n % 2
        mid = n // 2
        c = math.comb(n, mid)
        total = 0
        prev = mid * (n - mid)
        for k in range(mid, 0, -1):
            mirror = n - k
            w = scaled[k]
            if k < mirror:
                w = w - scaled[mirror] if odd else w + scaled[mirror]
            shift = k * mirror
            if mirror % 2:
                total = (total << (prev - shift)) - c * w
            else:
                total = (total << (prev - shift)) + c * w
            prev = shift
            c = c * k // (mirror + 1)
        forcing = 1 << n if odd else -(1 << n)
        scaled.append(forcing - (total << prev))
    return scaled


def orientable_from_quotient(order: int) -> ChromaticSeries:
    """Solve V(x) * E(-x/2) = 1 - E(-x) for V, coefficient by coefficient.

    The divisor's coefficients are (-1/2)^j, so W_n = 2^n V_n obeys an
    integer recurrence (:func:`_scaled_quotient`), and V_n is W_n / 2^n: a
    shift when 2^n divides W_n, else a proper fraction.  The solve never
    consults the orientable counting formula, so it is an independent
    route to the same integers.
    """
    _check_order(order)
    return ChromaticSeries(tuple(
        Fraction(w >> n) if w & ((1 << n) - 1) == 0 else Fraction(w, 1 << n)
        for n, w in enumerate(_scaled_quotient(order))
    ))


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one coefficientwise identity comparison."""

    name: str
    order: int
    passed: bool
    first_failure: int | None


def verify_identities(order: int) -> list[IdentityCheck]:
    """Check both product identities exactly up to the given order.

    A failure indicts the closed-form counters of :mod:`cubecovers.counting`
    or the convolution rule; failures are reported, not raised.

    Both identities are checked in integers, the second multiplied through
    by 2^n, coefficient n of each reading

        alternating-inverse:
            sum_k (-1)^k C(n,k) 2^(k(n-k)) D(n-k) = [n == 0],
        half-argument-decomposition:
            sum_k (-1)^(n-k) C(n,k) 2^((k+1)(n-k)) D(k) + 2^n V(n) = D(n),

    with V(0) = 0.  One pass over k <= n/2 serves both: it forms
    P = C(n,k) D(k) and Q = C(n,k) D(n-k) once, and terms k and n - k pair
    up as P +- Q and (P << (n-2k)) +- Q, the sign (-1)^n.  Both residues
    run in Horner order, k falling from n/2: ``alt`` moves by
    s_(k+1) - s_k, s_k = k(n-k), and ``half`` by one more, as its terms
    carry a further << k.

    ``alternating-inverse`` checks D; ``half-argument-decomposition``
    checks V's arithmetic given D, not D (see :mod:`cubecovers.checks`).
    """
    _check_order(order)
    dags = [count_dags(n) for n in range(order + 1)]
    orientable = [0] + [count_orientable_dags(n) for n in range(1, order + 1)]
    alt_miss = half_miss = None
    for n in range(order + 1):
        odd = n % 2
        mid = n // 2
        c = math.comb(n, mid)
        alt = half = 0
        prev = mid * (n - mid)
        for k in range(mid, -1, -1):
            mirror = n - k
            p = c * dags[k]
            pair = half_pair = p  # k == mirror: the middle term alone
            if k < mirror:
                q = c * dags[mirror]
                if odd:
                    pair, half_pair = p - q, (p << (mirror - k)) - q
                else:
                    pair, half_pair = p + q, (p << (mirror - k)) + q
            shift = k * mirror
            step = prev - shift
            if mirror % 2:
                alt = (alt << step) - pair
                half = (half << (step + 1)) - half_pair
            else:
                alt = (alt << step) + pair
                half = (half << (step + 1)) + half_pair
            prev = shift
            c = c * k // (mirror + 1)
        if alt_miss is None and alt != (n == 0):
            alt_miss = n
        if half_miss is None and half + (orientable[n] << n) != dags[n]:
            half_miss = n
    return [
        IdentityCheck("alternating-inverse", order, alt_miss is None, alt_miss),
        IdentityCheck("half-argument-decomposition", order,
                      half_miss is None, half_miss),
    ]


def derivative_identity_first_failure(max_n: int) -> int | None:
    """Termwise check that E'(x) = E(x/2), in exact integers.

    Differentiating the n-th basis term of E gives the coefficient
    1 / ((n-1)! * 2^C(n,2)) on x^(n-1); halving the argument of the
    (n-1)-th term gives (1/2)^(n-1) / ((n-1)! * 2^C(n-1,2)).  These are
    equal because C(n,2) - C(n-1,2) = n - 1.  Both have numerator 1, so
    the check compares their denominators.  Returns the first n in
    ``1 .. max_n`` where they differ, or None.
    """
    _check_order(max_n)
    factorial = 1  # (n-1)!
    for n in range(1, max_n + 1):
        derived = factorial << (n * (n - 1) // 2)
        halved = (factorial << ((n - 1) * (n - 2) // 2)) << (n - 1)
        if derived != halved:
            return n
        factorial *= n
    return None
