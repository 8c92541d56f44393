#!/usr/bin/env python3
"""Generating-function identities, verified coefficient by coefficient.

Both counting sequences live naturally in series with the basis
x^n / (n! * 2^C(n,2)).  Writing E for the all-ones series, D for the
series of DAG counts, and V for the orientable series, two exact
identities hold:

    E(-x) * D(x) = 1
    D(x/2) * E(-x) + V(x) = D(x/2)

Eliminating D expresses V as the quotient (1 - E(-x)) / E(-x/2), which is
solved below by forward substitution.  Everything is exact integer
arithmetic, so "verified to order N" means exactly that.
"""

import math

from cubecovers import (
    count_dags,
    count_orientable_dags,
    orientable_from_quotient,
    verify_identities,
)

ORDER = 16

print(f"checking both identities to order {ORDER}")
for check in verify_identities(ORDER):
    print(f"  {check.name}: {'pass' if check.passed else 'FAIL'}")

# The first identity, spelled out at n = 3.  On this basis the n-th
# coefficient of a product is sum_k C(n,k) 2^(k(n-k)) a_k b_(n-k), and
# E(-x) has a_k = (-1)^k, so every coefficient above the constant cancels.
n = 3
terms = [(-1) ** k * math.comb(n, k) * 2 ** (k * (n - k)) * count_dags(n - k)
         for k in range(n + 1)]
written = " + ".join(map(str, terms)).replace("+ -", "- ")
print(f"\nE(-x) * D(x) at n = {n}: {written} = {sum(terms)}")
assert sum(terms) == 0

# The quotient route never consults the orientable counting formula, yet
# it reproduces the same integers.
quotient = orientable_from_quotient(ORDER)
print("\nquotient coefficients (note the forced 0 at n = 0):")
print("  ", [str(c) for c in quotient.coeffs[:9]], "...")
for n in range(1, ORDER + 1):
    assert quotient.coefficient(n) == count_orientable_dags(n)
print("all agree with the inclusion-exclusion formula for n = 1 ..", ORDER)
