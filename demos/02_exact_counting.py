#!/usr/bin/env python3
"""Exact counts, and the brute force that keeps them honest.

The number of small covers over the n-cube up to Davis-Januszkiewicz
equivalence equals the number of labeled acyclic digraphs, computed here by
Robinson's alternating recurrence.  The orientable covers are counted by
the analogous alternating sum with one factor of two fewer per chosen
vertex.  Both formulas are cross-checked below against literal enumeration
of every digraph for n up to 5 (about a million graphs).
"""

from cubecovers import brute_counts, count_dags, count_orientable_dags, sequence_table

print("exact table, n = 0 .. 10")
print(f"{'n':>3} {'covers':>22} {'orientable':>14}")
for n, dags, orientable in sequence_table(10):
    print(f"{n:>3} {dags:>22} {orientable:>14}")

print("\nbrute-force cross-check (every digraph, decoded and tested)")
for n in range(6):
    got = brute_counts(n)
    ok = got.dags == count_dags(n) and got.orientable == count_orientable_dags(n)
    print(
        f"  n={n}: {1 << (n * (n - 1)):>9} graphs -> "
        f"{got.dags:>6} acyclic, {got.orientable:>5} orientable "
        f"{'agree' if ok else 'MISMATCH'}"
    )

# The counts are exact arbitrary-precision integers; they leave 64-bit
# range near n = 11 and keep going.
print("\ncovers over the 15-cube:", count_dags(15))
print("orientable among them:  ", count_orientable_dags(15))
print("orientable fraction:    ", count_orientable_dags(15) / count_dags(15))
