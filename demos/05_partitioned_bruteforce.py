#!/usr/bin/env python3
"""Deterministic brute-force counting under partitioning.

Every digraph on n vertices has a canonical integer code (its off-diagonal
adjacency bits, row major), so "count them all" means "walk an integer
range".  The range can be cut anywhere: each slice is counted as the codes
below its end less those below its start, a pure function of its bounds,
and the partial counts add up to the same totals no matter how the work is
split or scheduled.  The library's ``brute_counts(n, jobs=k)`` cuts the
range into k equal slices the same way and counts them in worker
processes, which is slower than one job: each worker starts its own
process and fills its own memo of reach states.
"""

import time

from cubecovers import brute_counts

N = 5
SPAN = 1 << (N * (N - 1))
print(f"counting all {SPAN} digraphs on {N} vertices\n")

started = time.time()
whole = brute_counts(N)
print(f"one pass:          {whole.dags} acyclic / {whole.orientable} orientable "
      f"[{time.time() - started:.2f}s]")

# A deliberately lopsided four-way split of the code range.
cuts = [0, SPAN // 10, SPAN // 3, SPAN - 12345, SPAN]
started = time.time()
pieces = [brute_counts(N, start=a, stop=b) for a, b in zip(cuts, cuts[1:])]
summed = (sum(p.dags for p in pieces), sum(p.orientable for p in pieces))
print(f"lopsided 4-way:    {summed[0]} acyclic / {summed[1]} orientable "
      f"[{time.time() - started:.2f}s]")

started = time.time()
parallel = brute_counts(N, jobs=4)
print(f"jobs=4:            {parallel.dags} acyclic / {parallel.orientable} orientable "
      f"[{time.time() - started:.2f}s]")

assert whole == parallel
assert (whole.dags, whole.orientable) == summed
print("\nall three routes agree exactly")

# The per-slice counts themselves are reproducible, which makes long runs
# resumable: rerunning any slice gives the same pair back.
again = brute_counts(N, start=cuts[1], stop=cuts[2])
assert again == pieces[1]
print("slice recount reproduces:", again)
