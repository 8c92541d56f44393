"""Exact counting and enumeration of small covers over cubes.

Small covers over an n-cube (real Bott manifolds), taken up to
Davis-Januszkiewicz equivalence, correspond to labeled acyclic digraphs on
n vertices; the orientable ones correspond to the acyclic digraphs whose
out-degrees are all even.  This package makes that dictionary executable:

* :mod:`cubecovers.gf2` and :mod:`cubecovers.digraph` hold the two kinds of
  objects (GF(2) matrices with all unit principal minors, and labeled
  simple digraphs) with their membership tests and exhaustive enumeration.
* :mod:`cubecovers.correspondence` is the dictionary itself, plus the
  brute-force counters that anchor every formula.
* :mod:`cubecovers.counting` computes both counting sequences exactly, to
  any index, in arbitrary-precision integers.
* :mod:`cubecovers.series` proves the generating-function identities
  coefficientwise in exact integer arithmetic.
* :mod:`cubecovers.asymptotics` locates the dominant zero of the deformed
  exponential and evaluates the growth constants, including the orientable
  fraction estimate 1.2617.../2^n.
* :mod:`cubecovers.checks` ties each formula to its oracle, and
  :mod:`cubecovers.cli` exposes all of it as a command line tool.
"""

from cubecovers.asymptotics import (
    AsymptoticConstants,
    RootFindingError,
    compute_constants,
    deformed_exp,
    log_dag_estimate,
    log_orientable_estimate,
    ratio_estimate,
)
from cubecovers.correspondence import (
    DagCounts,
    brute_count_characteristic_matrices,
    brute_count_orientable_characteristic_matrices,
    brute_counts,
    characteristic_matrix,
    digraph_from_characteristic,
)
from cubecovers.counting import (
    count_dags,
    count_orientable_dags,
    sequence_table,
)
from cubecovers.digraph import Digraph, EnumerationCapExceeded, is_acyclic_dfs
from cubecovers.gf2 import BitMatrix
from cubecovers.series import (
    ChromaticSeries,
    IdentityCheck,
    orientable_from_quotient,
    verify_identities,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticConstants",
    "BitMatrix",
    "ChromaticSeries",
    "DagCounts",
    "Digraph",
    "EnumerationCapExceeded",
    "IdentityCheck",
    "RootFindingError",
    "brute_count_characteristic_matrices",
    "brute_count_orientable_characteristic_matrices",
    "brute_counts",
    "characteristic_matrix",
    "compute_constants",
    "count_dags",
    "count_orientable_dags",
    "deformed_exp",
    "digraph_from_characteristic",
    "is_acyclic_dfs",
    "log_dag_estimate",
    "log_orientable_estimate",
    "orientable_from_quotient",
    "ratio_estimate",
    "sequence_table",
    "verify_identities",
]
