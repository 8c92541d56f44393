#!/usr/bin/env python3
"""A tour of the graph/matrix dictionary.

Small covers over the 4-cube correspond to labeled acyclic digraphs on 4
vertices.  This script walks one hand-checked example through the whole
dictionary: graph -> matrix, matrix -> graph, membership test, and the
orientability criterion on both sides.
"""

from cubecovers import (
    BitMatrix,
    Digraph,
    characteristic_matrix,
    digraph_from_characteristic,
    is_acyclic_dfs,
)

# Five edges on four vertices, acyclic by inspection.
graph = Digraph.from_edges(4, [(0, 3), (1, 0), (1, 2), (1, 3), (3, 2)])
print("graph edges:", graph.edges())
print("out-degrees:", [graph.out_degree(v) for v in range(4)])
print("in-degrees: ", [graph.in_degree(v) for v in range(4)])
print("acyclic?", is_acyclic_dfs(graph))

# The dictionary sends a digraph to the transpose of its adjacency matrix
# plus the identity, over GF(2).
matrix = characteristic_matrix(graph)
print("\ncharacteristic matrix:")
print(matrix.to_text())

# The image of an acyclic digraph always has every principal minor equal
# to 1; that is exactly the non-singularity condition for a small cover
# over the cube.
print("\nall principal minors 1?", matrix.has_unit_principal_minors())
print("determinant:", matrix.det())
print("minor on rows/cols {0, 3}:", matrix.principal_minor([0, 3]))

# Orientability reads off either side: every column sum odd on the matrix
# side, every out-degree even on the graph side.  Vertex 1 has out-degree
# 3 here, so this cover is not orientable.
print("\ncolumn sums:", matrix.column_sums())
print("orientable (matrix test)?", matrix.has_odd_column_sums())
print("orientable (graph test)? ", graph.all_out_degrees_even())

# The map inverts exactly.
back = digraph_from_characteristic(matrix)
print("\nround trip recovers the graph?", back == graph)

# A cyclic graph maps to a matrix that fails the minors test.
cyclic = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
image = characteristic_matrix(cyclic)
print("\n3-cycle image:")
print(image.to_text())
print("all principal minors 1?", image.has_unit_principal_minors())

# And the identity matrix corresponds to the empty graph.
print("\nidentity pulls back to:", digraph_from_characteristic(BitMatrix.identity(3)).edges())
