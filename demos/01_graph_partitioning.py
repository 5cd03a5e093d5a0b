#!/usr/bin/env python3
"""Build a small multi-relation graph and split it by per-edge sign scores.

Walks through the CSR storage, degree bookkeeping, and the homophilic /
heterophilic partition that the message-passing channels consume.
"""

import numpy as np

from dualmp import build_csr, partition_subgraphs

# A toy review graph: 6 users, directed "reviewed-same-product" edges.
edges = [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 3), (2, 3)]
adj = build_csr(edges, num_nodes=6, name="same-product")

print("CSR offsets:", adj.offsets.tolist())
print("CSR targets:", adj.targets.tolist())
print("out-degrees:", adj.degrees().tolist())
print("flattened back to pairs:", adj.edge_pairs().tolist())

# Undirected interpretation: add the reversed edges; build_csr drops the repeats.
sym = build_csr(edges + [(v, u) for u, v in edges], num_nodes=6, name="undirected")
print("\nsymmetrized edge count:", sym.edge_count, "(directed had", adj.edge_count, ")")

# Suppose a separator scored each edge in [-1, 1]: negative = same-class
# endpoints expected, non-negative = different-class. Scores are aligned
# with the CSR edge order shown above.
rng = np.random.default_rng(7)
scores = rng.uniform(-1, 1, size=adj.edge_count)
part = partition_subgraphs(adj, scores)

print("\nedge scores:", scores.round(2).tolist())
print("assigned heterophilic:", part.hetero_mask.tolist())
print("homophilic subgraph edges:", part.homo.edge_pairs().tolist())
print("heterophilic subgraph edges:", part.hetero.edge_pairs().tolist())

# The split never loses or duplicates an edge, and per-node degrees add up.
assert part.homo.edge_count + part.hetero.edge_count == adj.edge_count
assert (np.diff(part.homo_offsets) + np.diff(part.hetero_offsets) == adj.degrees()).all()
print("\npartition completeness and degree conservation hold")
