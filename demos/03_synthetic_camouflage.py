#!/usr/bin/env python3
"""Generate a synthetic fraud graph with camouflage structure and inspect it.

Fraud nodes connect mostly to benign nodes (low fraud homophily), which is
exactly the regime the dual-channel model is built for.
"""

import numpy as np

from dualmp import SyntheticSpec, generate_synthetic

spec = SyntheticSpec(
    num_nodes=2000,
    fraud_ratio=0.1,
    num_relations=2,
    mean_degree=8.0,
    fraud_homophily=0.3,   # 70% of a fraudster's edges point at benign users
    benign_homophily=0.9,
    feature_dim=16,
    separation=1.5,
    noise=1.0,
    seed=42,
)
graph = generate_synthetic(spec)

print(f"nodes: {graph.num_nodes}, fraud: {(graph.labels == 1).sum()}")
print(f"splits: train {len(graph.split.train)}, val {len(graph.split.val)}, test {len(graph.split.test)}")

for rel in graph.relations:
    src, tgt = rel.edge_sources, rel.targets
    same = graph.labels[src] == graph.labels[tgt]
    from_fraud = graph.labels[src] == 1
    print(f"\nrelation {rel.name}: {rel.edge_count} edges")
    print(f"  homophily of fraud-sourced edges:  {same[from_fraud].mean():.3f}")
    print(f"  homophily of benign-sourced edges: {same[~from_fraud].mean():.3f}")
    deg = rel.degrees()
    print(f"  mean degree: fraud {deg[graph.labels == 1].mean():.1f}, benign {deg[graph.labels == 0].mean():.1f}")

# Feature separation: distance between class means vs the requested value.
mu_fraud = graph.features[graph.labels == 1].mean(axis=0)
mu_benign = graph.features[graph.labels == 0].mean(axis=0)
print(f"\nclass-mean distance: {np.linalg.norm(mu_fraud - mu_benign):.3f} (requested {spec.separation})")
