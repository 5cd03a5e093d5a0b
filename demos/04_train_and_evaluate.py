#!/usr/bin/env python3
"""Train the full dual-channel model on a synthetic graph and evaluate it.

Covers the training loop (balanced sampling, joint loss, early stopping),
test-split metrics, and embedding export for external visualization.
"""

from pathlib import Path

import numpy as np

from dualmp import SyntheticSpec, TrainConfig, evaluate_split, fit, generate_synthetic
from dualmp.data import export_embeddings

graph = generate_synthetic(
    SyntheticSpec(
        num_nodes=1500, fraud_ratio=0.1, num_relations=2, mean_degree=8.0,
        fraud_homophily=0.3, benign_homophily=0.9, feature_dim=16,
        separation=1.5, noise=1.0, seed=1,
    )
)

config = TrainConfig(epochs=600, patience=100, seed=1)
result = fit(graph, config)

print(f"stopped after {len(result.log)} epochs; best validation AUC "
      f"{result.best_val_auc:.4f} at epoch {result.best_epoch}")

for record in result.log[:: max(1, len(result.log) // 8)]:
    print(f"  epoch {record['epoch']:4d}  loss {record['loss_total']:8.3f}  "
          f"val auc {record['val_auc']:.4f}")

report = evaluate_split(result.model, result.model.graph.split.test)
print("\ntest metrics:")
for key, value in report.as_dict().items():
    print(f"  {key}: {value:.4f}" if isinstance(value, float) else f"  {key}: {value}")

out = Path("embeddings.csv")
final = result.model.forward(training=False)
export_embeddings(np.hstack([z.data for z in final.embeddings]), result.model.graph.labels, out)
print(f"\nfused per-node embeddings written to {out.resolve()}")
