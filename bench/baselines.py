"""Reference baselines that show where the model's test AUC stands.

Class-weighted logistic regression (Newton's method, small L2 penalty) on
the raw node features, and the same with each node's out-neighbour mean
features added per relation. Both are fitted on the train split and scored
on the test split with the pairwise AUC of ``checks``; none of this uses
the program's model, training or metrics.

Usage, from the root of the repository: ``python3 bench/baselines.py``
prints both baselines on the a4-train fixture for seeds 0 to 9.
"""

from __future__ import annotations

import sys

import numpy as np

from checks import mann_whitney_auc

L2 = 1e-4


def fit_logistic(x: np.ndarray, y: np.ndarray, sample_weight: np.ndarray, iterations: int = 100) -> np.ndarray:
    """Weighted L2-penalised logistic regression; returns coefficients with the bias last."""
    design = np.hstack([x, np.ones((len(x), 1))])
    beta = np.zeros(design.shape[1])
    penalty = np.full(design.shape[1], L2)
    penalty[-1] = 0.0
    for _ in range(iterations):
        p = 1.0 / (1.0 + np.exp(-(design @ beta)))
        grad = design.T @ (sample_weight * (p - y)) + penalty * beta
        hess = design.T @ (design * (sample_weight * p * (1.0 - p))[:, None]) + np.diag(penalty)
        step = np.linalg.solve(hess, grad)
        beta -= step
        if np.max(np.abs(step)) < 1e-10:
            break
    return beta


def neighbour_means(features: np.ndarray, offsets: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Mean of each node's out-neighbours' features; zeros for nodes without neighbours."""
    degree = np.diff(offsets)
    src = np.repeat(np.arange(len(degree)), degree)
    sums = np.stack([np.bincount(src, weights=features[targets, c], minlength=len(degree)) for c in range(features.shape[1])], axis=1)
    return sums / np.maximum(degree, 1)[:, None]


def test_auc(x: np.ndarray, labels: np.ndarray, train: np.ndarray, test: np.ndarray) -> float:
    mean = x[train].mean(axis=0)
    std = x[train].std(axis=0)
    z = (x - mean) / np.where(std > 0, std, 1.0)
    y = labels[train].astype(np.float64)
    class_weight = len(y) / (2.0 * np.array([np.sum(y == 0), np.sum(y == 1)]))
    beta = fit_logistic(z[train], y, class_weight[labels[train]])
    scores = np.hstack([z, np.ones((len(z), 1))]) @ beta
    return mann_whitney_auc(scores[test], labels[test])


def baseline_aucs(spec) -> dict[str, float]:
    """Test AUC of both baselines on the graph the spec generates."""
    from dualmp import data

    graph = data.generate_synthetic(spec)
    x = graph.features
    with_means = np.hstack([x] + [neighbour_means(x, r.offsets, r.targets) for r in graph.relations])
    train = np.asarray(graph.split.train)
    test = np.asarray(graph.split.test)
    return {
        "logreg_features": test_auc(x, graph.labels, train, test),
        "logreg_features_neighbour_mean": test_auc(with_means, graph.labels, train, test),
    }


def main() -> int:
    import run

    run.import_program()
    import harness

    workload = harness.WORKLOADS["a4-train"]
    rows = [baseline_aucs(workload.synthetic_spec(seed)) for seed in range(10)]
    for seed, row in enumerate(rows):
        print(f"seed {seed}: " + ", ".join(f"{k} {v:.4f}" for k, v in row.items()))
    for key in rows[0]:
        values = [row[key] for row in rows]
        print(f"{key}: mean {np.mean(values):.4f} over seeds 0-9, mean {np.mean(values[:5]):.4f} over seeds 0-4")
    return 0


if __name__ == "__main__":
    sys.exit(main())
