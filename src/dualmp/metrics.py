"""Evaluation metrics for imbalanced binary classification.

AUC through the rank (Mann-Whitney) statistic with average ranks on ties;
recall, macro F1 and the geometric mean of the two class rates from the
confusion matrix at the 0.5 threshold. The scorers take one node set's
scores and labels as aligned 1-D arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class MetricsReport:
    auc: float
    recall: float
    f1_macro: float
    gmean: float
    tp: int
    fp: int
    tn: int
    fn: int

    def as_dict(self) -> dict:
        return asdict(self)


def tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average of their rank range."""
    values = np.asarray(values, dtype=np.float64)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    average = upper - (counts - 1) / 2.0
    return average[inverse]


def roc_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative (ties count half).

    Returns NaN with a warning when only one class is present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    num_pos = int(pos.sum())
    num_neg = len(labels) - num_pos
    if num_pos == 0 or num_neg == 0:
        warnings.warn("AUC undefined on a single-class node set", stacklevel=2)
        return float("nan")
    ranks = tied_ranks(scores)
    return (ranks[pos].sum() - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg)


def _f1(tp: int, fp: int, fn: int) -> float:
    # no true and no predicted members: vacuous class, scored 1 by convention
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def _aligned(fraud_scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Scores as float64 and labels, checked to be non-empty 1-D arrays of one length."""
    s, y = np.asarray(fraud_scores, dtype=np.float64), np.asarray(labels)
    if s.ndim != 1 or s.shape != y.shape:
        raise ValueError(f"scores of shape {s.shape} and labels of shape {y.shape} are not aligned 1-D arrays")
    if s.size == 0:
        raise ValueError("cannot evaluate an empty node set")
    return s, y


def evaluate(fraud_scores, labels) -> MetricsReport:
    """Score fraud probabilities against labels, row by row.

    Hard predictions take the argmax of (benign, fraud) probability, which
    predicts fraud only when the score strictly exceeds 0.5. Raises
    ``ValueError`` unless both are non-empty 1-D arrays of one length.
    """
    s, y = _aligned(fraud_scores, labels)
    pred = s > 0.5
    actual = y == 1
    tp = int((pred & actual).sum())
    fp = int((pred & ~actual).sum())
    fn = int((~pred & actual).sum())
    tn = int((~pred & ~actual).sum())

    recall = tp / (tp + fn) if tp + fn else 0.0
    tnr = tn / (tn + fp) if tn + fp else 0.0
    f1_fraud = _f1(tp, fp, fn)
    f1_benign = _f1(tn, fn, fp)

    return MetricsReport(
        auc=roc_auc(s, y),
        recall=recall,
        f1_macro=(f1_fraud + f1_benign) / 2.0,
        gmean=float(np.sqrt(recall * tnr)),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


def accuracy(fraud_scores, labels) -> float:
    s, y = _aligned(fraud_scores, labels)
    return float(((s > 0.5) == (y == 1)).mean())
