"""Edge-sign prediction: score every edge as homophilic or heterophilic.

A shared feature projection feeds a per-edge scorer built from the two
endpoint embeddings and their difference. Scores live in (-1, 1); negative
means the edge is predicted to join same-label endpoints. A hinge-style
loss on labeled training edges teaches the scorer.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import TensorValue


def project_features(
    x: TensorValue,
    proj_w: TensorValue,
    proj_b: TensorValue,
    dropout_rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> TensorValue:
    """ReLU(x @ proj_w + proj_b), with dropout in training mode.

    This projection is the single shared entry point: the same output feeds
    the edge scorer and both propagation channels, dropout mask included, so
    the per-epoch edge partition inherits the mask's jitter (which acts as a
    mild edge-dropout regularizer).
    """
    h = ad.relu(ad.add_bias(ad.matmul(x, proj_w), proj_b))
    return ad.dropout(h, dropout_rate, training=training, rng=rng)


# The one scorer formula. The two public scorers both call it rather than each
# other, so a profiler that wraps them by name times each on its own.
def _score(h: TensorValue, sources, targets, edge_w: TensorValue) -> TensorValue:
    hu = ad.gather_rows(h, sources)
    hv = ad.gather_rows(h, targets)
    blocks = ad.concat_cols([hu, hv, ad.sub(hu, hv)])
    return ad.tanh(ad.matmul(blocks, edge_w))


def edge_scores(h: TensorValue, sources, targets, edge_w: TensorValue) -> TensorValue:
    """tanh(W [h_u || h_v || h_u - h_v]) for each edge (u, v); shape (E, 1)."""
    return _score(h, sources, targets, edge_w)


def edge_score_values(h: np.ndarray, sources, targets, edge_w: np.ndarray) -> np.ndarray:
    """:func:`edge_scores` of plain arrays as a flat array; constant inputs record no tape."""
    return _score(ad.tensor(h), sources, targets, ad.tensor(edge_w)).data.reshape(-1)


def edge_label_signs(sources, targets, labels, train_mask) -> tuple[np.ndarray, np.ndarray]:
    """Label edges whose endpoints are both in the train split.

    Returns (edge positions, sign labels): -1 where the endpoints share a
    label, +1 where they differ. Edges touching any node outside the train
    split are excluded, so no val/test label is ever read.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    usable = train_mask[sources] & train_mask[targets]
    positions = np.flatnonzero(usable)
    signs = np.where(labels[sources[positions]] == labels[targets[positions]], -1.0, 1.0)
    return positions, signs


def heterophily_loss(scores: TensorValue, sign_labels) -> TensorValue:
    """Mean hinge max(1 - score * sign, 0) over a batch of labeled edges.

    An empty batch is degenerate and contributes 0 (with a warning).
    """
    signs = np.asarray(sign_labels, dtype=np.float64).reshape(-1, 1)
    if signs.size == 0:
        warnings.warn("heterophily loss over an empty edge batch, treating as 0", stacklevel=2)
        return ad.tensor(0.0)
    if scores.shape != signs.shape:
        raise ValueError(f"{scores.shape[0]} scores for {signs.shape[0]} edge labels")
    margins = ad.add_const(ad.scale(ad.mul_const(scores, signs), -1.0), 1.0)
    return ad.mean_all(ad.relu(margins))
