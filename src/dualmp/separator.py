"""Edge-sign prediction: score every edge as homophilic or heterophilic.

A shared feature projection feeds a per-edge scorer built from the two
endpoint embeddings and their difference. Scores live in (-1, 1); negative
means the edge is predicted to join same-label endpoints. A hinge-style
loss on labeled training edges teaches the scorer; the partition reads only
the sign, which the detached pre-activation already has.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import TensorValue


def dropout_factor(shape, rate: float, training: bool, rng: np.random.Generator | None = None) -> np.ndarray | None:
    """The inverted-dropout factor over ``shape``: 0 where an entry drops, 1 / (1 - rate) where it survives.

    None, and no draw from ``rng``, outside training or at rate 0. The keep
    mask is ``rng.random(shape) >= rate``.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def project_features(x: np.ndarray, proj_w: np.ndarray, proj_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ReLU(x @ proj_w + proj_b), and where x @ proj_w + proj_b >= 0, the entries relu's backward passes.

    Both are read-only, since the model keeps them. The same output feeds
    the edge scorer and both propagation channels, a training pass's
    dropout factor included, so the per-epoch edge partition inherits the
    mask's jitter (a mild edge-dropout regularizer).
    """
    pre = x @ proj_w + proj_b
    h, active = np.maximum(pre, 0.0), pre >= 0
    h.flags.writeable = active.flags.writeable = False
    return h, active


# With edge_w split into blocks [W_u; W_v; W_d], W [h_u || h_v || h_u - h_v]
# equals h_u (W_u + W_d) + h_v (W_v - W_d): two per-row products, read at each
# edge's ends. The split's products run over all N nodes, the hinge's over its
# batch's distinct endpoints; a width-1 product goes through gemv, whose rows
# on a subset can round differently from the whole-graph rows (on OpenBLAS
# 0.3.31, for (k, 8) @ (8, 1), in about half of random cuts), so the two
# pre-activations agree to rounding, not bit for bit.
def _pre_activation(h: TensorValue, sources, targets, edge_w: TensorValue) -> TensorValue:
    """W [h_u || h_v || h_u - h_v] for each edge (u, v) = (h's row at sources, at targets); shape (E, 1)."""
    if edge_w.shape[0] != 3 * h.shape[1]:
        raise ValueError(f"edge weight has {edge_w.shape[0]} rows, the scorer needs 3 * {h.shape[1]}")
    w_u, w_v, w_d = ad.row_blocks(edge_w, 3)
    from_source = ad.matmul(h, ad.add(w_u, w_d))
    from_target = ad.matmul(h, ad.sub(w_v, w_d))
    return ad.add(ad.gather_rows(from_source, sources), ad.gather_rows(from_target, targets))


def edge_scores(h: TensorValue, sources, targets, edge_w: TensorValue) -> TensorValue:
    """tanh(W [h_u || h_v || h_u - h_v]) for each edge, its ends read at rows ``sources`` and ``targets`` of h."""
    return ad.tanh(_pre_activation(h, sources, targets, edge_w))


def edge_score_values(h: np.ndarray, sources, targets, edge_w: np.ndarray) -> np.ndarray:
    """The pre-activation of :func:`edge_scores`, flat and untaped: all the split needs.

    The split reads only a score's side of 0, and tanh keeps every input on
    its side: ±0 stay ±0, ±inf go to ±1 and NaN stays NaN.
    """
    return _pre_activation(ad.tensor(h), sources, targets, ad.tensor(edge_w)).data.reshape(-1)


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

    An empty batch, drawn for a relation whose training edges lack one sign,
    gives the constant 0: no loss and no gradient.
    """
    signs = np.asarray(sign_labels, dtype=np.float64).reshape(-1, 1)
    if signs.size == 0:
        return ad.tensor(0.0)
    if scores.shape != signs.shape:
        raise ValueError(f"{scores.shape[0]} scores for {signs.shape[0]} edge labels")
    margins = ad.add_bias(ad.mul_const(scores, -signs), ad.tensor(1.0))
    return ad.mean_all(ad.relu(margins))
