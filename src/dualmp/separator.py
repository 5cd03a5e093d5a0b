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


# With edge_w split into blocks [W_u; W_v; W_d], W [h_u || h_v || h_u - h_v]
# equals (h (W_u + W_d))_u + (h (W_v - W_d))_v, so the products run once per
# node and each edge only gathers and adds two scalars. The taped and the
# detached scorer both run this sequence of operations, so the detached
# pre-activation is bit for bit the one the taped score takes tanh of.
def _check_edge_weight(d: int, edge_w_rows: int) -> None:
    if edge_w_rows != 3 * d:
        raise ValueError(f"edge weight has {edge_w_rows} rows, the scorer needs 3 * {d}")


def edge_scores(h: TensorValue, sources, targets, edge_w: TensorValue) -> TensorValue:
    """tanh(W [h_u || h_v || h_u - h_v]) for each edge (u, v); shape (E, 1)."""
    _check_edge_weight(h.shape[1], edge_w.shape[0])
    w_u, w_v, w_d = ad.row_blocks(edge_w, 3)
    from_source = ad.matmul(h, ad.add(w_u, w_d))
    from_target = ad.matmul(h, ad.sub(w_v, w_d))
    return ad.tanh(ad.add(ad.gather_rows(from_source, sources), ad.gather_rows(from_target, targets)))


def edge_score_values(h: np.ndarray, sources, targets, edge_w: np.ndarray) -> np.ndarray:
    """The pre-activation W [h_u || h_v || h_u - h_v] of :func:`edge_scores`, flat, in plain numpy.

    The partition reads only a score's side of 0, and tanh keeps every
    input on its side: ±0 stay ±0, ±inf go to ±1 and NaN stays NaN, so
    ``edge_score_values(...) >= 0`` equals ``edge_scores(...) >= 0``
    without the tanh or a tape.
    """
    _check_edge_weight(h.shape[1], edge_w.shape[0])
    w_u, w_v, w_d = np.split(edge_w, 3)
    from_source = (h @ (w_u + w_d)).reshape(-1)
    from_target = (h @ (w_v - w_d)).reshape(-1)
    return from_source[sources] + from_target[targets]


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
    margins = ad.add_const(ad.mul_const(scores, -signs), 1.0)
    return ad.mean_all(ad.relu(margins))
