"""Dual-channel message passing with degree-rescaled residual aggregation.

Both channels share one spectral filter: the smoothing channel transforms
neighbors with W, the contrast channel with I - W, so the two transforms
partition the identity. Each channel mixes the neighbor's original features
back in through a weighted residual gate, then neighbors are summed into the
anchor with coefficient 1 / sqrt(1 + d_u * d_v) and added onto the anchor's
own embedding. A fusion layer combines the two channel outputs and their
difference.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import TensorValue
from .graphs import RelationAdjacency


def channel_messages(
    h: TensorValue,
    filter_w: TensorValue,
    gate_w: TensorValue,
    filter_b: TensorValue,
    gate_b: TensorValue,
    residual_mix: float,
    complement: bool = False,
) -> TensorValue:
    """Per-node outgoing message for one channel.

    The smoothing channel (``complement=False``) filters with W and, as
    specified, applies no activation after the filter; the contrast channel
    filters with I - W and applies ReLU. The gate then computes
    LeakyReLU(W_gate (mix * h + filtered) + b).
    """
    if complement:
        eye = ad.tensor(np.eye(filter_w.shape[0]))
        filtered = ad.matmul(h, ad.sub(eye, filter_w))
    else:
        filtered = ad.matmul(h, filter_w)
    filtered = ad.add_bias(filtered, filter_b)
    if complement:
        filtered = ad.relu(filtered)
    gated = ad.matmul(ad.add(ad.scale(h, residual_mix), filtered), gate_w)
    return ad.leaky_relu(ad.add_bias(gated, gate_b))


def rescale_coefficients(subgraph: RelationAdjacency) -> np.ndarray:
    """1 / sqrt(1 + d_u * d_v) per edge, with degrees taken inside the subgraph."""
    deg = subgraph.degrees().astype(np.float64)
    src = subgraph.edge_sources()
    return 1.0 / np.sqrt(1.0 + deg[src] * deg[subgraph.targets])


def residual_aggregate(h: TensorValue, node_messages: TensorValue, subgraph: RelationAdjacency) -> TensorValue:
    """z_u = h_u + sum over neighbors v of message_v / sqrt(1 + d_u * d_v).

    Messages depend only on the sending node, so they are computed once per
    node and gathered per edge. Nodes with no neighbors in the subgraph keep
    exactly their own embedding.
    """
    if subgraph.edge_count == 0:
        return h
    gathered = ad.gather_rows(node_messages, subgraph.targets)
    summed = ad.segment_weighted_sum(
        gathered, subgraph.edge_sources(), rescale_coefficients(subgraph), subgraph.num_nodes
    )
    return ad.add(h, summed)


def frequency_fuse(
    z_smooth: TensorValue,
    z_contrast: TensorValue,
    fuse_w: TensorValue,
    fuse_b: TensorValue,
    norm_gain: TensorValue,
    norm_bias: TensorValue,
) -> TensorValue:
    """LayerNorm(LeakyReLU(W [z+ || z- || z+ - z-] + b)): one per-node embedding from both channels."""
    blocks = ad.concat_cols([z_smooth, z_contrast, ad.sub(z_smooth, z_contrast)])
    pre = ad.leaky_relu(ad.add_bias(ad.matmul(blocks, fuse_w), fuse_b))
    return ad.layer_norm(pre, norm_gain, norm_bias, eps=1e-5)
