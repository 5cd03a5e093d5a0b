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

from dataclasses import dataclass

import numpy as np
from scipy import sparse

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
    filtered = ad.matmul(h, filter_w)
    if complement:
        # h (I - W) without building I
        filtered = ad.relu(ad.add_bias(ad.sub(h, filtered), filter_b))
    else:
        filtered = ad.add_bias(filtered, filter_b)
    gated = ad.matmul(ad.add(ad.scale(h, residual_mix), filtered), gate_w)
    return ad.leaky_relu(ad.add_bias(gated, gate_b))


def _rescale(source_degrees: np.ndarray, target_degrees: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(1.0 + source_degrees * target_degrees)


def rescale_coefficients(subgraph: RelationAdjacency) -> np.ndarray:
    """1 / sqrt(1 + d_u * d_v) per edge, with degrees taken inside the subgraph."""
    counts = subgraph.degrees()
    deg = counts.astype(np.float64)
    # the source degree of every edge, without building the source index
    return _rescale(np.repeat(deg, counts), deg[subgraph.targets])


@dataclass(frozen=True)
class BatchAdjacency:
    """The rows of a subgraph's rescaled adjacency that a node batch reads.

    ``matrix`` has one row per batch node, in batch order, and one column
    per sender: column k holds the coefficients of node ``senders[k]``.
    """

    rows: np.ndarray
    senders: np.ndarray  # sorted distinct neighbors of the rows in the subgraph
    matrix: sparse.csr_array  # (len(rows), len(senders))


def batch_adjacency(subgraph: RelationAdjacency, rows) -> BatchAdjacency:
    """Cut the rescaled adjacency down to ``rows`` and the senders they read.

    Each row keeps its stored entries in storage order and the coefficients
    of :func:`rescale_coefficients`, so the rows of the aggregate come out
    bit for bit as in the whole-graph product. The senders and their column
    numbers come from a length-N presence mask and its running count, which
    gives the arrays of ``np.unique(neighbors, return_inverse=True)``
    without sorting the neighbors.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = subgraph.num_nodes
    if rows.ndim != 1 or (rows.size and (rows.min() < 0 or rows.max() >= n)):
        raise ValueError(f"batch rows must be a flat index into {n} nodes")
    degrees = subgraph.degrees()
    counts = degrees[rows]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # storage positions of the rows' entries, the rows laid end to end
    positions = np.repeat(subgraph.offsets[rows] - offsets[:-1], counts) + np.arange(offsets[-1])
    neighbors = subgraph.targets[positions]
    present = np.zeros(n, dtype=bool)
    present[neighbors] = True
    senders = np.flatnonzero(present)
    columns = (np.cumsum(present) - 1)[neighbors]
    deg = degrees.astype(np.float64)
    coefficients = _rescale(np.repeat(deg[rows], counts), deg[neighbors])
    matrix = sparse.csr_array((coefficients, columns, offsets), shape=(len(rows), len(senders)))
    return BatchAdjacency(rows=rows, senders=senders, matrix=matrix)


def residual_aggregate(
    h: TensorValue,
    node_messages: TensorValue,
    subgraph: RelationAdjacency,
    batch: BatchAdjacency | None = None,
) -> TensorValue:
    """z_u = h_u + sum over neighbors v of message_v / sqrt(1 + d_u * d_v).

    Messages depend only on the sending node, so they are computed once per
    node and summed through the subgraph's rescaled adjacency matrix. Nodes
    with no neighbors in the subgraph keep exactly their own embedding.

    With ``batch`` (from :func:`batch_adjacency` of this subgraph), only the
    batch rows are produced, in batch order, and ``node_messages`` holds one
    row per sender, in the order of ``batch.senders``.
    """
    if batch is not None:
        return ad.add(ad.gather_rows(h, batch.rows), ad.sparse_matmul(batch.matrix, node_messages))
    if subgraph.edge_count == 0:
        return h
    n = subgraph.num_nodes
    adjacency = sparse.csr_array(
        (rescale_coefficients(subgraph), subgraph.targets, subgraph.offsets), shape=(n, n)
    )
    return ad.add(h, ad.sparse_matmul(adjacency, node_messages))


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
