"""Dual-channel message passing with degree-rescaled residual aggregation.

Both channels share one spectral filter: the smoothing channel transforms
neighbors with W, the contrast channel with I - W, so the two transforms
partition the identity. Each channel mixes the neighbor's original features
back in through a weighted residual gate, then neighbors are summed into the
anchor with coefficient 1 / sqrt(1 + d_u * d_v) and added onto the anchor's
own embedding. A fusion layer combines the two channel outputs and their
difference.

Aggregation has one path: every pass names the rows it computes (a training
batch, the rows an evaluation reads, or ``np.arange(N)`` for the whole
graph), :func:`channel_adjacencies` cuts each channel's rescaled adjacency
down to those rows, straight from the relation and its edge partition, and
messages are computed only for the senders they read. A relation that is
not split (the ``sep`` ablation) is cut through a partition that puts every
edge on the homophilic side. Blocks index nodes by their numbers, so a pass
takes each consumer's rows straight from the projection: the rows for the
residual and the senders for the messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import autodiff as ad
from .autodiff import TensorValue
from .graphs import EdgePartition, RelationAdjacency


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
    gated = ad.matmul(ad.add(ad.mul_const(h, residual_mix), filtered), gate_w)
    return ad.leaky_relu(ad.add_bias(gated, gate_b))


@dataclass(frozen=True)
class BatchAdjacency:
    """The rows of a subgraph's rescaled adjacency that a set of rows reads.

    ``matrix`` has one row per row of the pass, in its order, and one column
    per sender: column k holds the coefficients of node ``senders[k]``. A
    whole-graph pass takes the rows ``np.arange(N)``.
    """

    senders: np.ndarray  # sorted distinct neighbors of the rows in the subgraph, as node numbers
    matrix: sparse.csr_array  # (len(rows), len(senders))


def _cut(rows: np.ndarray, counts: np.ndarray, neighbors: np.ndarray, degrees: np.ndarray) -> BatchAdjacency:
    """The block whose rows hold ``counts`` entries each, reading ``neighbors`` row after row.

    The senders are the sorted distinct neighbors, and a neighbor's column
    is its place among them. A length-N presence mask and its running count
    give both without sorting; the count is only meaningful at the nodes
    present. The senders and the matrix's arrays are made read-only, since
    the model keeps a block between passes.
    """
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    present = np.zeros(len(degrees), dtype=bool)
    present[neighbors] = True
    senders = np.flatnonzero(present)
    columns = (np.cumsum(present) - 1)[neighbors]
    deg = degrees.astype(np.float64)
    coefficients = 1.0 / np.sqrt(1.0 + np.repeat(deg[rows], counts) * deg[neighbors])
    matrix = sparse.csr_array((coefficients, columns, offsets), shape=(len(rows), len(senders)))
    for array in (senders, matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return BatchAdjacency(senders=senders, matrix=matrix)


def channel_adjacencies(
    relation: RelationAdjacency, partition: EdgePartition, rows, channels
) -> dict[str, BatchAdjacency]:
    """The block for ``rows`` of each of ``channels``, cut straight from the relation.

    ``"smooth"`` reads the homophilic side and ``"contrast"`` the
    heterophilic one; a side no listed channel reads is not cut. Row u of a
    block holds 1 / sqrt(1 + d_u * d_v) for each neighbor v on its side,
    with degrees counted on that side, and keeps its entries in storage
    order, so a row of the aggregate comes out bit for bit the same whichever
    other rows are cut with it. No side is built as a view: the storage
    positions of the rows' edges are found once in the relation, the
    partition's mask taken there splits their neighbors, and each side's
    degrees come from the partition's running counts. ``rows`` is int64 and
    unchecked: callers read it through :func:`graphs.node_index`.
    """
    offsets = relation.offsets
    counts = offsets[rows + 1] - offsets[rows]
    starts = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    positions = np.repeat(offsets[rows] - starts[:-1], counts) + np.arange(starts[-1])
    neighbors = relation.targets[positions]
    hetero_at = partition.hetero_mask[positions]
    sides = {"smooth": (partition.homo_degrees, ~hetero_at), "contrast": (partition.hetero_degrees, hetero_at)}
    blocks = {}
    for channel in channels:
        degrees, side = sides[channel]
        blocks[channel] = _cut(rows, degrees[rows], neighbors[side], degrees)
    return blocks


def residual_aggregate(h_rows: TensorValue, sender_messages: TensorValue, batch: BatchAdjacency) -> TensorValue:
    """z_u = h_u + sum over neighbors v of message_v / sqrt(1 + d_u * d_v), for each row u of the pass.

    Messages depend only on the sending node, so they are computed once per
    sender and summed through the batch's rescaled adjacency rows.
    ``h_rows`` holds the pass's rows of the embedding, in its order, and
    ``sender_messages`` one row per sender, in the order of
    ``batch.senders``. A row with no neighbors in the subgraph keeps its own
    embedding.
    """
    return ad.add(h_rows, ad.sparse_matmul(batch.matrix, sender_messages))


def frequency_fuse(
    z_smooth: TensorValue,
    z_contrast: TensorValue,
    fuse_w: TensorValue,
    fuse_b: TensorValue,
    norm_gain: TensorValue,
    norm_bias: TensorValue,
) -> TensorValue:
    """LayerNorm(LeakyReLU(W [z+ || z- || z+ - z-] + b)): one per-node embedding from both channels.

    With W's row blocks [W_1; W_2; W_3] the product is z+ (W_1 + W_3) + z- (W_2 - W_3).
    """
    w_smooth, w_contrast, w_diff = ad.row_blocks(fuse_w, 3)
    from_smooth = ad.matmul(z_smooth, ad.add(w_smooth, w_diff))
    from_contrast = ad.matmul(z_contrast, ad.sub(w_contrast, w_diff))
    pre = ad.leaky_relu(ad.add_bias(ad.add(from_smooth, from_contrast), fuse_b))
    return ad.layer_norm(pre, norm_gain, norm_bias)
