"""An independent reference for the adjacency blocks the model cuts, and whole-graph aggregation through it.

The reference reads a relation only through ``edge_pairs()`` and builds each
block in plain numpy and scipy, so it shares no code with the cut in
:func:`dualmp.propagation.channel_adjacencies`.
"""

import numpy as np
from scipy import sparse

from dualmp.propagation import BatchAdjacency, residual_aggregate


def reference_block(subgraph, rows) -> BatchAdjacency:
    """The rows ``rows`` of the rescaled adjacency of ``subgraph``, built from its (src, dst) pairs.

    Row u holds 1 / sqrt(1 + d_u * d_v) for each pair (u, v), in storage
    order, with degrees counted over the pairs. The senders are the sorted
    distinct neighbors the rows read, and a neighbor's column is its place
    among them.
    """
    pairs = subgraph.edge_pairs()
    degrees = np.bincount(pairs[:, 0], minlength=subgraph.num_nodes).astype(np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    read = [pairs[pairs[:, 0] == u, 1] for u in rows]
    counts = np.array([len(r) for r in read], dtype=np.int64)
    neighbors = np.concatenate([np.empty(0, dtype=np.int64), *read])
    senders, columns = np.unique(neighbors, return_inverse=True)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    coefficients = 1.0 / np.sqrt(1.0 + np.repeat(degrees[rows], counts) * degrees[neighbors])
    matrix = sparse.csr_array((coefficients, columns, indptr), shape=(len(rows), len(senders)))
    return BatchAdjacency(senders=senders, matrix=matrix)


def block_differences(block: BatchAdjacency, expected: BatchAdjacency) -> list[str]:
    """The parts in which two blocks differ: senders, shape, or the bytes of the matrix's arrays."""
    found = [] if np.array_equal(block.senders, expected.senders) else ["senders"]
    if block.matrix.shape != expected.matrix.shape:
        found.append("shape")
    for name in ("indices", "indptr", "data"):
        got, want = getattr(block.matrix, name), getattr(expected.matrix, name)
        if got.dtype != want.dtype or got.tobytes() != want.tobytes():
            found.append(name)
    return found


def whole_graph_aggregate(h, node_messages, subgraph):
    """The aggregate of all N nodes from one message per node, through the reference block.

    The rows are ``np.arange(N)``, so ``h`` holds them all. The block's
    columns are put back at their senders' node numbers, which keeps each
    row's entries and their order: the sums are those of a block over its
    senders' messages, and a gradient reaches every node's message.
    """
    n = subgraph.num_nodes
    block = reference_block(subgraph, np.arange(n))
    m = block.matrix
    by_node = sparse.csr_array((m.data, block.senders[m.indices], m.indptr), shape=(n, n))
    return residual_aggregate(h, node_messages, BatchAdjacency(senders=np.arange(n), matrix=by_node))
