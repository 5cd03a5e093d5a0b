"""Whole-graph aggregation through the row-wise primitive, for tests that score every node."""

import numpy as np

import dualmp.autodiff as ad
from dualmp.propagation import batch_adjacency, residual_aggregate


def whole_graph_aggregate(h, node_messages, subgraph):
    """The aggregate of all N nodes from one message per node.

    The rows are ``np.arange(N)``, and the messages are gathered at the
    senders those rows read, as the model does for a whole-graph pass.
    """
    batch = batch_adjacency(subgraph, np.arange(subgraph.num_nodes))
    return residual_aggregate(h, ad.gather_rows(node_messages, batch.senders), batch)
