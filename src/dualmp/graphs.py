"""Multi-relation graph storage: CSR adjacency, degrees, and signed edge partitions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


UNION_RELATION = "union"  # name of the relation that merge_relations builds


class GraphFormatError(ValueError):
    """An edge list or graph component violates the storage contract."""


@dataclass(frozen=True)
class RelationAdjacency:
    """CSR adjacency for a single relation.

    Out-neighbors of node ``u`` are ``targets[offsets[u]:offsets[u + 1]]``.
    Build through :func:`build_csr`, which validates indices, drops
    self-loops and deduplicates edges while preserving input order
    within each source node.
    """

    name: str
    offsets: np.ndarray
    targets: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.offsets) - 1

    @property
    def edge_count(self) -> int:
        return int(self.offsets[-1])

    def degrees(self) -> np.ndarray:
        """Out-degree of every node: offsets[u + 1] - offsets[u]."""
        return np.diff(self.offsets)

    @cached_property
    def edge_sources(self) -> np.ndarray:
        """Source index of every edge, aligned with ``targets``; built on first use, read-only."""
        sources = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees())
        sources.flags.writeable = False
        return sources

    def edge_pairs(self) -> np.ndarray:
        """Flatten back to an (E, 2) array of (src, dst) pairs in storage order."""
        return np.stack([self.edge_sources, self.targets], axis=1)


@dataclass(frozen=True)
class NodeSplit:
    """Disjoint train/val/test node sets, each read through :func:`node_index`; train must be non-empty."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def validate(self, num_nodes: int) -> None:
        seen = np.concatenate([node_index(p, num_nodes) for p in (self.train, self.val, self.test)])
        if len(self.train) == 0:
            raise GraphFormatError("train split is empty")
        if np.bincount(seen, minlength=num_nodes).max() > 1:
            raise GraphFormatError("train/val/test splits overlap")

    def train_mask(self, num_nodes: int) -> np.ndarray:
        mask = np.zeros(num_nodes, dtype=bool)
        mask[self.train] = True
        return mask


@dataclass(frozen=True)
class MultiRelationGraph:
    """One node set with features and binary labels, shared by R edge relations."""

    features: np.ndarray
    labels: np.ndarray
    relations: list[RelationAdjacency]
    split: NodeSplit

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def validate(self) -> None:
        n = self.num_nodes
        if self.labels.shape != (n,):
            raise GraphFormatError(f"labels shape {self.labels.shape} does not match {n} nodes")
        bad = ~np.isin(self.labels, (0, 1))
        if bad.any():
            raise GraphFormatError(f"labels must be 0 or 1, found {self.labels[bad][0]}")
        if not np.isfinite(self.features).all():
            node = np.flatnonzero(~np.isfinite(self.features).all(axis=1))[0]
            raise GraphFormatError(f"features of node {node} are not all finite")
        if not self.relations:
            raise GraphFormatError("graph needs at least one relation")
        names = [rel.name for rel in self.relations]
        if len(set(names)) != len(names):
            raise GraphFormatError(f"duplicate relation names: {names}")
        for rel in self.relations:
            if rel.num_nodes != n:
                raise GraphFormatError(f"relation {rel.name!r} sized for {rel.num_nodes} nodes, graph has {n}")
        self.split.validate(n)


class EdgePartition:
    """A relation's edges split into a homophilic and a heterophilic side.

    Every edge lands on exactly one side; ``hetero_mask`` records the
    assignment in the relation's storage order. Masking keeps the
    grouped-by-source order, so each side's CSR offsets are the running
    count of its edges read at the relation's offsets: ``homo_offsets`` and
    ``hetero_offsets``. Their differences are the per-side out-degrees, so
    ``homo_degrees + hetero_degrees`` equals the relation's degrees. The
    model cuts its channel blocks from the relation with these arrays
    (:func:`propagation.channel_adjacencies`) and never builds a view. The
    mask and both offsets are read-only, since the model keeps partitions.

    ``homo`` and ``hetero`` are the sides as :class:`RelationAdjacency`
    views, built from ``relation`` on each read and stored nowhere. Views
    passed to the constructor are used as given, and their offsets stand in
    for the running counts; without views the partition needs its
    ``relation``.
    """

    def __init__(
        self,
        hetero_mask: np.ndarray,
        homo: RelationAdjacency | None = None,
        hetero: RelationAdjacency | None = None,
        relation: RelationAdjacency | None = None,
    ):
        self.hetero_mask = hetero_mask
        self.relation = relation
        self._views = None
        if homo is not None and hetero is not None:
            self._views = homo, hetero
            self.homo_offsets, self.hetero_offsets = homo.offsets, hetero.offsets
        elif relation is not None:
            running = np.zeros(len(hetero_mask) + 1, dtype=np.int64)
            np.cumsum(hetero_mask, out=running[1:])
            self.hetero_offsets = running[relation.offsets]
            self.homo_offsets = relation.offsets - self.hetero_offsets
        else:
            raise ValueError("an edge partition needs both views or the relation they split")
        for array in (hetero_mask, self.homo_offsets, self.hetero_offsets):
            array.flags.writeable = False

    @property
    def homo_degrees(self) -> np.ndarray:
        return np.diff(self.homo_offsets)

    @property
    def hetero_degrees(self) -> np.ndarray:
        return np.diff(self.hetero_offsets)

    @property
    def homo(self) -> RelationAdjacency:
        if self._views:
            return self._views[0]
        rel = self.relation
        return RelationAdjacency(rel.name + ":homo", self.homo_offsets, rel.targets[~self.hetero_mask])

    @property
    def hetero(self) -> RelationAdjacency:
        if self._views:
            return self._views[1]
        rel = self.relation
        return RelationAdjacency(rel.name + ":hetero", self.hetero_offsets, rel.targets[self.hetero_mask])


def node_index(values, num_nodes: int) -> np.ndarray:
    """``values`` as an int64 array of node numbers, each in ``0..num_nodes - 1``.

    Raises :class:`GraphFormatError` unless ``values`` is empty or a flat array of
    integers in that range: a boolean mask is not read as the nodes 0 and 1.
    """
    index = np.asarray(values)
    if index.size == 0:
        return np.empty(0, dtype=np.int64)
    if index.ndim != 1 or index.dtype.kind not in "iu":
        got = f"{index.dtype} of shape {index.shape}"
        raise GraphFormatError(f"a node set must be a flat array of integer node numbers, got {got}")
    if index.min() < 0 or index.max() >= num_nodes:
        bad = index[(index < 0) | (index >= num_nodes)][0]
        raise GraphFormatError(f"node set holds node {bad}, outside 0..{num_nodes - 1}")
    return index.astype(np.int64, copy=False)


def distinct_nodes(node_sets, num_nodes: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sorted distinct nodes of all ``node_sets``, from a presence mask, and each set's places among them."""
    present = np.zeros(num_nodes, dtype=bool)
    for nodes in node_sets:
        present[nodes] = True
    distinct = np.flatnonzero(present)
    rank = np.empty(num_nodes, dtype=np.int64)
    rank[distinct] = np.arange(len(distinct))
    return distinct, [rank[nodes] for nodes in node_sets]


def build_csr(edges, num_nodes: int, name: str = "relation") -> RelationAdjacency:
    """Build a CSR adjacency from (src, dst) pairs.

    Self-loops are dropped and duplicates removed, keeping the first
    occurrence, so the pairs followed by their reverses build the undirected
    relation; within a source node, targets keep their input order. Raises
    :class:`GraphFormatError` for endpoint indices outside
    ``0..num_nodes - 1``, naming the first such edge in input order. Works
    on the source and target columns: ``np.unique`` gives each pair's first
    occurrence, kept in input order, then sorted stably by source.
    """
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.size == 0:
        pairs = np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphFormatError(f"edge list must be pairs, got shape {pairs.shape}")
    src, dst = pairs[:, 0], pairs[:, 1]
    bad = (src < 0) | (src >= num_nodes) | (dst < 0) | (dst >= num_nodes)
    if bad.any():
        u, v = pairs[np.argmax(bad)]
        raise GraphFormatError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
    keep = src != dst
    src, dst = src[keep], dst[keep]
    _, first = np.unique(src * np.int64(num_nodes) + dst, return_index=True)
    first.sort()
    src, dst = src[first], dst[first]
    dst = dst[np.argsort(src, kind="stable")]
    counts = np.bincount(src, minlength=num_nodes)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return RelationAdjacency(name=name, offsets=offsets, targets=dst)


def partition_subgraphs(adj: RelationAdjacency, edge_signs) -> EdgePartition:
    """Split a relation by per-edge sign: a sign >= 0 goes heterophilic.

    ``edge_signs`` aligns with the CSR edge order; only each value's side of
    0 is read, so the scorer's pre-activation serves as well as its tanh.
    The tie at exactly 0 is assigned heterophilic so the split is
    deterministic; a NaN compares false and goes homophilic. The partition
    keeps the mask and its running counts; the views are built on each
    read.
    """
    signs = np.asarray(edge_signs, dtype=np.float64).reshape(-1)
    if len(signs) != adj.edge_count:
        raise ValueError(f"{len(signs)} edge signs for {adj.edge_count} edges in relation {adj.name!r}")
    return EdgePartition(signs >= 0.0, relation=adj)


def merge_relations(graph: MultiRelationGraph) -> MultiRelationGraph:
    """Collapse all relations into a single deduplicated relation named ``UNION_RELATION``."""
    pairs = np.concatenate([rel.edge_pairs() for rel in graph.relations])
    union = build_csr(pairs, graph.num_nodes, name=UNION_RELATION)
    return MultiRelationGraph(
        features=graph.features, labels=graph.labels, relations=[union], split=graph.split
    )
