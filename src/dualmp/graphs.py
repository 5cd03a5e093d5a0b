"""Multi-relation graph storage: CSR adjacency, degrees, and signed edge partitions."""

from __future__ import annotations

from dataclasses import dataclass

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

    def edge_sources(self) -> np.ndarray:
        """Source index of every edge, aligned with ``targets``."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees())

    def edge_pairs(self) -> np.ndarray:
        """Flatten back to an (E, 2) array of (src, dst) pairs in storage order."""
        return np.stack([self.edge_sources(), self.targets], axis=1)


@dataclass(frozen=True)
class NodeSplit:
    """Disjoint train/val/test node index sets; train must be non-empty."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def validate(self, num_nodes: int) -> None:
        parts = {"train": self.train, "val": self.val, "test": self.test}
        seen = np.concatenate([np.asarray(p, dtype=np.int64) for p in parts.values()])
        if len(self.train) == 0:
            raise GraphFormatError("train split is empty")
        if seen.size and (seen.min() < 0 or seen.max() >= num_nodes):
            raise GraphFormatError("split contains node index outside 0..N-1")
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


@dataclass(frozen=True)
class EdgePartition:
    """A relation's edges split into homophilic and heterophilic subgraph views.

    Every edge lands in exactly one view; ``hetero_mask`` records the
    assignment in the original edge order. Degrees are per-view out-degrees,
    so ``homo_degrees + hetero_degrees`` equals the relation's degrees.
    """

    hetero_mask: np.ndarray
    homo: RelationAdjacency
    hetero: RelationAdjacency

    @property
    def homo_degrees(self) -> np.ndarray:
        return self.homo.degrees()

    @property
    def hetero_degrees(self) -> np.ndarray:
        return self.hetero.degrees()


def _dedupe_pairs(pairs: np.ndarray, num_nodes: int) -> np.ndarray:
    """Remove duplicate (src, dst) pairs, keeping the first occurrence in input order."""
    keys = pairs[:, 0] * np.int64(num_nodes) + pairs[:, 1]
    _, first = np.unique(keys, return_index=True)
    return pairs[np.sort(first)]


def build_csr(edges, num_nodes: int, name: str = "relation") -> RelationAdjacency:
    """Build a CSR adjacency from (src, dst) pairs.

    Self-loops are dropped and duplicates removed; within a source node,
    targets keep their input order. Raises :class:`GraphFormatError` for
    endpoint indices outside ``0..num_nodes - 1``.
    """
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.size == 0:
        pairs = np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphFormatError(f"edge list must be pairs, got shape {pairs.shape}")
    bad = (pairs < 0) | (pairs >= num_nodes)
    if bad.any():
        u, v = pairs[bad.any(axis=1)][0]
        raise GraphFormatError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if len(pairs):
        pairs = _dedupe_pairs(pairs, num_nodes)
        pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    counts = np.bincount(pairs[:, 0], minlength=num_nodes)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return RelationAdjacency(name=name, offsets=offsets, targets=pairs[:, 1].copy())


def symmetrize(edges) -> np.ndarray:
    """Close an edge list under reversal: every (u, v) gains a (v, u), deduplicated."""
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    both = np.concatenate([pairs, pairs[:, ::-1]])
    top = int(both.max()) + 1
    return _dedupe_pairs(both, top)


def partition_subgraphs(adj: RelationAdjacency, edge_signs) -> EdgePartition:
    """Split a relation by per-edge sign score: score >= 0 goes heterophilic.

    ``edge_signs`` aligns with the CSR edge order. The tie at exactly 0 is
    assigned heterophilic so the split is deterministic.
    """
    signs = np.asarray(edge_signs, dtype=np.float64).reshape(-1)
    if len(signs) != adj.edge_count:
        raise ValueError(f"{len(signs)} edge signs for {adj.edge_count} edges in relation {adj.name!r}")
    hetero_mask = signs >= 0.0
    return EdgePartition(
        hetero_mask=hetero_mask,
        homo=_subgraph_view(adj, ~hetero_mask, ":homo"),
        hetero=_subgraph_view(adj, hetero_mask, ":hetero"),
    )


def _subgraph_view(adj: RelationAdjacency, keep: np.ndarray, suffix: str) -> RelationAdjacency:
    # Masking preserves the grouped-by-source CSR ordering, so offsets can be
    # rebuilt from per-source counts without re-sorting.
    sources = adj.edge_sources()[keep]
    counts = np.bincount(sources, minlength=adj.num_nodes)
    offsets = np.zeros(adj.num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return RelationAdjacency(name=adj.name + suffix, offsets=offsets, targets=adj.targets[keep].copy())


def merge_relations(graph: MultiRelationGraph) -> MultiRelationGraph:
    """Collapse all relations into a single deduplicated relation named ``UNION_RELATION``."""
    pairs = np.concatenate([rel.edge_pairs() for rel in graph.relations])
    union = build_csr(pairs, graph.num_nodes, name=UNION_RELATION)
    return MultiRelationGraph(
        features=graph.features, labels=graph.labels, relations=[union], split=graph.split
    )
