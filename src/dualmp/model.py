"""Full fraud-detection model: per-relation dual channels, relation fusion, classifier.

One parameter group per relation (projection, edge scorer, filter, two
channel gates, fusion) plus a shared linear classifier over the concatenated
relation embeddings. Ablation variants rewire the forward pass and simply do
not create the parameters they cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import propagation, separator
from .autodiff import ParamStore, TensorValue
from .graphs import EdgePartition, MultiRelationGraph, merge_relations, partition_subgraphs

ABLATIONS = ("full", "sep", "homo", "heter", "rel")


class ConfigError(ValueError):
    """A configuration value is outside its documented range."""


@dataclass
class TrainConfig:
    """Hyperparameters for one training run; defaults follow the reference setup."""

    learning_rate: float = 0.01
    weight_decay: float = 5e-5
    epochs: int = 3000
    patience: int = 200
    edge_loss_weight: float = 1.0  # weight of the edge-sign hinge loss
    residual_mix: float = 0.5  # balance of original vs filtered neighbor features
    hidden_dim: int = 8
    dropout: float = 0.1
    seed: int = 0
    ablation: str = "full"

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if not 1 <= self.patience <= self.epochs:
            raise ConfigError(f"patience must be in 1..epochs, got {self.patience}")
        if self.edge_loss_weight < 0:
            raise ConfigError("edge_loss_weight must be non-negative")
        if self.residual_mix < 0:
            raise ConfigError("residual_mix must be non-negative")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be at least 1")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")


@dataclass
class ForwardResult:
    probs: TensorValue  # (N, 2), column 1 is fraud probability
    embeddings: TensorValue  # (N, R * hidden) fused relation embeddings
    partitions: list[EdgePartition | None]
    edge_scores: list[np.ndarray | None]  # detached scores over all edges, per relation
    loss_total: TensorValue | None = None
    loss_cls: TensorValue | None = None
    edge_losses: list[TensorValue] = field(default_factory=list)


def relation_fuse(per_relation: list[TensorValue]) -> TensorValue:
    """Concatenate per-relation embeddings column-wise in relation order."""
    if len(per_relation) == 1:
        return per_relation[0]
    return ad.concat_cols(per_relation)


def classify(fused: TensorValue, clf_w: TensorValue, clf_b: TensorValue) -> TensorValue:
    """Two-class probabilities: softmax of a linear head over the fused embedding."""
    return ad.softmax_rows(ad.add_bias(ad.matmul(fused, clf_w), clf_b))


def classification_loss(probs: TensorValue, labels, node_batch) -> TensorValue:
    """Summed binary cross-entropy over the sampled nodes, logs clamped at 1e-12."""
    node_batch = np.asarray(node_batch, dtype=np.int64)
    if node_batch.size == 0:
        raise ValueError("classification loss needs a non-empty node batch")
    y = np.asarray(labels, dtype=np.float64)[node_batch].reshape(-1, 1)
    fraud = ad.take_col(ad.gather_rows(probs, node_batch), 1)
    benign = ad.add_const(ad.scale(fraud, -1.0), 1.0)
    ll = ad.add(
        ad.mul_const(ad.log_clamped(benign), 1.0 - y),
        ad.mul_const(ad.log_clamped(fraud), y),
    )
    return ad.scale(ad.sum_all(ll), -1.0)


def total_loss(loss_cls: TensorValue, edge_losses: list[TensorValue], weight: float) -> TensorValue:
    """Classification loss plus ``weight`` times the per-relation edge losses, summed."""
    if weight < 0:
        raise ValueError("edge loss weight must be non-negative")
    if not edge_losses:
        return loss_cls
    acc = edge_losses[0]
    for extra in edge_losses[1:]:
        acc = ad.add(acc, extra)
    return ad.add(loss_cls, ad.scale(acc, weight))


def _kaiming_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class DualChannelModel:
    """Wires parameters and the forward pass for one graph and config.

    Under the ``rel`` ablation the relations are merged into a single union
    graph at construction; the other ablations only change which channels
    run. Parameters that an ablation cannot reach are never created, so the
    store size doubles as the active-parameter count.
    """

    def __init__(self, graph: MultiRelationGraph, config: TrainConfig, rng: np.random.Generator):
        config.validate()
        graph.validate()
        if config.ablation == "rel" and graph.num_relations > 1:
            graph = merge_relations(graph)
        self.graph = graph
        self.config = config
        self.params = ParamStore()
        self.features = ad.tensor(graph.features)
        self._init_params(rng)

    # -- parameter construction -------------------------------------------

    @property
    def _has_separator(self) -> bool:
        return self.config.ablation != "sep"

    @property
    def _has_smooth_channel(self) -> bool:
        return self.config.ablation != "homo"

    @property
    def _has_contrast_channel(self) -> bool:
        return self.config.ablation not in ("heter", "sep")

    @property
    def _has_fusion(self) -> bool:
        return self._has_smooth_channel and self._has_contrast_channel

    def _init_params(self, rng: np.random.Generator) -> None:
        d_in, d_h = self.graph.feature_dim, self.config.hidden_dim
        for rel in self.graph.relations:
            p = self.params
            name = rel.name
            p.add(f"{name}/proj_w", _kaiming_uniform(rng, d_in, d_h))
            p.add(f"{name}/proj_b", np.zeros((1, d_h)), decay=False)
            if self._has_separator:
                p.add(f"{name}/edge_w", _kaiming_uniform(rng, 3 * d_h, 1))
            # both channels share the filter; I - W is the contrast filter
            p.add(f"{name}/filter_w", 0.5 * np.eye(d_h) + rng.uniform(-0.01, 0.01, size=(d_h, d_h)))
            if self._has_smooth_channel:
                p.add(f"{name}/smooth_b1", np.zeros((1, d_h)), decay=False)
                p.add(f"{name}/smooth_gate_w", _kaiming_uniform(rng, d_h, d_h))
                p.add(f"{name}/smooth_b2", np.zeros((1, d_h)), decay=False)
            if self._has_contrast_channel:
                p.add(f"{name}/contrast_b1", np.zeros((1, d_h)), decay=False)
                p.add(f"{name}/contrast_gate_w", _kaiming_uniform(rng, d_h, d_h))
                p.add(f"{name}/contrast_b2", np.zeros((1, d_h)), decay=False)
            if self._has_fusion:
                p.add(f"{name}/fuse_w", _kaiming_uniform(rng, 3 * d_h, d_h))
                p.add(f"{name}/fuse_b", np.zeros((1, d_h)), decay=False)
                p.add(f"{name}/norm_gain", np.ones((1, d_h)), decay=False)
                p.add(f"{name}/norm_bias", np.zeros((1, d_h)), decay=False)
        self.params.add("classifier/w", _kaiming_uniform(rng, self.graph.num_relations * d_h, 2))
        self.params.add("classifier/b", np.zeros((1, 2)), decay=False)

    # -- forward -----------------------------------------------------------

    def _relation_embedding(self, rel, h, partition):
        """Run the active channels over one relation and fuse the outputs."""
        p, cfg = self.params, self.config
        name = rel.name

        def run_channel(side: str, subgraph, complement: bool):
            messages = propagation.channel_messages(
                h,
                p[f"{name}/filter_w"],
                p[f"{name}/{side}_gate_w"],
                p[f"{name}/{side}_b1"],
                p[f"{name}/{side}_b2"],
                cfg.residual_mix,
                complement=complement,
            )
            return propagation.residual_aggregate(h, messages, subgraph)

        if cfg.ablation == "sep":
            return run_channel("smooth", rel, complement=False)
        if cfg.ablation == "homo":
            return run_channel("contrast", partition.hetero, complement=True)
        if cfg.ablation == "heter":
            return run_channel("smooth", partition.homo, complement=False)
        z_smooth = run_channel("smooth", partition.homo, complement=False)
        z_contrast = run_channel("contrast", partition.hetero, complement=True)
        return propagation.frequency_fuse(
            z_smooth,
            z_contrast,
            p[f"{name}/fuse_w"],
            p[f"{name}/fuse_b"],
            p[f"{name}/norm_gain"],
            p[f"{name}/norm_bias"],
        )

    def forward(
        self,
        training: bool = False,
        rng: np.random.Generator | None = None,
        node_batch=None,
        edge_batches=None,
        partitions: list[EdgePartition | None] | None = None,
    ) -> ForwardResult:
        """One full pass: per-relation embeddings, fused classification, losses.

        Edge partitions are recomputed from the current edge scores unless
        frozen ones are passed in (gradient checking does that). Losses are
        produced only when the corresponding batches are given;
        ``edge_batches`` holds per-relation (edge positions, sign labels).
        """
        p, cfg = self.params, self.config
        per_rel_z: list[TensorValue] = []
        out_partitions: list[EdgePartition | None] = []
        out_scores: list[np.ndarray | None] = []
        edge_losses: list[TensorValue] = []

        for ri, rel in enumerate(self.graph.relations):
            h = separator.project_features(
                self.features,
                p[f"{rel.name}/proj_w"],
                p[f"{rel.name}/proj_b"],
                dropout_rate=cfg.dropout,
                training=training,
                rng=rng,
            )
            partition = None
            scores = None
            if self._has_separator:
                sources, targets = rel.edge_sources(), rel.targets
                if partitions is not None:
                    partition = partitions[ri]
                else:
                    # hard split: scores are detached here, the separator
                    # learns only through the hinge loss below
                    scores = separator.edge_score_values(
                        h.data, sources, targets, p[f"{rel.name}/edge_w"].data
                    )
                    partition = partition_subgraphs(rel, scores)
                if edge_batches is not None:
                    positions, sign_labels = edge_batches[ri]
                    if len(positions):
                        batch_scores = separator.edge_scores(
                            h, sources[positions], targets[positions], p[f"{rel.name}/edge_w"]
                        )
                        edge_losses.append(separator.heterophily_loss(batch_scores, sign_labels))
                    else:
                        edge_losses.append(ad.tensor(0.0))
            per_rel_z.append(self._relation_embedding(rel, h, partition))
            out_partitions.append(partition)
            out_scores.append(scores)

        fused = relation_fuse(per_rel_z)
        probs = classify(fused, p["classifier/w"], p["classifier/b"])

        result = ForwardResult(
            probs=probs,
            embeddings=fused,
            partitions=out_partitions,
            edge_scores=out_scores,
            edge_losses=edge_losses,
        )
        if node_batch is not None:
            result.loss_cls = classification_loss(probs, self.graph.labels, node_batch)
            result.loss_total = total_loss(result.loss_cls, edge_losses, cfg.edge_loss_weight)
        return result
