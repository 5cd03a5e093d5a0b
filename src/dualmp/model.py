"""Full fraud-detection model: per-relation dual channels, relation fusion, classifier.

One parameter group per relation (projection, edge scorer, filter, two
channel gates, fusion) plus a shared linear classifier over all the
relation embeddings. Ablation variants rewire the forward pass and simply do
not create the parameters they cannot reach.
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext
from dataclasses import dataclass, field, fields

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
        # every range test below is false for NaN, so non-finite values go first
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
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
    """What one forward pass produced.

    The rows of ``probs`` and of each relation's ``embeddings`` are the pass's
    rows: the ``node_batch`` in batch order, a repeated node repeating its
    row, or all N nodes in node order without one. ``probs`` is a constant,
    the softmax of the classifier's logits. ``edge_scores`` holds each
    relation's detached scorer pre-activation over all its edges, not the
    tanh score: the two share their sign, and only the sign is read (the
    partition, A3's sign accuracy). Only a training pass builds losses; an
    evaluation pass leaves them empty and records no tape.
    """

    probs: TensorValue  # (rows, 2) constant, column 1 is fraud probability
    embeddings: list[TensorValue]  # (rows, hidden) fused embedding per relation
    partitions: list[EdgePartition | None]
    edge_scores: list[np.ndarray | None]  # detached pre-activations over all edges, per relation
    loss_total: TensorValue | None = None
    loss_cls: TensorValue | None = None
    edge_losses: list[TensorValue] = field(default_factory=list)


def classify(per_relation: list[TensorValue], clf_w: TensorValue, clf_b: TensorValue) -> TensorValue:
    """Two-class logits [z_1 || ... || z_R] W + b, computed as sum_r z_r W_r + b over W's row blocks."""
    blocks = ad.row_blocks(clf_w, len(per_relation))
    products = [ad.matmul(z, w) for z, w in zip(per_relation, blocks, strict=True)]
    return ad.add_bias(functools.reduce(ad.add, products), clf_b)


def classification_loss(logits: TensorValue, labels) -> TensorValue:
    """Cross-entropy of each row of logits against its label, summed over the batch.

    Summed, not averaged. On the A4 fixture (seeds 0-4) both gave the same
    test AUC (sum 0.839, mean 0.838), and the mean would shrink this loss
    relative to the edge hinge.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("classification loss needs a non-empty node batch")
    return ad.cross_entropy(logits, labels)


def total_loss(loss_cls: TensorValue, edge_losses: list[TensorValue], weight: float) -> TensorValue:
    """Classification loss plus ``weight`` times the per-relation edge losses, summed."""
    if weight < 0:
        raise ValueError("edge loss weight must be non-negative")
    if not edge_losses:
        return loss_cls
    return ad.add(loss_cls, ad.scale(functools.reduce(ad.add, edge_losses), weight))


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
            if self._has_smooth_channel and self._has_contrast_channel:  # the fusion
                p.add(f"{name}/fuse_w", _kaiming_uniform(rng, 3 * d_h, d_h))
                p.add(f"{name}/fuse_b", np.zeros((1, d_h)), decay=False)
                p.add(f"{name}/norm_gain", np.ones((1, d_h)), decay=False)
                p.add(f"{name}/norm_bias", np.zeros((1, d_h)), decay=False)
        self.params.add("classifier/w", _kaiming_uniform(rng, self.graph.num_relations * d_h, 2))
        self.params.add("classifier/b", np.zeros((1, 2)), decay=False)

    # -- forward -----------------------------------------------------------

    def _relation_embedding(self, rel, h, partition, rows):
        """Run the active channels over one relation for ``rows`` and fuse the outputs.

        Each channel computes messages only for the neighbors the rows read.
        """
        p, cfg = self.params, self.config
        name = rel.name

        def run_channel(side: str, batch, complement: bool):
            weights = (p[f"{name}/{key}"] for key in ("filter_w", f"{side}_gate_w", f"{side}_b1", f"{side}_b2"))
            messages = propagation.channel_messages(
                ad.gather_rows(h, batch.senders), *weights, cfg.residual_mix, complement=complement
            )
            return propagation.residual_aggregate(h, messages, batch)

        if cfg.ablation == "sep":
            return run_channel("smooth", propagation.batch_adjacency(rel, rows), complement=False)
        homo, hetero = propagation.channel_adjacencies(rel, partition, rows)
        if cfg.ablation == "homo":
            return run_channel("contrast", hetero, complement=True)
        if cfg.ablation == "heter":
            return run_channel("smooth", homo, complement=False)
        z_smooth = run_channel("smooth", homo, complement=False)
        z_contrast = run_channel("contrast", hetero, complement=True)
        fusion = (p[f"{name}/{key}"] for key in ("fuse_w", "fuse_b", "norm_gain", "norm_bias"))
        return propagation.frequency_fuse(z_smooth, z_contrast, *fusion)

    def forward(
        self,
        training: bool = False,
        rng: np.random.Generator | None = None,
        node_batch=None,
        edge_batches=None,
        partitions: list[EdgePartition | None] | None = None,
    ) -> ForwardResult:
        """One pass over the rows ``node_batch``, or over all N nodes without one.

        The projection, edge scoring and partition cover the whole graph;
        aggregation, fusion and the classifier run only for the rows. Edge
        partitions are recomputed from the sign of the current edge scores
        unless frozen ones are passed in (gradient checking does that); no
        pass builds a partition's views. A training pass
        records the tape and builds the classification loss over its rows,
        plus one edge loss per relation when ``edge_batches`` holds
        per-relation (edge positions, sign labels). An evaluation pass
        (``training=False``) runs under :func:`autodiff.no_tape` and builds no
        loss, so every array is freed after its last use.
        """
        p, cfg = self.params, self.config
        rows = np.arange(self.graph.num_nodes) if node_batch is None else node_batch
        rows = np.asarray(rows, dtype=np.int64)
        with nullcontext() if training else ad.no_tape():
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
                    sources, targets = rel.edge_sources, rel.targets
                    if partitions is not None:
                        partition = partitions[ri]
                    else:
                        # hard split on the sign of the detached pre-activation;
                        # the separator learns only through the hinge loss below
                        scores = separator.edge_score_values(
                            h.data, sources, targets, p[f"{rel.name}/edge_w"].data
                        )
                        partition = partition_subgraphs(rel, scores)
                    if training and edge_batches is not None:
                        positions, sign_labels = edge_batches[ri]
                        if len(positions):
                            batch_scores = separator.edge_scores(
                                h, sources[positions], targets[positions], p[f"{rel.name}/edge_w"]
                            )
                            edge_losses.append(separator.heterophily_loss(batch_scores, sign_labels))
                        else:
                            edge_losses.append(ad.tensor(0.0))
                per_rel_z.append(self._relation_embedding(rel, h, partition, rows))
                out_partitions.append(partition)
                out_scores.append(scores)

            logits = classify(per_rel_z, p["classifier/w"], p["classifier/b"])

            result = ForwardResult(
                probs=ad.tensor(ad.softmax(logits.data)),
                embeddings=per_rel_z,
                partitions=out_partitions,
                edge_scores=out_scores,
                edge_losses=edge_losses,
            )
            if training:
                # the logits hold just the pass's rows, in row order
                result.loss_cls = classification_loss(logits, self.graph.labels[rows])
                result.loss_total = total_loss(result.loss_cls, edge_losses, cfg.edge_loss_weight)
            return result

