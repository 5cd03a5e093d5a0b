"""Full fraud-detection model: per-relation dual channels, relation fusion, classifier.

One parameter group per relation (projection, edge scorer, filter, two
channel gates, fusion) plus a shared linear classifier over all the
relation embeddings. ``CHANNELS`` names the channels each ablation runs; an
ablation creates only the parameters its channels reach.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as wait_for
from contextlib import nullcontext
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import propagation, separator
from .autodiff import ParamStore, TensorValue
from .graphs import EdgePartition, MultiRelationGraph, distinct_nodes, merge_relations, node_index, partition_subgraphs
from .propagation import BatchAdjacency

# The channels each ablation runs, in run order; two outputs are fused. Only
# ``sep`` has no separator: its smoothing channel reads the whole relation,
# cut like every other block from a partition, one with no heterophilic edge.
CHANNELS = {
    "full": ("smooth", "contrast"),
    "sep": ("smooth",),
    "homo": ("contrast",),
    "heter": ("smooth",),
    "rel": ("smooth", "contrast"),
}
ABLATIONS = tuple(CHANNELS)


# Rows from which a pass has the process's helper thread beside it
# (:func:`spread`): ``training.fit`` runs the next epoch's training pass beside
# an evaluation pass over at least this many rows, and such a pass over given
# rows scores relations 1..R-1 there. Below it the thread costs more than it
# saves. On the A4 spec at mean degree 10, fit's epoch time rose 25% at 1,200
# rows and 7% at 2,400, and fell 13% at 3,600 and 23% at 9,600
# (BENCH_30.json). A two-relation scoring pass spread over the helper took
# 1.39 times as long as the sequential pass at 1,200 rows, 1.26 at 2,400,
# 0.96-0.98 at 4,000 and 0.79-0.87 at 8,000 (BENCH_31.json).
OVERLAP_MIN_ROWS = 4000
M_ARENA_MAX = -8  # glibc's mallopt parameter for the most malloc arenas


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _one_malloc_arena() -> None:
    """Have every thread allocate from glibc's main arena; nothing where ``mallopt`` is absent.

    A second thread otherwise gets an arena of its own, which keeps the
    memory its passes freed: with the helper running fit's training passes
    on a 20k-node, 400k-edge graph, peak RSS rose 13-21% without this
    (BENCH_30.json).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library to load by name
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_ARENA_MAX, 1)


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _helper(rows: int) -> ThreadPoolExecutor | None:
    """The process's one helper thread, its second CPU, for work beside a pass over ``rows`` rows.

    None below ``OVERLAP_MIN_ROWS`` rows or where the process may use one
    CPU only. Built on first use, after glibc's malloc is held to one arena
    (:func:`_one_malloc_arena`), and kept for the life of the process; a
    child made by ``os.fork`` builds its own.
    """
    global _pool
    if rows < OVERLAP_MIN_ROWS or _usable_cpus() < 2:
        return None
    with _pool_lock:
        if _pool is None:
            _one_malloc_arena()
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dualmp-helper")
        return _pool


def _forget_helper() -> None:
    """In a forked child, drop the parent's helper: its thread was not copied, so its jobs would never run."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def spread(jobs, rows: int) -> list:
    """``[job() for job in jobs]``; jobs 1.. are offered to the helper thread (:func:`_helper`) if ``rows`` has one.

    This thread runs job 0, then takes back each offered job the helper has
    not started, so the results come in job order whatever the helper is
    busy with; on return, an exception included, no job is left running.
    An offered job runs in a copy of the caller's context, so it runs as it
    would here, numpy's error state and tape switch included. No job may
    wait on another, so a caller that waits on one cannot deadlock.
    """
    pool = _helper(rows) if len(jobs) > 1 else None
    if pool is None:
        return [job() for job in jobs]
    offered = [pool.submit(contextvars.copy_context().run, job) for job in jobs[1:]]
    try:
        results = [jobs[0]()]
        for job, future in zip(jobs[1:], offered):
            results.append(job() if future.cancel() else future.result())
        return results
    finally:
        # a cancelled job counts as done only once the pool dequeues it, so wait only for the running ones
        wait_for([future for future in offered if not future.cancel()])


class ConfigError(ValueError):
    """A configuration value is outside its documented range."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run; defaults follow the reference setup.

    Checked when built (:class:`ConfigError`) and immutable: change a field with ``dataclasses.replace``.
    """

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

    def __post_init__(self) -> None:
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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")


@dataclass
class ForwardResult:
    """What one forward pass produced.

    The rows of ``probs`` and of each relation's ``embeddings`` are the pass's
    rows: the ``node_batch`` in batch order, a repeated node repeating its
    row, or all N nodes in node order without one. ``probs`` is a constant,
    the softmax of the classifier's logits. ``partitions`` holds each
    relation's edge split, whose ``hetero_mask`` is the sign of the edge
    scores, or None under an ablation without a separator. Only a training
    pass builds losses; an evaluation pass leaves them empty and records no
    tape.
    """

    probs: TensorValue  # (rows, 2) constant, column 1 is fraud probability
    embeddings: list[TensorValue]  # (rows, hidden) fused embedding per relation
    partitions: list[EdgePartition | None]
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
    if not edge_losses:
        return loss_cls
    return ad.add(loss_cls, ad.mul_const(functools.reduce(ad.add, edge_losses), weight))


def _kaiming_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class DualChannelModel:
    """Wires parameters and the forward pass for one graph and config.

    Under the ``rel`` ablation the relations are merged into a single union
    graph at construction; ``CHANNELS`` names the channels each ablation
    runs. Parameters that an ablation cannot reach are never created, so the
    store size doubles as the active-parameter count. The graph comes
    checked and read-only (:class:`MultiRelationGraph`), and the model makes
    its own float64 ``features`` read-only too, so each relation's
    whole-graph work depends only on the parameters and the rows, and a
    write into an input raises rather than leave a kept split stale. The
    configuration is immutable. The model keeps that work in one store
    per relation (:meth:`_stage`), in three stages with nested keys: the
    projection, keyed on the bytes of ``proj_w`` and ``proj_b``; the
    evaluation partition, keyed on those and the bytes of ``edge_w``; and
    the channel blocks, keyed on all of that and the bytes of an evaluation
    pass's rows.
    """

    def __init__(self, graph: MultiRelationGraph, config: TrainConfig, rng: np.random.Generator):
        if config.ablation == "rel" and graph.num_relations > 1:
            graph = merge_relations(graph)
        self.graph = graph
        self.config = config
        self.params = ParamStore()
        self.features = np.asarray(graph.features, dtype=np.float64)
        self.features.flags.writeable = False
        self._unsplit = None if self.has_separator else [
            EdgePartition(np.zeros(rel.edge_count, dtype=bool), relation=rel) for rel in graph.relations
        ]
        # per relation, the kept stages in order, each (key, value): the projection, the partition, the blocks
        self._stages: dict[str, list[tuple[object, object]]] = {}
        self._init_params(rng)

    # -- parameter construction -------------------------------------------

    @property
    def has_separator(self) -> bool:
        """Whether the model scores and splits edges, and so trains an edge loss."""
        return self.config.ablation != "sep"

    def _init_params(self, rng: np.random.Generator) -> None:
        d_in, d_h = self.graph.feature_dim, self.config.hidden_dim
        channels = CHANNELS[self.config.ablation]
        for rel in self.graph.relations:
            p = self.params
            name = rel.name
            p.add(f"{name}/proj_w", _kaiming_uniform(rng, d_in, d_h))
            p.add(f"{name}/proj_b", np.zeros((1, d_h)), decay=False)
            if self.has_separator:
                p.add(f"{name}/edge_w", _kaiming_uniform(rng, 3 * d_h, 1))
            # both channels share the filter; I - W is the contrast filter
            p.add(f"{name}/filter_w", 0.5 * np.eye(d_h) + rng.uniform(-0.01, 0.01, size=(d_h, d_h)))
            for side in channels:
                p.add(f"{name}/{side}_b1", np.zeros((1, d_h)), decay=False)
                p.add(f"{name}/{side}_gate_w", _kaiming_uniform(rng, d_h, d_h))
                p.add(f"{name}/{side}_b2", np.zeros((1, d_h)), decay=False)
            if len(channels) == 2:  # the fusion
                p.add(f"{name}/fuse_w", _kaiming_uniform(rng, 3 * d_h, d_h))
                p.add(f"{name}/fuse_b", np.zeros((1, d_h)), decay=False)
                p.add(f"{name}/norm_gain", np.ones((1, d_h)), decay=False)
                p.add(f"{name}/norm_bias", np.zeros((1, d_h)), decay=False)
        self.params.add("classifier/w", _kaiming_uniform(rng, self.graph.num_relations * d_h, 2))
        self.params.add("classifier/b", np.zeros((1, 2)), decay=False)

    # -- forward -----------------------------------------------------------

    def _stage(self, name: str, depth: int, key, build, repeat: bool = False):
        """Stage ``depth`` of relation ``name``'s store: the value kept under ``key``, or ``build()``'s.

        Stage 0 is the projection, 1 the evaluation partition and 2 the
        channel blocks. Each stage's key holds only what it adds, since a
        stage is kept only on top of the stages before it: when a key
        differs, that stage and every later one are dropped before the
        rebuild, so two versions are never held at once. Keys are bytes, so
        every in-place writer (the optimiser, a restore, a gradient probe)
        is seen without a hook, and so is a flip between 0.0 and -0.0 that
        value equality misses. With ``repeat`` a value is kept only when its
        key repeats the one before, the second time it is seen; the first
        time only the key is, so that a whole-graph pass, run once
        (``dualmp eval --export-embeddings``, a benchmark's check forward),
        keeps no blocks over every edge. Every kept array is read-only, made
        so by the code that builds it (:func:`separator.project_features`,
        :class:`EdgePartition`, :func:`propagation._cut`): a pass that wrote
        into one would corrupt the next.
        """
        stages = self._stages.setdefault(name, [])
        seen = len(stages) > depth and stages[depth][0] == key
        if seen and stages[depth][1] is not None:
            return stages[depth][1]
        del stages[depth:]
        value = build()
        stages.append((key, value if seen or not repeat else None))
        return value

    def _projection(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """:func:`separator.project_features` over all N nodes, rebuilt only when its weights change."""
        proj_w, proj_b = (self.params[f"{name}/{key}"].data for key in ("proj_w", "proj_b"))
        key = proj_w.tobytes(), proj_b.tobytes()
        return self._stage(name, 0, key, lambda: separator.project_features(self.features, proj_w, proj_b))

    def _split_and_blocks(
        self, ri: int, h: np.ndarray, rows: np.ndarray, training: bool, partitions
    ) -> tuple[EdgePartition | None, dict[str, BatchAdjacency]]:
        """Relation ``ri``'s edge partition (None without a separator) and its channels' blocks for ``rows``.

        The split is a hard one on the sign of the detached pre-activation
        of the edge scores over ``h``; the separator learns only through the
        hinge loss. Frozen ``partitions`` are used as given. A pass with
        them, and every training pass, neither reads nor changes the kept
        partition and blocks: a training pass builds its own, so its split
        keeps its dropout jitter, and a pass on another thread may run beside
        it. An evaluation pass keeps its partition, and its blocks when its
        rows repeat the previous evaluation pass's rows (:meth:`_stage`).
        """
        rel = self.graph.relations[ri]
        channels = CHANNELS[self.config.ablation]
        edge_w = self.params[f"{rel.name}/edge_w"].data if self.has_separator else None

        def split():
            if edge_w is None:
                return self._unsplit[ri]
            return partition_subgraphs(rel, separator.edge_score_values(h, rel.edge_sources, rel.targets, edge_w))

        def cut(partition):
            return propagation.channel_adjacencies(rel, partition, rows, channels)

        if partitions is not None:
            partition = partitions[ri]
            return partition, cut(self._unsplit[ri] if partition is None else partition)
        if training:
            partition = split()
            blocks = cut(partition)
        else:
            partition = self._stage(rel.name, 1, b"" if edge_w is None else edge_w.tobytes(), split)
            blocks = self._stage(rel.name, 2, (rows.shape, rows.tobytes()), lambda: cut(partition), repeat=True)
        return (None if edge_w is None else partition), blocks

    def _relation_embedding(self, name: str, take, rows: np.ndarray, blocks: dict[str, BatchAdjacency]) -> TensorValue:
        """Run the ablation's channels over one relation's ``rows`` and fuse two outputs.

        ``take(index)`` gives the projection's rows at the nodes ``index``;
        each channel computes messages only for its block's senders.
        """
        p, cfg = self.params, self.config
        h_rows = take(rows)
        outputs = []
        for side in CHANNELS[cfg.ablation]:
            batch = blocks[side]
            weights = (p[f"{name}/{key}"] for key in ("filter_w", f"{side}_gate_w", f"{side}_b1", f"{side}_b2"))
            messages = propagation.channel_messages(
                take(batch.senders), *weights, cfg.residual_mix, complement=side == "contrast"
            )
            outputs.append(propagation.residual_aggregate(h_rows, messages, batch))
        if len(outputs) == 1:
            return outputs[0]
        fusion = (p[f"{name}/{key}"] for key in ("fuse_w", "fuse_b", "norm_gain", "norm_bias"))
        return propagation.frequency_fuse(*outputs, *fusion)

    def _relation_pass(
        self, ri: int, rows: np.ndarray, training: bool, rng, edge_batches, partitions
    ) -> tuple[TensorValue, EdgePartition | None, TensorValue | None]:
        """Relation ``ri``'s part of a pass: its fused embedding, its partition and its edge loss.

        The edge loss is None unless a training pass has ``edge_batches``.
        A training pass draws the relation's dropout factor from ``rng``; an
        evaluation pass runs inside :meth:`forward`'s :func:`autodiff.no_tape`,
        on the helper thread too (:func:`spread`).
        """
        p, cfg = self.params, self.config
        rel = self.graph.relations[ri]
        num_nodes = self.graph.num_nodes
        projection = p[f"{rel.name}/proj_w"], p[f"{rel.name}/proj_b"]
        factor = separator.dropout_factor((num_nodes, cfg.hidden_dim), cfg.dropout, training, rng)
        kept, active = self._projection(rel.name)
        h, passes = (kept, active) if factor is None else (kept * factor, active * factor)
        take = functools.partial(ad.relu_linear_rows, self.features, *projection, h, passes)
        partition, blocks = self._split_and_blocks(ri, h, rows, training, partitions)
        edge_loss = None
        if training and edge_batches is not None:
            positions, signs = edge_batches[ri]
            distinct, ends = distinct_nodes((rel.edge_sources[positions], rel.targets[positions]), num_nodes)
            scores = separator.edge_scores(take(distinct), *ends, p[f"{rel.name}/edge_w"])
            edge_loss = separator.heterophily_loss(scores, signs)
        return self._relation_embedding(rel.name, take, rows, blocks), partition, edge_loss

    def forward(
        self,
        training: bool = False,
        rng: np.random.Generator | None = None,
        node_batch=None,
        edge_batches=None,
        partitions: list[EdgePartition | None] | None = None,
    ) -> ForwardResult:
        """One pass over the rows ``node_batch``, or over all N nodes without one.

        The projection, edge scoring and partition cover the whole graph,
        untaped; aggregation, fusion and the classifier run only for the
        rows. The features are fixed at construction, so the untaped
        projection is kept from pass to pass while ``proj_w`` and ``proj_b``
        are unchanged (:meth:`_projection`); a training pass multiplies it,
        and the mask of where relu passes the gradient, by its dropout
        factor. A training pass splits each relation's edges on the sign of
        its own jittered edge scores. Of the kept stages it reads only the
        projection, and it writes none when the projection at its weights is
        kept already, as :func:`training.fit` makes sure before it runs one
        beside an evaluation pass. An evaluation pass reuses the partition
        kept for the current ``edge_w`` and, when its rows repeat the previous
        evaluation pass's rows, the kept blocks (:meth:`_split_and_blocks`).
        Frozen ``partitions`` (gradient checking passes them) are used as
        given. No pass builds a partition's views, and only the blocks of the
        ablation's channels are cut. Each consumer takes its own rows of the
        projection with :func:`autodiff.relu_linear_rows`: the pass's rows,
        each block's senders and, in a training pass, the edge batch's
        distinct endpoints, once each, which the hinge reads by position. A
        training pass builds the classification loss over its rows, plus one
        edge loss per relation when ``edge_batches`` holds per-relation
        (edge positions, sign labels). An evaluation pass
        (``training=False``) runs under :func:`autodiff.no_tape` and builds
        no loss, so every array but the kept stages is freed after its last
        use. The partitions it returns are the kept, read-only ones. The pass
        reads ``node_batch`` through :func:`graphs.node_index`.

        Each relation's work is independent until the classifier, so each
        is one job. An evaluation pass over a ``node_batch`` gives the jobs
        to :func:`spread`: from ``OVERLAP_MIN_ROWS`` rows, on a graph of two
        or more relations, relation 0 runs here and relations 1..R-1 are
        offered to the process's helper thread, still inside this pass's
        ``no_tape()``; a relation the helper has not started, as when
        ``fit``'s training pass holds it, is taken back and run here. The
        relations are combined in order, so no bit depends on where each
        ran. A training pass, whose dropout draws keep their order, and a
        whole-graph pass, which would hold two relations' edge-sized arrays
        at once, run their relations in order on this thread.
        """
        p, cfg = self.params, self.config
        num_nodes = self.graph.num_nodes
        with nullcontext() if training else ad.no_tape():
            rows = np.arange(num_nodes) if node_batch is None else node_index(node_batch, num_nodes)
            jobs = [
                functools.partial(self._relation_pass, ri, rows, training, rng, edge_batches, partitions)
                for ri in range(self.graph.num_relations)
            ]
            passes = [job() for job in jobs] if training or node_batch is None else spread(jobs, len(rows))
            per_rel_z = [z for z, _, _ in passes]
            out_partitions = [partition for _, partition, _ in passes]
            edge_losses = [loss for _, _, loss in passes if loss is not None]

            logits = classify(per_rel_z, p["classifier/w"], p["classifier/b"])

            result = ForwardResult(
                probs=ad.tensor(ad.softmax(logits.data)),
                embeddings=per_rel_z,
                partitions=out_partitions,
                edge_losses=edge_losses,
            )
            if training:
                # the logits hold just the pass's rows, in row order
                result.loss_cls = classification_loss(logits, self.graph.labels[rows])
                result.loss_total = total_loss(result.loss_cls, edge_losses, cfg.edge_loss_weight)
            return result
