"""Training loop: balanced sampling, Adam, early stopping on validation AUC."""

from __future__ import annotations

import contextvars
from concurrent.futures import wait as wait_for
from dataclasses import dataclass

import numpy as np

from .autodiff import ParamStore, backward
from .graphs import MultiRelationGraph, distinct_nodes
from .metrics import MetricsReport, accuracy, evaluate
from .model import ConfigError, DualChannelModel, TrainConfig, helper
from .separator import edge_label_signs


class NumericalError(RuntimeError):
    """Training hit a non-finite loss."""


class Adam:
    """Classic Adam with bias-corrected moments and coupled L2 weight decay.

    Decay is added to the gradient before the moment updates and only for
    parameters flagged as decaying (weight matrices, not biases or
    normalization parameters).
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, store: ParamStore, learning_rate: float, weight_decay: float = 0.0):
        self.store = store
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in store.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in store.items()}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for name, p in self.store.items():
            g = p.grad
            if g is None:
                raise ValueError(f"parameter {name!r} has no gradient; run backward first")
            if self.weight_decay and self.store.decays(name):
                g = g + self.weight_decay * p.data
            m = self._m[name]
            v = self._v[name]
            m *= self.BETA1
            m += (1 - self.BETA1) * g
            v *= self.BETA2
            v += (1 - self.BETA2) * g * g
            m_hat = m / (1 - self.BETA1**t)
            v_hat = v / (1 - self.BETA2**t)
            p.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPS)


def _balanced_pick(first: np.ndarray, second: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Both pools in order, the larger one subsampled without replacement to the smaller's size."""
    k = min(len(first), len(second))

    def take(pool):
        return pool if len(pool) == k else rng.choice(pool, size=k, replace=False)

    return np.concatenate([take(first), take(second)])


def balanced_node_sample(train_idx, labels, rng: np.random.Generator) -> np.ndarray:
    """Equal-count class sample from the train split (fraud first); the minority count governs."""
    train_idx = np.asarray(train_idx, dtype=np.int64)
    labels = np.asarray(labels)
    fraud = train_idx[labels[train_idx] == 1]
    benign = train_idx[labels[train_idx] == 0]
    if len(fraud) == 0 or len(benign) == 0:
        raise ConfigError("balanced sampling needs both classes in the train split")
    return _balanced_pick(fraud, benign, rng)


def balanced_edge_sample(positions, sign_labels, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Equal-count sample of same-label and different-label training edges.

    An empty batch is normal: a relation whose training edges lack one sign
    draws one every epoch, and its edge loss is then the constant 0.
    """
    positions = np.asarray(positions, dtype=np.int64)
    sign_labels = np.asarray(sign_labels, dtype=np.float64)
    same = np.flatnonzero(sign_labels < 0)
    diff = np.flatnonzero(sign_labels > 0)
    if len(same) == 0 or len(diff) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    pick = _balanced_pick(same, diff, rng)
    return positions[pick], sign_labels[pick]


def training_edge_sets(model: DualChannelModel) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Per relation: positions and sign labels of the edges inside the train split.

    None for a model without a separator, which trains no edge loss.
    """
    if not model.has_separator:
        return None
    graph = model.graph
    mask = graph.split.train_mask(graph.num_nodes)
    return [edge_label_signs(rel.edge_sources, rel.targets, graph.labels, mask) for rel in graph.relations]


def epoch_batches(graph: MultiRelationGraph, labeled_edges, rng: np.random.Generator):
    """One epoch's class-balanced node batch, then a sign-balanced edge batch per relation.

    The edge batches are None when ``labeled_edges`` (:func:`training_edge_sets`) is.
    """
    node_batch = balanced_node_sample(graph.split.train, graph.labels, rng)
    if labeled_edges is None:
        return node_batch, None
    return node_batch, [balanced_edge_sample(pos, signs, rng) for pos, signs in labeled_edges]


@dataclass
class FitResult:
    model: DualChannelModel
    log: list[dict]
    best_epoch: int
    best_val_auc: float


def check_validation_split(graph: MultiRelationGraph) -> None:
    """Raise :class:`ConfigError` unless the graph's val set holds both classes, as its AUC needs."""
    val_classes = np.unique(graph.labels[graph.split.val]).tolist()
    if len(val_classes) < 2:
        raise ConfigError(
            f"the validation split ({len(graph.split.val)} nodes, classes {val_classes}) "
            "needs both classes to select the best epoch by AUC"
        )


def _training_pass(model: DualChannelModel, labeled_edges, rng: np.random.Generator, epoch: int) -> dict:
    """Epoch ``epoch``'s batches, training forward and, if its loss is finite, backward; its loss fields.

    The tape is freed on return. A non-finite loss is left for the caller to raise.
    """
    node_batch, edge_batches = epoch_batches(model.graph, labeled_edges, rng)
    model.params.zero_grads()
    out = model.forward(training=True, rng=rng, node_batch=node_batch, edge_batches=edge_batches)
    record = {"epoch": epoch, "loss_total": out.loss_total.item(), "loss_cls": out.loss_cls.item(),
              "edge_losses": [l.item() for l in out.edge_losses]}
    if np.isfinite(record["loss_total"]):
        backward(out.loss_total)
    return record


def fit(graph: MultiRelationGraph, config: TrainConfig) -> FitResult:
    """Train one model per the configured schedule.

    Every epoch re-scores and re-partitions each relation's edges, runs the
    ablation's channels, takes one Adam step on the joint loss over the
    batches of :func:`epoch_batches`, and evaluates the validation split.
    The evaluation forward computes only the train and validation rows, which
    is all the log reads (validation metrics and train accuracy); like every
    evaluation pass it records no tape and builds no loss, and it runs after
    its epoch's training tape is freed. The parameters with the best
    validation AUC are restored before returning; training stops early
    after ``patience`` epochs without improvement. The graph, its split and
    the config were checked when each was built; a validation split without
    both classes has no AUC to select on and raises :class:`ConfigError`
    once the model is built (``check_validation_split``).

    Epoch t's evaluation pass and epoch t + 1's training pass read the same
    weights, and neither writes what the other reads. So when epoch t
    cannot end the run (t < ``epochs`` and fewer than ``patience - 1`` stale
    epochs before it) and the process has a helper thread for the
    evaluation's rows (:func:`model.helper`: at least ``OVERLAP_MIN_ROWS``
    rows and two CPUs), the helper runs epoch t + 1's batches, training
    forward and backward while this thread evaluates epoch t; each
    relation's projection at the new weights is built first, and the
    helper only reads it. The helper's training tape is then alive during
    the evaluation, and the evaluation takes back the relations it would
    have offered the busy helper (:meth:`DualChannelModel.forward`). No
    pass is thrown away and the random draws keep their order, so the log,
    the parameters and a :class:`NumericalError` (raised at the same epoch)
    do not depend on whether the helper ran. Leaving early, by an
    exception, takes back or waits for the helper's pass.
    """
    rng = np.random.default_rng(config.seed)
    model = DualChannelModel(graph, config, rng)
    graph = model.graph  # the rel ablation swaps in the merged union graph
    check_validation_split(graph)

    train, val = graph.split.train, graph.split.val
    # the rows the per-epoch evaluation reads, and where each split sits among them
    eval_rows, (train_pos, val_pos) = distinct_nodes((train, val), graph.num_nodes)
    train_labels, val_labels = graph.labels[train], graph.labels[val]
    labeled_edges = training_edge_sets(model)
    pool = helper(len(eval_rows))

    optimizer = Adam(model.params, config.learning_rate, config.weight_decay)
    log: list[dict] = []
    best_auc = -np.inf
    best_epoch = 0
    best_snapshot = model.params.snapshot()
    stale = 0
    ahead = None  # the helper's run of the next epoch's training pass

    try:
        for epoch in range(1, config.epochs + 1):
            if ahead is None:
                record = _training_pass(model, labeled_edges, rng, epoch)
            else:
                record = ahead.result()
            if not np.isfinite(record["loss_total"]):
                raise NumericalError(f"non-finite loss {record['loss_total']} at epoch {epoch}")
            optimizer.step()

            ahead = None
            if pool is not None and epoch < config.epochs and stale < config.patience - 1:
                for rel in graph.relations:
                    model._projection(rel.name)
                # the caller's context carries numpy's error state to the helper
                ahead = pool.submit(contextvars.copy_context().run, _training_pass, model, labeled_edges,
                                    rng, epoch + 1)

            fraud_scores = model.forward(training=False, node_batch=eval_rows).probs.data[:, 1]
            val_report = evaluate(fraud_scores[val_pos], val_labels)
            log.append({**record, "train_accuracy": accuracy(fraud_scores[train_pos], train_labels),
                        "val_auc": val_report.auc, "val_recall": val_report.recall,
                        "val_f1_macro": val_report.f1_macro, "val_gmean": val_report.gmean})

            if val_report.auc > best_auc:
                best_auc = val_report.auc
                best_epoch = epoch
                best_snapshot = model.params.snapshot()
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    finally:
        if ahead is not None and not ahead.cancel():  # an exception left the helper's pass running
            wait_for([ahead])

    model.params.restore(best_snapshot)
    model._stages.clear()  # built for the last epoch's weights, which no later pass has
    return FitResult(model=model, log=log, best_epoch=best_epoch, best_val_auc=float(best_auc))


def evaluate_split(model: DualChannelModel, node_idx) -> MetricsReport:
    """Metrics of the current parameters over one node set.

    The evaluation forward computes only the rows of ``node_idx``, in its
    order and with any duplicates. That gives the whole graph's metrics only
    where every product over the rows is row-stable. At the default width
    the (8, 8) and (8, 2) channel and classifier products are, as tests
    check, but layer normalization's row means and variances are (8, 1)
    products, which go through gemv: on OpenBLAS 0.3.31 the fused embeddings
    of 11 of 69 row sets of the A4 fixture, and the probabilities of 6,
    differed by rounding from the whole-graph rows. At widths 16 and 32 the
    (16, 2) and (32, 2) classifier products differ in most random cuts. It
    records no tape and builds no loss. Repeated calls with unchanged
    parameters score and partition the edges once; the second call over the
    same ``node_idx`` keeps its channel blocks, and later ones reuse them
    (:meth:`DualChannelModel._stage`). With at least ``OVERLAP_MIN_ROWS``
    rows and two or more relations, relations 1..R-1 are offered to the
    process's helper thread (:meth:`DualChannelModel.forward`); the report
    is the same bits either way. An empty ``node_idx`` raises
    ``ValueError`` before any pass; the pass itself reads ``node_idx``.
    """
    node_idx = np.asarray(node_idx)
    if node_idx.size == 0:
        raise ValueError("cannot evaluate an empty node set")
    out = model.forward(training=False, node_batch=node_idx)
    return evaluate(out.probs.data[:, 1], model.graph.labels[node_idx])
