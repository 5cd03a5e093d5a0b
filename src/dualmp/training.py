"""Training loop: balanced sampling, Adam, early stopping on validation AUC."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import ParamStore, backward
from .graphs import MultiRelationGraph, distinct_nodes
from .metrics import MetricsReport, accuracy, evaluate
from .model import ConfigError, DualChannelModel, TrainConfig, spread
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
    weights, and neither writes what the other reads: the evaluation pass
    alone writes the model's kept entries, and the training pass builds its
    own projection, split and blocks. So when epoch t cannot end the run
    (t < ``epochs`` and fewer than ``patience - 1`` stale epochs before it),
    :func:`model.spread` runs the evaluation here while the helper thread,
    if the evaluation's rows have one, runs epoch t + 1's batches, training
    forward and backward. The evaluation then takes back the relations it
    would offer the busy helper, and a training pass the helper has not
    started when the evaluation ends, as when another ``fit`` holds it, is
    taken back too. No pass is thrown away and the random draws keep their
    order, so the log, the parameters and a :class:`NumericalError` (raised
    at the same epoch) do not depend on where each pass ran. The kept
    entries, built at the last epoch's weights, are dropped once the best
    epoch's parameters are restored.
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

    def evaluation() -> dict:
        # the log's figures at the current weights; the pass's embeddings are freed on return
        fraud_scores = model.forward(training=False, node_batch=eval_rows).probs.data[:, 1]
        val_report = evaluate(fraud_scores[val_pos], val_labels)
        return {"train_accuracy": accuracy(fraud_scores[train_pos], train_labels), "val_auc": val_report.auc,
                "val_recall": val_report.recall, "val_f1_macro": val_report.f1_macro, "val_gmean": val_report.gmean}

    optimizer = Adam(model.params, config.learning_rate, config.weight_decay)
    log: list[dict] = []
    best_auc = -np.inf
    best_epoch = 0
    best_snapshot = model.params.snapshot()
    stale = 0
    ahead: list[dict] = []  # the record of this epoch's training pass, when it ran beside the last evaluation

    for epoch in range(1, config.epochs + 1):
        record = ahead[0] if ahead else _training_pass(model, labeled_edges, rng, epoch)
        if not np.isfinite(record["loss_total"]):
            raise NumericalError(f"non-finite loss {record['loss_total']} at epoch {epoch}")
        optimizer.step()

        jobs = [evaluation]
        if epoch < config.epochs and stale < config.patience - 1:
            jobs.append(functools.partial(_training_pass, model, labeled_edges, rng, epoch + 1))
        figures, *ahead = spread(jobs, len(eval_rows))
        log.append({**record, **figures})

        if figures["val_auc"] > best_auc:
            best_auc = figures["val_auc"]
            best_epoch = epoch
            best_snapshot = model.params.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    model.params.restore(best_snapshot)
    model._kept.clear()  # built for the last epoch's weights, which no later pass has
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
    records no tape and builds no loss. It is a scoring pass, so repeated
    calls over the same ``node_idx`` with unchanged parameters project,
    score, partition and cut once, and reuse each relation's kept entry
    (:meth:`DualChannelModel.forward`). With at least ``OVERLAP_MIN_ROWS``
    rows and two or more relations, :func:`model.spread` offers relations
    1..R-1 to the process's helper thread and takes back any it has not
    started (:meth:`DualChannelModel.forward`); the report is the same bits
    either way. An empty ``node_idx`` raises ``ValueError`` before any
    pass; the pass itself reads ``node_idx``.
    """
    node_idx = np.asarray(node_idx)
    if node_idx.size == 0:
        raise ValueError("cannot evaluate an empty node set")
    out = model.forward(training=False, node_batch=node_idx)
    return evaluate(out.probs.data[:, 1], model.graph.labels[node_idx])
