"""Training workloads of the dualmp benchmark: set-up, training, scoring, checks, metrics.

A run prepares its inputs from the seed, sets up ``setup_reps`` times, then
repeats whole rounds until the time window is used (at least one round).
A round trains with a fixed epoch budget (patience equal to the budget, so
every round does the same work), saves the parameters with
``save_checkpoint``, restores them into a freshly built model as
``dualmp eval`` does, and scores the test split ``SCORE_PASSES`` times.

With tracing on, rounds alternate untraced and traced; end-to-end figures
come from the untraced rounds and per-layer figures from the traced ones.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import sys
import tempfile
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dualmp import data, model, training

import checks
from checks import Check
from tracing import Tracer

SCORE_PASSES = 10

# the A4_SPEC fixture of tests/test_acceptance.py
A4_SPEC = dict(
    num_nodes=2000, fraud_ratio=0.1, num_relations=1, mean_degree=10.0,
    fraud_homophily=0.3, benign_homophily=0.9, feature_dim=16,
    separation=1.5, noise=1.0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SyntheticSpec fields apart from the seed
    epochs: int
    setup_reps: int  # set-ups per run; setup_s is their median
    load_from_text: bool  # set-up reads the graph back with load_dataset
    why: str

    def synthetic_spec(self, seed: int):
        return data.SyntheticSpec(seed=seed, **self.spec)

    def train_config(self, seed: int):
        return model.TrainConfig(epochs=self.epochs, patience=self.epochs, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "a4-train", A4_SPEC, epochs=100, setup_reps=25, load_from_text=False,
            why="the A4 acceptance fixture; smallest working set, so fixed per-epoch costs weigh most",
        ),
        Workload(
            "edge-heavy-train", {**A4_SPEC, "num_nodes": 20000, "num_relations": 2}, epochs=30,
            setup_reps=5, load_from_text=True,
            why="about 400k edges over 2 relations, loaded from text; edge scoring, partition and aggregation dominate",
        ),
        Workload(
            "node-heavy-train", {**A4_SPEC, "num_nodes": 50000, "mean_degree": 1.0, "feature_dim": 32},
            epochs=30, setup_reps=9, load_from_text=False,
            why="50k nodes and about 50k edges; node-level layers and backward dominate, edge layers do not",
        ),
    )
}

END_TO_END = {
    "setup_s": "s",
    "epoch_ms": "ms",
    "score_ms": "ms",
    "test_auc": "AUC",
    "peak_rss_mb": "MB",
}

# per-epoch self time of these spans, over the traced training rounds
EPOCH_LAYERS = {
    "separator.edge_score_ms": "separator.edge_score",
    "graphs.partition_ms": "graphs.partition",
    "propagation.aggregate_ms": "propagation.aggregate",
    "separator.project_ms": "separator.project",
    "propagation.messages_ms": "propagation.messages",
    "propagation.fuse_ms": "propagation.fuse",
    "model.classify_ms": "model.classify",
    "model.loss_ms": "model.loss",
    "autodiff.backward_ms": "autodiff.backward",
    "separator.edge_loss_ms": "separator.edge_loss",
    "training.sample_ms": "training.sample",
    "training.adam_ms": "training.adam",
    "metrics.evaluate_ms": "metrics.evaluate",
    "model.forward_train_ms": "model.forward_train",
    "model.forward_eval_ms": "model.forward_eval",
    "training.fit_self_ms": "training.fit",
}
# per-epoch work counts recorded on these spans
EPOCH_COUNTS = {
    "graphs.edges_scored": "separator.edge_score",
    "graphs.hetero_edges": "graphs.partition",
}

PER_LAYER = {
    "data.generate_s": "s",
    "data.load_dataset_s": "s",
    "model.init_ms": "ms",
    **{name: "ms" for name in EPOCH_LAYERS},
    **{name: "count/epoch" for name in EPOCH_COUNTS},
    "trace.overhead_pct": "%",
}


@dataclass
class Round:
    traced: bool
    fit_s: float
    epochs: int
    losses: list[float]
    score_s: list[float]
    test_auc: float
    restored_scores: np.ndarray
    checks: list[Check] = field(default_factory=list)

    @property
    def epoch_ms(self) -> float:
        return 1e3 * self.fit_s / self.epochs


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    checks: list[Check]


def relation_edges(graph) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(name, sources, targets) of every relation, in CSR edge order."""
    out = []
    for rel in graph.relations:
        src = np.repeat(np.arange(rel.num_nodes, dtype=np.int64), np.diff(rel.offsets))
        out.append((rel.name, src, np.asarray(rel.targets, dtype=np.int64)))
    return out


def _traced(tracer: Tracer | None, phase: str):
    """Install the tracer and tag its spans with ``phase`` for a block; nothing without a tracer."""
    if tracer is None:
        return nullcontext()
    stack = ExitStack()
    stack.enter_context(tracer.installed())
    stack.enter_context(tracer.phase(phase))
    return stack


def _phase(tracer: Tracer | None, phase: str):
    return tracer.phase(phase) if tracer is not None else nullcontext()


def run_round(graph, config, work_dir: Path, tracer: Tracer | None, full_checks: bool) -> Round:
    """Train, checkpoint, restore and score once; the full checks run on the first round only."""
    with _phase(tracer, "train"):
        start = time.perf_counter()
        result = training.fit(graph, config)
        fit_s = time.perf_counter() - start
    trained = result.model

    with _phase(tracer, "checkpoint"):
        path = work_dir / "checkpoint.bin"
        data.save_checkpoint(trained.params, {"train_config": dataclasses.asdict(trained.config)}, path)
        params, meta = data.load_checkpoint(path)
        restored = model.DualChannelModel(
            graph, model.TrainConfig(**meta["train_config"]), np.random.default_rng(config.seed)
        )
        data.restore_into(restored.params, params)

    score_s = []
    with _phase(tracer, "score"):
        for _ in range(SCORE_PASSES):
            start = time.perf_counter()
            report = training.evaluate_split(restored, graph.split.test)
            score_s.append(time.perf_counter() - start)

    with _phase(tracer, "check"):
        out = restored.forward(training=False)
        in_memory = trained.forward(training=False).probs.data[:, 1] if full_checks else None
    probs = out.probs.data
    losses = [record["loss_total"] for record in result.log]
    round_ = Round(
        traced=tracer is not None,
        fit_s=fit_s,
        epochs=len(result.log),
        losses=losses,
        score_s=score_s,
        test_auc=report.auc,
        restored_scores=probs[:, 1].copy(),
    )
    if full_checks:
        relations = relation_edges(graph)
        round_.checks = [
            checks.check_training(losses, report.auc),
            checks.check_auc(report.auc, probs[:, 1], graph.labels, graph.split.test),
            checks.check_probabilities(probs),
            checks.check_partition(out.partitions, relations),
            checks.check_reference_forward(
                probs, [p.hetero_mask for p in out.partitions], params, graph.features,
                relations, config.residual_mix,
            ),
            checks.check_round_trip(in_memory, probs[:, 1]),
        ]
    return round_


def _median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(tracer: Tracer, rounds: list[Round]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced spans; training layers are self time per epoch."""
    epochs = sum(r.epochs for r in rounds if r.traced)
    times, counts = tracer.totals("train")
    metrics = {}
    for name, span in EPOCH_LAYERS.items():
        metrics[name] = (times.get(span, 0) / 1e6 / epochs, "ms")
    for name, span in EPOCH_COUNTS.items():
        metrics[name] = (counts.get(span, 0) / epochs, "count/epoch")
    set_up = ("prep", "setup")
    metrics["data.generate_s"] = (_median(tracer.self_times("data.generate", set_up)) / 1e9, "s")
    metrics["data.load_dataset_s"] = (_median(tracer.self_times("data.load_dataset", set_up)) / 1e9, "s")
    metrics["model.init_ms"] = (_median(tracer.self_times("model.init", ("setup",))) / 1e6, "ms")
    traced = _median([r.epoch_ms for r in rounds if r.traced])
    plain = _median([r.epoch_ms for r in rounds if not r.traced])
    metrics["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")
    return {name: metrics[name] for name in PER_LAYER}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> RunResult:
    """Prepare inputs, set up, then run whole rounds for ``seconds``; collect metrics and checks.

    With ``trace`` the preparation, the set-up and every second round are
    traced, at least one round of each kind runs, the spans are written to
    ``out_dir`` and the per-layer metrics are returned.
    """
    spec = workload.synthetic_spec(seed)
    config = workload.train_config(seed)
    tracer = Tracer() if trace else None
    out_dir.mkdir(parents=True, exist_ok=True)
    run_checks: list[Check] = []
    rounds: list[Round] = []
    per_round = workload.epochs + 1 + SCORE_PASSES  # epochs, checkpoint round trip, scoring passes
    attempted = workload.setup_reps
    failed = 0

    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as tmp:
        work_dir = Path(tmp)
        with _traced(tracer, "prep"):
            generated = data.generate_synthetic(spec)
            manifest = data.write_dataset(generated, work_dir / "dataset")
            run_checks.append(checks.check_loaded_graph(generated, data.load_dataset(manifest)))

        setup_s = []
        with _traced(tracer, "setup"):
            for _ in range(workload.setup_reps):
                start = time.perf_counter()
                if workload.load_from_text:
                    graph = data.load_dataset(manifest)
                else:
                    graph = data.generate_synthetic(spec)
                model.DualChannelModel(graph, config, np.random.default_rng(seed))
                setup_s.append(time.perf_counter() - start)

        window_start = time.perf_counter()
        while len(rounds) < (2 if trace else 1) or time.perf_counter() - window_start < seconds:
            round_tracer = tracer if trace and len(rounds) % 2 == 1 else None
            attempted += per_round
            try:
                with _traced(round_tracer, "round"):
                    rounds.append(run_round(graph, config, work_dir, round_tracer, full_checks=not rounds))
            except (ArithmeticError, ValueError, RuntimeError) as exc:
                # a failed round counts as failed operations; checks speak of the rounds that ran
                failed += per_round
                print(f"round {len(rounds) + 1} failed: {exc!r}", file=sys.stderr)
                break

    if not rounds:
        raise RuntimeError("no round completed")
    first = rounds[0]
    run_checks.extend(first.checks)
    for later in rounds[1:]:
        run_checks.append(
            checks.check_repeatable(
                [first.losses, [first.test_auc], first.restored_scores],
                [later.losses, [later.test_auc], later.restored_scores],
                "epoch losses, test AUC and scores",
            )
        )

    if trace:
        metrics = layer_metrics(tracer, rounds)
        tracer.dump(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": (_median(setup_s), "s"),
            "epoch_ms": (_median([r.epoch_ms for r in rounds]), "ms"),
            "score_ms": (1e3 * _median([s for r in rounds for s in r.score_s]), "ms"),
            "test_auc": (first.test_auc, "AUC"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return RunResult(
        correct=all(c.ok for c in run_checks),
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        checks=run_checks,
    )
