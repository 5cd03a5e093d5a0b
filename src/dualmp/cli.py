"""Command-line entry point: train, eval, gradcheck and synth subcommands.

Exit codes: 0 success, 1 configuration or data problem, 2 numerical failure
during training, 3 gradient verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .autodiff import grad_check
from .data import (
    CheckpointError,
    DatasetError,
    SyntheticSpec,
    export_embeddings,
    generate_synthetic,
    load_checkpoint,
    load_dataset,
    read_lines,
    restore_into,
    save_checkpoint,
    write_dataset,
)
from .graphs import GraphFormatError
from .metrics import MetricsReport
from .model import ABLATIONS, ConfigError, DualChannelModel, TrainConfig
from .training import (
    NumericalError,
    check_validation_split,
    epoch_batches,
    evaluate_split,
    fit,
    training_edge_sets,
)

GRADCHECK_TOLERANCE = 1e-4


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}
_FIELD_PARSERS = {"int": int, "float": float, "str": str}
# flags whose historical names are not their field's name with dashes
_FLAG_NAMES = {"learning_rate": "--lr", "edge_loss_weight": "--lambda", "residual_mix": "--epsilon",
               "num_nodes": "--nodes", "num_relations": "--relations"}


def _add_field_flags(parser: argparse.ArgumentParser, settings: type) -> None:
    """One flag per field of the dataclass ``settings``; each defaults to None, meaning not given."""
    for f in dataclasses.fields(settings):
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        choices = ABLATIONS if f.name == "ablation" else None
        parser.add_argument(flag, dest=f.name, type=_FIELD_PARSERS[f.type], choices=choices, default=None)


def _given_fields(args: argparse.Namespace, settings: type) -> dict:
    """The fields of the dataclass ``settings`` that a flag set."""
    values = vars(args)
    return {f.name: values[f.name] for f in dataclasses.fields(settings) if values[f.name] is not None}


def _parse_config_file(path: str) -> dict:
    values = {}
    for i, line in enumerate(read_lines(path, error=ConfigError), 1):
        if not line or line.startswith("#"):
            continue
        key, *rest = line.replace("=", " ").split(maxsplit=1)
        raw = rest[0] if rest else ""
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}: line {i}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}: line {i}: {key} given twice")
        ftype = _CONFIG_FIELDS[key].type
        try:
            values[key] = _FIELD_PARSERS[ftype](raw)
        except ValueError:
            raise ConfigError(f"{path}: line {i}: {key} must be {ftype}, got {raw!r}") from None
    return values


def build_config(args: argparse.Namespace) -> TrainConfig:
    """defaults < config file < explicit command-line flags."""
    values = _parse_config_file(args.config) if args.config else {}
    return TrainConfig(**{**values, **_given_fields(args, TrainConfig)})


def _write_metrics(path: Path, report: MetricsReport, extra: dict | None = None) -> None:
    with open(path, "w") as fh:
        for key, value in report.as_dict().items():
            fh.write(f"{key} {value:.10g}\n" if isinstance(value, float) else f"{key} {value}\n")
        for key, value in (extra or {}).items():
            fh.write(f"{key} {value}\n")


def _print_report(report: MetricsReport) -> None:
    print(
        f"auc={report.auc:.4f} recall={report.recall:.4f} "
        f"f1_macro={report.f1_macro:.4f} gmean={report.gmean:.4f} "
        f"confusion tp={report.tp} fp={report.fp} tn={report.tn} fn={report.fn}"
    )


def _evaluated_split(graph, name: str, data_path) -> np.ndarray:
    """The nodes of the split a command reports on; an empty split is a data error."""
    nodes = getattr(graph.split, name)
    if len(nodes) == 0:
        raise DatasetError(f"{data_path}: the {name} split is empty, so there is nothing to evaluate")
    return nodes


def cmd_train(args: argparse.Namespace) -> int:
    config = build_config(args)
    graph = load_dataset(args.data, split_seed=config.seed)
    test_idx = _evaluated_split(graph, "test", args.data)
    check_validation_split(graph)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = fit(graph, config)
    graph = result.model.graph

    with open(out_dir / "train_log.jsonl", "w") as fh:
        header = {
            "type": "header",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "data": str(args.data),
            "config": dataclasses.asdict(config),
            "split_sizes": {
                "train": len(graph.split.train),
                "val": len(graph.split.val),
                "test": len(graph.split.test),
            },
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for record in result.log:
            fh.write(json.dumps({"type": "epoch", **record}, sort_keys=True) + "\n")

    save_checkpoint(result.model.params, {"train_config": dataclasses.asdict(config)}, out_dir / "checkpoint.bin")

    report = evaluate_split(result.model, test_idx)
    _write_metrics(
        out_dir / "metrics.txt",
        report,
        extra={"best_epoch": result.best_epoch, "epochs_run": len(result.log), "split": "test"},
    )
    print(f"trained {len(result.log)} epochs (best validation AUC {result.best_val_auc:.4f} "
          f"at epoch {result.best_epoch}); test metrics:")
    _print_report(report)
    return 0


def _has_field_type(key: str, value) -> bool:
    """Whether a saved setting has its field's type; a float field also takes an int, no field a bool."""
    ftype = _CONFIG_FIELDS[key].type
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if ftype == "float" else _FIELD_PARSERS[ftype])


def _checkpoint_config(meta, path: str) -> TrainConfig:
    """The saved TrainConfig; it must hold exactly the TrainConfig fields, each of its type."""
    saved = meta.get("train_config") if isinstance(meta, dict) else None
    if not isinstance(saved, dict):
        raise CheckpointError(f"{path}: checkpoint metadata holds no train_config")
    unknown = {key: saved[key] for key in sorted(saved.keys() - _CONFIG_FIELDS.keys())}
    missing = sorted(_CONFIG_FIELDS.keys() - saved.keys())
    if unknown or missing:
        raise CheckpointError(f"{path}: train_config has unsupported settings {unknown} and lacks {missing}")
    mistyped = {key: value for key, value in sorted(saved.items()) if not _has_field_type(key, value)}
    if mistyped:
        raise CheckpointError(f"{path}: train_config values of the wrong type: {mistyped}")
    try:  # before load_dataset draws the split from the seed
        return TrainConfig(**saved)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: train_config: {exc}") from None


def _rebuild_model(data_path: str, checkpoint_path: str) -> DualChannelModel:
    params, meta = load_checkpoint(checkpoint_path)
    config = _checkpoint_config(meta, checkpoint_path)
    graph = load_dataset(data_path, split_seed=config.seed)
    model = DualChannelModel(graph, config, np.random.default_rng(config.seed))
    restore_into(model.params, params)
    return model


def cmd_eval(args: argparse.Namespace) -> int:
    model = _rebuild_model(args.data, args.checkpoint)
    report = evaluate_split(model, _evaluated_split(model.graph, args.split, args.data))
    print(f"{args.split} split:")
    _print_report(report)
    if args.export_embeddings:
        embeddings = np.hstack([z.data for z in model.forward(training=False).embeddings])
        export_embeddings(embeddings, model.graph.labels, args.export_embeddings)
        print(f"embeddings written to {args.export_embeddings}")
    return 0


def gradcheck_model(ablation: str, seed: int, probe: float) -> dict[str, float]:
    """Errors for one wiring on the standard 30-node, 2-relation random graph.

    The loss is ``fit``'s first training loss, with the partitions frozen.
    """
    spec = SyntheticSpec(
        num_nodes=30,
        fraud_ratio=0.2,
        num_relations=2,
        mean_degree=4.0,
        fraud_homophily=0.4,
        benign_homophily=0.8,
        feature_dim=6,
        seed=seed,
    )
    graph = generate_synthetic(spec)
    config = TrainConfig(ablation=ablation, dropout=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    model = DualChannelModel(graph, config, rng)
    partitions = model.forward(training=False).partitions
    node_batch, edge_batches = epoch_batches(model.graph, training_edge_sets(model), rng)

    def forward():
        return model.forward(
            training=True, node_batch=node_batch, edge_batches=edge_batches, partitions=partitions
        ).loss_total

    return grad_check(forward, model.params, probe=probe, rng=np.random.default_rng(seed))


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if not 0 < args.eps < np.inf:
        raise ConfigError(f"--eps must be finite and positive, got {args.eps}")
    ablations = ABLATIONS if args.ablation is None else (args.ablation,)
    worst_name, worst_err = "", 0.0
    for ablation in ablations:
        errors = gradcheck_model(ablation, args.seed, args.eps)
        for name, err in sorted(errors.items()):
            print(f"[{ablation}] {name}: {err:.3e}")
            if err > worst_err:
                worst_name, worst_err = f"[{ablation}] {name}", err
    if worst_err < GRADCHECK_TOLERANCE:
        print(f"gradcheck passed: max relative error {worst_err:.3e} < {GRADCHECK_TOLERANCE}")
        return 0
    print(f"gradcheck FAILED: {worst_name} relative error {worst_err:.3e} >= {GRADCHECK_TOLERANCE}")
    return 3


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(**_given_fields(args, SyntheticSpec))
    manifest = write_dataset(generate_synthetic(spec), args.out)
    print(f"dataset written, manifest at {manifest}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration problem: usage and an ``error:`` line, exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dualmp", description="dual-channel message-passing fraud detection"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write log, checkpoint and metrics")
    p_train.add_argument("--data", required=True, help="dataset manifest path")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--config", default=None, help="key-value overrides file")
    _add_field_flags(p_train, TrainConfig)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=("train", "val", "test"), default="test")
    p_eval.add_argument("--export-embeddings", default=None, help="write fused embeddings CSV here")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p_grad.add_argument("--ablation", choices=ABLATIONS, default=None, help="default: check all wirings")
    p_grad.add_argument("--seed", type=int, default=7, help="default: %(default)s")
    p_grad.add_argument("--eps", type=float, default=1e-3, help="finite-difference probe size")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="generate a synthetic camouflage dataset")
    p_synth.add_argument("--out", required=True)
    _add_field_flags(p_synth, SyntheticSpec)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, ConfigError, GraphFormatError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
