"""Dual-channel heterophily-aware message passing for graph fraud detection."""

from .autodiff import ParamStore, TensorValue, backward, grad_check, tensor
from .data import (
    CheckpointError,
    DatasetError,
    SyntheticSpec,
    export_embeddings,
    generate_synthetic,
    load_checkpoint,
    load_dataset,
    restore_into,
    save_checkpoint,
    stratified_split,
    write_dataset,
)
from .graphs import (
    EdgePartition,
    GraphFormatError,
    MultiRelationGraph,
    NodeSplit,
    RelationAdjacency,
    build_csr,
    merge_relations,
    node_index,
    partition_subgraphs,
)
from .metrics import MetricsReport, evaluate, roc_auc
from .model import ConfigError, DualChannelModel, ForwardResult, TrainConfig
from .training import Adam, FitResult, NumericalError, evaluate_split, fit

__all__ = [
    "Adam",
    "CheckpointError",
    "ConfigError",
    "DatasetError",
    "DualChannelModel",
    "EdgePartition",
    "FitResult",
    "ForwardResult",
    "GraphFormatError",
    "MetricsReport",
    "MultiRelationGraph",
    "NodeSplit",
    "NumericalError",
    "ParamStore",
    "RelationAdjacency",
    "SyntheticSpec",
    "TensorValue",
    "TrainConfig",
    "backward",
    "build_csr",
    "evaluate",
    "evaluate_split",
    "export_embeddings",
    "fit",
    "generate_synthetic",
    "grad_check",
    "load_checkpoint",
    "load_dataset",
    "merge_relations",
    "node_index",
    "partition_subgraphs",
    "restore_into",
    "roc_auc",
    "save_checkpoint",
    "stratified_split",
    "tensor",
    "write_dataset",
]

__version__ = "0.1.0"
