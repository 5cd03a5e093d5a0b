"""Dataset loading, synthetic graph generation, checkpoints and embedding export.

Datasets live in a plain text schema: a key-value manifest pointing at
comma-separated feature/label/edge files and an optional split file.
numpy reads and writes those three tables (``np.loadtxt`` / ``np.savetxt``).
Checkpoints are binary (magic ``DHMP``) for exact round-trips.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .autodiff import ParamStore
from .graphs import GraphFormatError, MultiRelationGraph, NodeSplit, build_csr, symmetrize

CHECKPOINT_MAGIC = b"DHMP"
CHECKPOINT_VERSION = 1
SPLIT_FRACTIONS = (0.4, 0.2, 0.4)  # train, val, test share of each class
INT64 = np.iinfo(np.int64)
MANIFEST_KEYS = ("num_nodes", "feature_dim", "features", "labels", "splits", "symmetrize", "relation")


class DatasetError(ValueError):
    """A dataset file or manifest is malformed."""


class CheckpointError(ValueError):
    """A checkpoint file cannot be read or does not match its consumer."""


# ---------------------------------------------------------------------------
# splits


def stratified_split(labels, rng: np.random.Generator) -> NodeSplit:
    """Random per-class split by ``SPLIT_FRACTIONS`` within each class, remainder to test.

    Every non-empty class contributes at least one train node so that tiny
    fixtures stay trainable.
    """
    labels = np.asarray(labels)
    train, val, test = [], [], []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if len(members) == 0:
            continue
        rng.shuffle(members)
        n_train = max(1, int(np.floor(SPLIT_FRACTIONS[0] * len(members))))
        n_val = int(np.floor(SPLIT_FRACTIONS[1] * len(members)))
        train.append(members[:n_train])
        val.append(members[n_train : n_train + n_val])
        test.append(members[n_train + n_val :])
    return NodeSplit(
        train=np.sort(np.concatenate(train)),
        val=np.sort(np.concatenate(val)),
        test=np.sort(np.concatenate(test)),
    )


# ---------------------------------------------------------------------------
# manifest datasets


def read_lines(path, error: type[ValueError] = DatasetError) -> list[str]:
    """The stripped ``\\n``-separated lines of a UTF-8 text file; a byte that is not UTF-8 raises ``error``.

    A ``\\r`` ends no line: before ``\\n`` it is stripped, elsewhere it stays part of the line.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return [line.strip() for line in fh.read().split("\n")]
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start} is not UTF-8 text") from None


def _parse_int(token: str, where: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise DatasetError(f"{where}: {token!r} is not an integer") from None
    if not INT64.min <= value <= INT64.max:
        raise DatasetError(f"{where}: {token!r} is beyond int64")
    return value


def _read_table(path: Path, width: int, dtype) -> np.ndarray:
    """The comma-separated rows of a table file as a ``(rows, width)`` array; blank lines are skipped."""
    lines = read_lines(path)
    rows = [line for line in lines if line]
    if not rows:
        return np.empty((0, width), dtype=dtype)
    failure = None
    try:
        table = np.loadtxt(rows, delimiter=",", dtype=dtype, ndmin=2, comments=None)
    except ValueError as exc:
        failure = exc
    if failure is None and table.shape[1] == width:
        return table
    for i, line in enumerate(lines):
        n = line.count(",") + 1
        if line and n != width:
            raise DatasetError(f"{path}: row {i} has {n} values, expected {width}")
    raise DatasetError(f"{path}: {failure}")


def _read_features(path: Path, num_nodes: int, feature_dim: int) -> np.ndarray:
    features = _read_table(path, feature_dim, np.float64)
    if len(features) != num_nodes:
        raise DatasetError(f"{path}: {len(features)} feature rows for {num_nodes} nodes")
    if not np.isfinite(features).all():
        node = np.flatnonzero(~np.isfinite(features).all(axis=1))[0]
        raise DatasetError(f"{path}: feature row of node {node} is not all finite")
    return features


def _read_labels(path: Path, num_nodes: int) -> np.ndarray:
    labels = _read_table(path, 1, np.int64)[:, 0]
    if len(labels) != num_nodes:
        raise DatasetError(f"{path}: {len(labels)} labels for {num_nodes} nodes")
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if len(bad):
        raise DatasetError(f"{path}: label of node {bad[0]} must be 0 or 1, got {labels[bad[0]]}")
    return labels


def _read_splits(path: Path) -> NodeSplit:
    parts: dict[str, np.ndarray] = {}
    for line in read_lines(path):
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        if key not in ("train", "val", "test"):
            raise DatasetError(f"{path}: unknown split section {key!r}")
        if key in parts:
            raise DatasetError(f"{path}: split section {key!r} given twice")
        where = f"{path}: {key}"
        parts[key] = np.asarray([_parse_int(v, where) for v in rest.split()], dtype=np.int64)
    missing = {"train", "val", "test"} - parts.keys()
    if missing:
        raise DatasetError(f"{path}: missing split sections {sorted(missing)}")
    return NodeSplit(train=parts["train"], val=parts["val"], test=parts["test"])


def load_dataset(manifest_path, split_seed: int = 0, force_symmetrize: bool = False) -> MultiRelationGraph:
    """Load a graph from a manifest; generates a stratified split when none is given.

    Every manifest key but ``relation`` takes one value, once. ``force_symmetrize`` adds
    reverse edges even when the manifest's ``symmetrize`` is ``false``.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DatasetError(f"manifest not found: {manifest_path}")
    base = manifest_path.parent
    num_nodes = feature_dim = None
    relation_files: list[tuple[str, Path]] = []
    paths: dict[str, Path] = {}
    do_symmetrize = False
    seen: set[str] = set()

    for i, line in enumerate(read_lines(manifest_path), start=1):
        if not line or line.startswith("#"):
            continue
        key, *values = line.split()
        where = f"{manifest_path}: line {i}"
        if key not in MANIFEST_KEYS:
            raise DatasetError(f"{where}: unknown key {key!r}")
        if not values:
            raise DatasetError(f"{where}: {key} needs a value")
        if key == "relation":
            if len(values) != 2:
                raise DatasetError(f"{where}: relation needs a name and a path")
            relation_files.append((values[0], base / values[1]))
            continue
        if len(values) != 1:
            raise DatasetError(f"{where}: {key} takes one value, got {len(values)}")
        if key in seen:
            raise DatasetError(f"{where}: {key} given twice")
        seen.add(key)
        (value,) = values
        if key == "num_nodes":
            num_nodes = _parse_int(value, f"{where}: num_nodes")
        elif key == "feature_dim":
            feature_dim = _parse_int(value, f"{where}: feature_dim")
        elif key == "symmetrize":
            if value not in ("true", "false"):
                raise DatasetError(f"{where}: symmetrize must be true or false, got {value!r}")
            do_symmetrize = value == "true"
        else:
            paths[key] = base / value

    if num_nodes is None or feature_dim is None:
        raise DatasetError(f"{manifest_path}: num_nodes and feature_dim are required")
    if not relation_files:
        raise DatasetError(f"{manifest_path}: at least one relation is required")
    for key in ("features", "labels"):
        if key not in paths:
            raise DatasetError(f"{manifest_path}: missing {key} entry")
        if not paths[key].exists():
            raise DatasetError(f"{key} file not found: {paths[key]}")

    features = _read_features(paths["features"], num_nodes, feature_dim)
    labels = _read_labels(paths["labels"], num_nodes)

    relations = []
    for name, path in relation_files:
        if not path.exists():
            raise DatasetError(f"edge file not found: {path}")
        pairs = _read_table(path, 2, np.int64)
        if do_symmetrize or force_symmetrize:
            pairs = symmetrize(pairs)
        try:
            relations.append(build_csr(pairs, num_nodes, name=name))
        except GraphFormatError as exc:
            raise DatasetError(f"{path}: {exc}") from None

    if "splits" in paths:
        if not paths["splits"].exists():
            raise DatasetError(f"splits file not found: {paths['splits']}")
        split = _read_splits(paths["splits"])
    else:
        split = stratified_split(labels, np.random.default_rng(split_seed))

    graph = MultiRelationGraph(features=features, labels=labels, relations=relations, split=split)
    graph.validate()
    return graph


# ---------------------------------------------------------------------------
# synthetic camouflage graphs


@dataclass
class SyntheticSpec:
    """Controls for the synthetic fraud-camouflage generator.

    Features are class-conditional spherical Gaussians whose means sit
    ``separation`` apart; each node draws a Poisson number of edges whose
    endpoints are same-class with its class's homophily probability.
    """

    num_nodes: int = 1000
    fraud_ratio: float = 0.1
    num_relations: int = 1
    mean_degree: float = 10.0
    fraud_homophily: float = 0.5
    benign_homophily: float = 0.9
    feature_dim: int = 16
    separation: float = 2.0
    noise: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        # every range test below is false for NaN, so non-finite values go first
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise DatasetError(f"{f.name} must be finite, got {value}")
        if not 0 < self.fraud_ratio < 1:
            raise DatasetError(f"fraud_ratio must be in (0, 1), got {self.fraud_ratio}")
        for name in ("fraud_homophily", "benign_homophily"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise DatasetError(f"{name} must be in [0, 1], got {v}")
        if self.num_nodes < 4 or int(self.num_nodes * self.fraud_ratio) < 1:
            raise DatasetError("num_nodes too small for the requested fraud_ratio")
        if self.num_relations < 1 or self.feature_dim < 1:
            raise DatasetError("num_relations and feature_dim must be at least 1")
        if self.mean_degree <= 0 or self.noise < 0 or self.separation < 0:
            raise DatasetError("mean_degree must be positive; separation and noise non-negative")
        if self.mean_degree >= self.num_nodes:
            # a node has at most num_nodes - 1 distinct neighbours
            raise DatasetError(f"mean_degree must be below num_nodes ({self.num_nodes}), got {self.mean_degree}")
        if self.seed < 0:
            raise DatasetError(f"seed must be non-negative, got {self.seed}")


def generate_synthetic(spec: SyntheticSpec) -> MultiRelationGraph:
    """Build a labeled multi-relation graph per the spec, deterministic under seed."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.num_nodes
    n_fraud = int(np.floor(n * spec.fraud_ratio))

    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, size=n_fraud, replace=False)] = 1
    fraud_nodes = np.flatnonzero(labels == 1)
    benign_nodes = np.flatnonzero(labels == 0)

    direction = np.full(spec.feature_dim, 1.0 / np.sqrt(spec.feature_dim))
    features = spec.noise * rng.standard_normal((n, spec.feature_dim))
    features[labels == 1] += spec.separation * direction

    homophily = np.where(labels == 1, spec.fraud_homophily, spec.benign_homophily)
    relations = []
    for r in range(spec.num_relations):
        counts = rng.poisson(spec.mean_degree, size=n)
        sources = np.repeat(np.arange(n), counts)
        same_class = rng.random(len(sources)) < homophily[sources]
        own = labels[sources] == 1
        pick_fraud = same_class == own  # fraud picks fraud when same, benign when different
        targets = np.where(
            pick_fraud,
            fraud_nodes[rng.integers(0, len(fraud_nodes), size=len(sources))],
            benign_nodes[rng.integers(0, len(benign_nodes), size=len(sources))],
        )
        pairs = np.stack([sources, targets], axis=1)
        relations.append(build_csr(pairs, n, name=f"rel{r}"))

    split = stratified_split(labels, rng)
    graph = MultiRelationGraph(features=features, labels=labels, relations=relations, split=split)
    graph.validate()
    return graph


def write_dataset(graph: MultiRelationGraph, out_dir) -> Path:
    """Write a graph in the manifest schema; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    np.savetxt(out_dir / "features.csv", graph.features, fmt="%.12g", delimiter=",")
    np.savetxt(out_dir / "labels.csv", graph.labels, fmt="%d")
    with open(out_dir / "splits.txt", "w") as fh:
        for name, idx in (("train", graph.split.train), ("val", graph.split.val), ("test", graph.split.test)):
            fh.write(f"{name}: " + " ".join(str(i) for i in idx) + "\n")
    for rel in graph.relations:
        np.savetxt(out_dir / f"edges_{rel.name}.csv", rel.edge_pairs(), fmt="%d", delimiter=",")

    manifest = out_dir / "manifest.txt"
    with open(manifest, "w") as fh:
        fh.write(f"num_nodes {graph.num_nodes}\n")
        fh.write(f"feature_dim {graph.feature_dim}\n")
        fh.write("features features.csv\n")
        fh.write("labels labels.csv\n")
        fh.write("splits splits.txt\n")
        fh.write("symmetrize false\n")
        for rel in graph.relations:
            fh.write(f"relation {rel.name} edges_{rel.name}.csv\n")
    return manifest


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(store: ParamStore, meta: dict, path) -> None:
    """Binary parameter dump: magic, version, JSON section table, little-endian f64 payload."""
    sections = []
    offset = 0
    for name, p in store.items():
        rows, cols = p.data.shape
        sections.append({"name": name, "rows": rows, "cols": cols, "offset": offset})
        offset += rows * cols * 8
    header = json.dumps({"meta": meta, "sections": sections}, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for _, p in store.items():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint back into {name: array} plus its saved metadata."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}, not a checkpoint")
    if len(blob) < 12:
        raise CheckpointError(f"{path}: truncated header")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<I", blob[8:12])
    if len(blob) < 12 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[12 : 12 + header_len])
    except ValueError as exc:  # JSON syntax and UTF-8 decoding errors alike
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
    if not isinstance(header, dict) or not {"meta", "sections"} <= header.keys():
        raise CheckpointError(f"{path}: header needs 'meta' and 'sections'")
    if not isinstance(header["sections"], list):
        raise CheckpointError(f"{path}: 'sections' must be a list")
    payload = blob[12 + header_len :]

    params: dict[str, np.ndarray] = {}
    for section in header["sections"]:
        if not isinstance(section, dict) or not {"name", "rows", "cols", "offset"} <= section.keys():
            raise CheckpointError(f"{path}: section {section!r} needs name, rows, cols and offset")
        name = section["name"]
        if not isinstance(name, str):
            raise CheckpointError(f"{path}: section name {name!r} is not a string")
        sizes = [section[key] for key in ("rows", "cols", "offset")]
        # bool is an int subclass, and JSON true must not pass for 1
        if not all(type(v) is int and v >= 0 for v in sizes):
            raise CheckpointError(f"{path}: section {name!r} needs non-negative int rows, cols and offset")
        rows, cols, offset = sizes
        nbytes = rows * cols * 8
        if offset + nbytes > len(payload):
            raise CheckpointError(f"{path}: truncated payload in section {name!r}")
        values = np.frombuffer(payload[offset : offset + nbytes], dtype="<f8").reshape(rows, cols).copy()
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: non-finite value in section {name!r}")
        params[name] = values
    return params, header["meta"]


def restore_into(store: ParamStore, params: dict[str, np.ndarray]) -> None:
    """Load checkpoint arrays into an existing store, checking names and shapes."""
    missing = set(store.names()) - params.keys()
    extra = params.keys() - set(store.names())
    if missing or extra:
        raise CheckpointError(
            f"checkpoint does not match model: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    for name, p in store.items():
        if params[name].shape != p.data.shape:
            raise CheckpointError(
                f"parameter {name!r}: checkpoint shape {params[name].shape} vs model {p.data.shape}"
            )
    for name, p in store.items():
        p.data[...] = params[name]


# ---------------------------------------------------------------------------
# embeddings


def export_embeddings(embeddings: np.ndarray, labels, path) -> None:
    """CSV export: node id, label, embedding values (12 significant digits)."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if embeddings.shape[0] != len(labels):
        raise ValueError(f"{embeddings.shape[0]} embedding rows for {len(labels)} labels")
    width = embeddings.shape[1]
    with open(path, "w") as fh:
        fh.write("node,label," + ",".join(f"e{i}" for i in range(width)) + "\n")
        for i, row in enumerate(embeddings):
            fh.write(f"{i},{labels[i]}," + ",".join(f"{v:.12g}" for v in row) + "\n")
