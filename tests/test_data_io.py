import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmp.autodiff import ParamStore
from dualmp.data import (
    CHECKPOINT_MAGIC,
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
from dualmp.graphs import GraphFormatError


def write_fixture(tmp_path, features, labels, edges, manifest_lines=None):
    (tmp_path / "features.csv").write_text("\n".join(features) + "\n")
    (tmp_path / "labels.csv").write_text("\n".join(labels) + "\n")
    (tmp_path / "edges.csv").write_text("\n".join(edges) + ("\n" if edges else ""))
    manifest = manifest_lines or [
        "num_nodes 3",
        "feature_dim 2",
        "features features.csv",
        "labels labels.csv",
        "relation net edges.csv",
    ]
    path = tmp_path / "manifest.txt"
    path.write_text("\n".join(manifest) + "\n")
    return path


class TestLoadDataset:
    def test_three_node_fixture(self, tmp_path):
        manifest = write_fixture(
            tmp_path,
            features=["1.0,2.0", "3.0,4.0", "5.0,6.0"],
            labels=["0", "1", "0"],
            edges=["0,1", "1,2"],
        )
        graph = load_dataset(manifest)
        assert graph.num_nodes == 3
        assert graph.num_relations == 1
        assert graph.relations[0].edge_count == 2
        assert graph.labels.tolist() == [0, 1, 0]
        assert graph.features[1].tolist() == [3.0, 4.0]

    def test_feature_dim_mismatch_names_row(self, tmp_path):
        manifest = write_fixture(
            tmp_path,
            features=["1.0,2.0", "3.0", "5.0,6.0"],
            labels=["0", "1", "0"],
            edges=["0,1"],
        )
        with pytest.raises(DatasetError, match="row 1"):
            load_dataset(manifest)

    def test_non_binary_label_rejected(self, tmp_path):
        manifest = write_fixture(
            tmp_path,
            features=["1.0,2.0", "3.0,4.0", "5.0,6.0"],
            labels=["0", "2", "0"],
            edges=["0,1"],
        )
        with pytest.raises(DatasetError, match="0 or 1"):
            load_dataset(manifest)

    def test_missing_manifest_names_path(self, tmp_path):
        with pytest.raises(DatasetError, match="nowhere.txt"):
            load_dataset(tmp_path / "nowhere.txt")

    def test_missing_edge_file(self, tmp_path):
        manifest = write_fixture(
            tmp_path,
            features=["1.0,2.0", "3.0,4.0", "5.0,6.0"],
            labels=["0", "1", "0"],
            edges=["0,1"],
            manifest_lines=[
                "num_nodes 3", "feature_dim 2", "features features.csv",
                "labels labels.csv", "relation net missing.csv",
            ],
        )
        with pytest.raises(DatasetError, match="missing.csv"):
            load_dataset(manifest)

    def test_edge_out_of_range_reported(self, tmp_path):
        manifest = write_fixture(
            tmp_path,
            features=["1.0,2.0", "3.0,4.0", "5.0,6.0"],
            labels=["0", "1", "0"],
            edges=["0,9"],
        )
        with pytest.raises(DatasetError, match=r"\(0, 9\)"):
            load_dataset(manifest)

    def test_symmetrize_flag(self, tmp_path):
        manifest = write_fixture(
            tmp_path,
            features=["1.0,2.0", "3.0,4.0", "5.0,6.0"],
            labels=["0", "1", "0"],
            edges=["0,1"],
            manifest_lines=[
                "num_nodes 3", "feature_dim 2", "features features.csv",
                "labels labels.csv", "symmetrize true", "relation net edges.csv",
            ],
        )
        graph = load_dataset(manifest)
        assert graph.relations[0].edge_count == 2

    def test_split_file_round_trip(self, tmp_path):
        (tmp_path / "splits.txt").write_text("train: 0 1\nval: 2\ntest:\n")
        manifest = write_fixture(
            tmp_path,
            features=["1.0,2.0", "3.0,4.0", "5.0,6.0"],
            labels=["0", "1", "0"],
            edges=["0,1"],
            manifest_lines=[
                "num_nodes 3", "feature_dim 2", "features features.csv",
                "labels labels.csv", "splits splits.txt", "relation net edges.csv",
            ],
        )
        graph = load_dataset(manifest)
        assert graph.split.train.tolist() == [0, 1]
        assert graph.split.val.tolist() == [2]
        assert graph.split.test.tolist() == []

    def test_default_split_is_stratified_and_seeded(self, tmp_path):
        spec = SyntheticSpec(num_nodes=200, fraud_ratio=0.2, seed=3)
        manifest = write_dataset(generate_synthetic(spec), tmp_path / "ds")
        # drop the splits line to trigger default generation
        text = (tmp_path / "ds" / "manifest.txt").read_text()
        (tmp_path / "ds" / "manifest.txt").write_text(
            "\n".join(l for l in text.splitlines() if not l.startswith("splits")) + "\n"
        )
        a = load_dataset(manifest, split_seed=5)
        b = load_dataset(manifest, split_seed=5)
        assert a.split.train.tolist() == b.split.train.tolist()
        fraud_frac = (a.labels[a.split.train] == 1).mean()
        assert fraud_frac == pytest.approx(0.2, abs=0.02)
        assert len(a.split.train) == pytest.approx(80, abs=2)


FIVE_NODES = [
    "num_nodes 5", "feature_dim 2", "features features.csv", "labels labels.csv", "relation net edges.csv"
]


class TestTables:
    def test_loaded_tables_equal_python_parse_of_written_files(self, tmp_path):
        graph = generate_synthetic(
            SyntheticSpec(num_nodes=80, fraud_ratio=0.2, num_relations=2, mean_degree=4.0, seed=11)
        )
        root = write_dataset(graph, tmp_path / "ds").parent
        loaded = load_dataset(root / "manifest.txt")

        def parsed(name, parse):
            lines = (root / name).read_text().splitlines()
            return [[parse(token) for token in line.split(",")] for line in lines]

        assert loaded.features.tobytes() == np.array(parsed("features.csv", float)).tobytes()
        assert loaded.labels.tolist() == [label for (label,) in parsed("labels.csv", int)]
        assert len(loaded.relations) == 2
        for rel in loaded.relations:
            assert rel.edge_pairs().tolist() == parsed(f"edges_{rel.name}.csv", int)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "\n \n\n"], ids=["empty", "blank-only"])
    def test_empty_edge_file_is_a_zero_edge_relation(self, tmp_path, text):
        manifest = write_fixture(
            tmp_path, features=["1.0,2.0", "3.0,4.0", "5.0,6.0"], labels=["0", "1", "0"], edges=[]
        )
        (tmp_path / "edges.csv").write_text(text)
        graph = load_dataset(manifest)
        assert graph.relations[0].edge_count == 0
        assert graph.relations[0].offsets.tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize(
        "line, message",
        [("1_0,2", "'1_0'"), ("1,2\r3,4", "row 0 has 3 values, expected 2")],
        ids=["underscore", "carriage-return"],
    )
    def test_malformed_edge_line_rejected(self, tmp_path, line, message):
        # five nodes, so that every number in these lines is an in-range endpoint
        manifest = write_fixture(
            tmp_path,
            features=["0,0"] * 5,
            labels=["0", "1", "0", "1", "0"],
            edges=[line],
            manifest_lines=FIVE_NODES,
        )
        with pytest.raises(DatasetError, match="edges.csv") as err:
            load_dataset(manifest)
        assert message in str(err.value)


class TestStratifiedSplit:
    def test_fractions_and_disjointness(self):
        labels = np.array([0] * 80 + [1] * 20)
        split = stratified_split(labels, np.random.default_rng(0))
        assert len(split.train) == 40 and len(split.val) == 20 and len(split.test) == 40
        assert (labels[split.train] == 1).sum() == 8
        all_idx = np.concatenate([split.train, split.val, split.test])
        assert len(np.unique(all_idx)) == 100


class TestSynthetic:
    def test_exact_fraud_count(self):
        graph = generate_synthetic(SyntheticSpec(num_nodes=1000, fraud_ratio=0.1, seed=0))
        assert (graph.labels == 1).sum() == 100

    def test_full_homophily_keeps_edges_within_class(self):
        spec = SyntheticSpec(num_nodes=300, fraud_ratio=0.2, fraud_homophily=1.0,
                             benign_homophily=1.0, seed=1)
        graph = generate_synthetic(spec)
        rel = graph.relations[0]
        src, tgt = rel.edge_sources, rel.targets
        assert (graph.labels[src] == graph.labels[tgt]).all()

    def test_zero_fraud_homophily_makes_fraud_edges_cross(self):
        spec = SyntheticSpec(num_nodes=300, fraud_ratio=0.2, fraud_homophily=0.0, seed=2)
        graph = generate_synthetic(spec)
        rel = graph.relations[0]
        src, tgt = rel.edge_sources, rel.targets
        from_fraud = graph.labels[src] == 1
        assert (graph.labels[tgt[from_fraud]] == 0).all()

    def test_empirical_homophily_matches_spec(self):
        # 1e5+ edges keeps the sampling error well under the 0.01 budget
        spec = SyntheticSpec(num_nodes=10000, fraud_ratio=0.1, mean_degree=12.0,
                             fraud_homophily=0.3, benign_homophily=0.9, seed=3)
        graph = generate_synthetic(spec)
        rel = graph.relations[0]
        assert rel.edge_count > 100_000
        src, tgt = rel.edge_sources, rel.targets
        same = graph.labels[src] == graph.labels[tgt]
        for cls, want in ((1, 0.3), (0, 0.9)):
            mask = graph.labels[src] == cls
            assert same[mask].mean() == pytest.approx(want, abs=0.01)

    def test_class_mean_separation(self):
        spec = SyntheticSpec(num_nodes=5000, fraud_ratio=0.5, separation=3.0, noise=1.0, seed=4)
        graph = generate_synthetic(spec)
        mean_fraud = graph.features[graph.labels == 1].mean(axis=0)
        mean_benign = graph.features[graph.labels == 0].mean(axis=0)
        assert np.linalg.norm(mean_fraud - mean_benign) == pytest.approx(3.0, abs=0.15)

    def test_deterministic_under_seed(self):
        a = generate_synthetic(SyntheticSpec(num_nodes=100, seed=9))
        b = generate_synthetic(SyntheticSpec(num_nodes=100, seed=9))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.relations[0].targets, b.relations[0].targets)

    def test_invalid_probability_rejected(self):
        with pytest.raises(DatasetError, match="fraud_homophily"):
            generate_synthetic(SyntheticSpec(num_nodes=100, fraud_homophily=1.5))


class TestWriteDataset:
    def test_round_trips_through_loader(self, tmp_path):
        graph = generate_synthetic(SyntheticSpec(num_nodes=50, fraud_ratio=0.2, num_relations=2, seed=5))
        manifest = write_dataset(graph, tmp_path / "ds")
        loaded = load_dataset(manifest)
        assert np.abs(loaded.features - graph.features).max() < 1e-9
        assert np.array_equal(loaded.labels, graph.labels)
        assert loaded.split.train.tolist() == sorted(graph.split.train.tolist())
        for a, b in zip(loaded.relations, graph.relations):
            assert np.array_equal(a.offsets, b.offsets)
            assert np.array_equal(a.targets, b.targets)

    def test_byte_identical_across_runs(self, tmp_path):
        spec = SyntheticSpec(num_nodes=40, seed=6)
        m1 = write_dataset(generate_synthetic(spec), tmp_path / "a")
        m2 = write_dataset(generate_synthetic(spec), tmp_path / "b")
        for name in ("manifest.txt", "features.csv", "labels.csv", "splits.txt", "edges_rel0.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def random_store(seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    store.add("layer/weight", rng.normal(size=(4, 3)))
    store.add("layer/bias", rng.normal(size=(1, 3)), decay=False)
    store.add("head", rng.normal(size=(6, 2)))
    return store


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        store = random_store()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(store, {"note": "x"}, path)
        params, meta = load_checkpoint(path)
        assert meta == {"note": "x"}
        for name, p in store.items():
            assert np.array_equal(params[name], p.data)
            assert params[name].dtype == np.float64

    def test_restore_into_matching_store(self, tmp_path):
        store = random_store()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(store, {}, path)
        target = random_store(seed=9)
        params, _ = load_checkpoint(path)
        restore_into(target, params)
        for name, p in store.items():
            assert np.array_equal(target[name].data, p.data)

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(random_store(), {}, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(random_store(), {}, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(random_store(), {}, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [
            b"#not json",
            b'{"meta": {"x": "\xff"}}',  # invalid UTF-8
            b'{"sections": []}',
            b'{"meta": {}}',
            b'{"meta": {}, "sections": [{"name": "w", "rows": 1, "cols": 1}]}',
        ],
        ids=["json", "utf8", "no-meta", "no-sections", "section-without-offset"],
    )
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(header)) + header + bytes(8))
        with pytest.raises(CheckpointError, match="ckpt.bin"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "sections",
        [
            b"5",
            b'[{"name": "w", "rows": "1", "cols": 1, "offset": 0}]',
            b'[{"name": "w", "rows": 1, "cols": 1.0, "offset": 0}]',
            b'[{"name": "w", "rows": true, "cols": 1, "offset": 0}]',
            b'[{"name": "w", "rows": -1, "cols": 1, "offset": 0}]',
            b'[{"name": "w", "rows": 1, "cols": 1, "offset": -8}]',
            b'[{"name": ["w"], "rows": 1, "cols": 1, "offset": 0}]',
        ],
        ids=["sections-not-list", "string-rows", "float-cols", "bool-rows", "negative-rows",
             "negative-offset", "list-name"],
    )
    def test_mistyped_section_fields(self, tmp_path, sections):
        # each header is well-formed JSON over a payload that holds one value
        header = b'{"meta": {}, "sections": ' + sections + b"}"
        path = tmp_path / "ckpt.bin"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(header)) + header + bytes(8))
        with pytest.raises(CheckpointError, match="ckpt.bin"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        store = random_store()
        store["head"].data[3, 1] = value
        path = tmp_path / "ckpt.bin"
        save_checkpoint(store, {}, path)
        with pytest.raises(CheckpointError, match="non-finite value in section 'head'"):
            load_checkpoint(path)

    def test_shape_mismatch_on_restore(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(random_store(), {}, path)
        params, _ = load_checkpoint(path)
        other = ParamStore()
        other.add("layer/weight", np.zeros((2, 2)))
        other.add("layer/bias", np.zeros((1, 3)))
        other.add("head", np.zeros((6, 2)))
        with pytest.raises(CheckpointError, match="shape"):
            restore_into(other, params)

    def test_name_mismatch_on_restore(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(random_store(), {}, path)
        params, _ = load_checkpoint(path)
        other = ParamStore()
        other.add("something/else", np.zeros((1, 1)))
        with pytest.raises(CheckpointError, match="does not match"):
            restore_into(other, params)

    def test_magic_is_stable(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(random_store(), {}, path)
        assert path.read_bytes()[:4] == CHECKPOINT_MAGIC == b"DHMP"


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "valid.bin"
    save_checkpoint(random_store(), {"train_config": {"seed": 0, "ablation": "full"}}, path)
    return path.read_bytes()


# JSON punctuation, and the high bytes that turn a float's exponent all ones
TELLING_BYTES = b'-.e"[]{},:0 \x7f\xff'


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_single_byte_change_loads_or_raises_checkpoint_error(checkpoint_bytes, tmp_path_factory, data):
    position = data.draw(st.integers(0, len(checkpoint_bytes) - 1), label="position")
    value = data.draw(st.integers(0, 255), label="value")
    path = tmp_path_factory.getbasetemp() / "mutated.bin"
    for byte in bytes([value]) + TELLING_BYTES:
        blob = bytearray(checkpoint_bytes)
        blob[position] = byte
        path.write_bytes(bytes(blob))
        try:
            params, _ = load_checkpoint(path)
        except CheckpointError:
            continue
        assert all(np.isfinite(v).all() for v in params.values())


@pytest.fixture(scope="module")
def dataset_files(tmp_path_factory):
    """Every file of a small valid dataset directory, by name."""
    graph = generate_synthetic(
        SyntheticSpec(num_nodes=12, fraud_ratio=0.25, num_relations=2, mean_degree=2.0, feature_dim=2, seed=1)
    )
    root = write_dataset(graph, tmp_path_factory.mktemp("dataset")).parent
    return {path.name: path.read_bytes() for path in root.iterdir()}


# not UTF-8, a sign, an exponent, and the separators of the text schema
DATASET_TELLING_BYTES = b"\xff-e,:\n"


@pytest.mark.parametrize(
    "name", ["manifest.txt", "features.csv", "labels.csv", "splits.txt", "edges_rel0.csv", "edges_rel1.csv"]
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_single_byte_change_loads_or_raises_dataset_error(dataset_files, tmp_path_factory, name, data):
    assert name in dataset_files
    position = data.draw(st.integers(0, len(dataset_files[name]) - 1), label="position")
    value = data.draw(st.integers(0, 255), label="value")
    root = tmp_path_factory.getbasetemp() / "mutated"
    root.mkdir(exist_ok=True)
    for other, content in dataset_files.items():
        (root / other).write_bytes(content)
    for byte in bytes([value]) + DATASET_TELLING_BYTES:
        blob = bytearray(dataset_files[name])
        blob[position] = byte
        (root / name).write_bytes(bytes(blob))
        try:
            load_dataset(root / "manifest.txt")
        except (DatasetError, GraphFormatError):
            pass


class TestEmbeddings:
    def test_header_and_shape(self, tmp_path):
        path = tmp_path / "emb.csv"
        export_embeddings(np.arange(6.0).reshape(2, 3), [0, 1], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "node,label,e0,e1,e2"
        assert len(lines) == 3
        assert lines[1].split(",")[:2] == ["0", "0"]

    def test_values_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        emb = rng.normal(size=(10, 4)) * 100
        path = tmp_path / "emb.csv"
        export_embeddings(emb, np.zeros(10, dtype=int), path)
        rows = [line.split(",")[2:] for line in path.read_text().splitlines()[1:]]
        parsed = np.array([[float(v) for v in row] for row in rows])
        assert np.abs(parsed - emb).max() < 1e-9

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="labels"):
            export_embeddings(np.zeros((2, 2)), [0], tmp_path / "emb.csv")
