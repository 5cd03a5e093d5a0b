import json
import shutil
import struct

import numpy as np
import pytest

from dualmp.autodiff import ParamStore
from dualmp.cli import _rebuild_model, main
from dualmp.data import export_embeddings, load_checkpoint, save_checkpoint


def read_metrics(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split(" ", 1)
        out[key] = value
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    assert main(["synth", "--out", str(root), "--nodes", "120", "--fraud-ratio", "0.2",
                 "--mean-degree", "6", "--seed", "3"]) == 0
    return root / "manifest.txt"


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(dataset), "--out", str(out),
                 "--seed", "5", "--epochs", "8", "--patience", "8"])
    assert code == 0
    return out


class TestSynth:
    def test_writes_loadable_dataset(self, dataset):
        from dualmp.data import load_dataset

        graph = load_dataset(dataset)
        assert graph.num_nodes == 120
        assert (graph.labels == 1).sum() == 24  # floor(120 * 0.2)

    def test_same_seed_is_byte_identical(self, tmp_path):
        args = ["synth", "--nodes", "50", "--seed", "11"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("manifest.txt", "features.csv", "labels.csv", "splits.txt", "edges_rel0.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_multiple_relations_multiple_edge_files(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--nodes", "50", "--relations", "3"]) == 0
        for r in range(3):
            assert (tmp_path / f"edges_rel{r}.csv").exists()

    def test_invalid_probability_exits_one(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--fraud-homophily", "1.5"]) == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--mean-degree", "nan", "mean_degree must be finite, got nan"),
            ("--mean-degree", "inf", "mean_degree must be finite, got inf"),
            ("--mean-degree", "1e30", "mean_degree must be below num_nodes (50), got 1e+30"),
            ("--mean-degree", "50", "mean_degree must be below num_nodes (50), got 50.0"),
            ("--fraud-ratio", "nan", "fraud_ratio must be finite, got nan"),
            ("--separation", "-inf", "separation must be finite, got -inf"),
            ("--noise", "inf", "noise must be finite, got inf"),
            ("--seed", "-1", "seed must be non-negative, got -1"),
        ],
        ids=["mean-degree-nan", "mean-degree-inf", "mean-degree-1e30", "mean-degree-num-nodes",
             "fraud-ratio-nan", "separation-minus-inf", "noise-inf", "seed-negative"],
    )
    def test_bad_float_exits_one_with_error_line(self, tmp_path, capsys, flag, value, message):
        assert main(["synth", "--out", str(tmp_path / "ds"), "--nodes", "50", f"{flag}={value}"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "ds").exists()


class TestTrain:
    def test_outputs_exist(self, trained):
        assert (trained / "train_log.jsonl").exists()
        assert (trained / "checkpoint.bin").exists()
        assert (trained / "metrics.txt").exists()

    def test_log_structure(self, trained):
        lines = [json.loads(l) for l in (trained / "train_log.jsonl").read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[0]["config"]["seed"] == 5
        epochs = [l for l in lines if l["type"] == "epoch"]
        assert len(epochs) == 8
        assert {"loss_total", "val_auc"} <= set(epochs[0])

    def test_deterministic_metrics(self, dataset, tmp_path):
        args = ["train", "--data", str(dataset), "--seed", "5", "--epochs", "4", "--patience", "4"]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r1" / "metrics.txt").read_bytes() == (tmp_path / "r2" / "metrics.txt").read_bytes()
        assert (tmp_path / "r1" / "checkpoint.bin").read_bytes() == (tmp_path / "r2" / "checkpoint.bin").read_bytes()
        # logs differ only in the header timestamp
        body = lambda p: (p / "train_log.jsonl").read_text().splitlines()[1:]
        assert body(tmp_path / "r1") == body(tmp_path / "r2")

    def test_missing_manifest_exits_one(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]) == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_ablation_noted_and_parameters_reduced(self, dataset, tmp_path):
        out_full = tmp_path / "full"
        out_heter = tmp_path / "heter"
        base = ["train", "--data", str(dataset), "--seed", "5", "--epochs", "3", "--patience", "3"]
        assert main(base + ["--out", str(out_full)]) == 0
        assert main(base + ["--out", str(out_heter), "--ablation", "heter"]) == 0
        header = json.loads((out_heter / "train_log.jsonl").read_text().splitlines()[0])
        assert header["config"]["ablation"] == "heter"
        from dualmp.data import load_checkpoint

        full_params, _ = load_checkpoint(out_full / "checkpoint.bin")
        heter_params, _ = load_checkpoint(out_heter / "checkpoint.bin")
        count = lambda params: sum(v.size for v in params.values())
        assert count(heter_params) < count(full_params)

    def test_config_file_and_flag_precedence(self, dataset, tmp_path):
        cfg = tmp_path / "overrides.txt"
        cfg.write_text("epochs 3\npatience 2\nlearning_rate 0.05\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--out", str(out),
                     "--config", str(cfg), "--patience", "3", "--seed", "1"]) == 0
        header = json.loads((out / "train_log.jsonl").read_text().splitlines()[0])
        assert header["config"]["epochs"] == 3  # from file
        assert header["config"]["patience"] == 3  # flag wins over file
        assert header["config"]["learning_rate"] == 0.05

    def test_invalid_config_value_exits_one(self, dataset, tmp_path):
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "x"),
                     "--epochs", "0"]) == 1

    @pytest.mark.parametrize(
        "content, message",
        [
            ("learning_rate 0.1\nbogus 3\n", "line 2: unknown config key 'bogus'"),
            ("# overrides\nepochs abc\n", "line 2: epochs must be int, got 'abc'"),
            ("learning_rate 0.1\nlearning_rate 0.5\n", "line 2: learning_rate given twice"),
        ],
        ids=["unknown-key", "unparsable-value", "repeated-key"],
    )
    def test_config_error_names_its_line(self, dataset, tmp_path, capsys, content, message):
        cfg = tmp_path / "overrides.txt"
        cfg.write_text(content)
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "x"),
                     "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


class TestEval:
    def test_matches_training_metrics(self, dataset, trained, capsys):
        assert main(["eval", "--data", str(dataset), "--checkpoint",
                     str(trained / "checkpoint.bin")]) == 0
        printed = capsys.readouterr().out
        stored = read_metrics(trained / "metrics.txt")
        assert f"auc={float(stored['auc']):.4f}" in printed

    def test_val_split_flag(self, dataset, trained, capsys):
        assert main(["eval", "--data", str(dataset), "--checkpoint",
                     str(trained / "checkpoint.bin"), "--split", "val"]) == 0
        assert "val split:" in capsys.readouterr().out

    def test_relation_count_mismatch_exits_one(self, trained, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "r3"), "--nodes", "120",
                     "--fraud-ratio", "0.2", "--relations", "3", "--seed", "3"]) == 0
        code = main(["eval", "--data", str(tmp_path / "r3" / "manifest.txt"),
                     "--checkpoint", str(trained / "checkpoint.bin")])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_embedding_export(self, dataset, trained, tmp_path):
        out = tmp_path / "emb.csv"
        assert main(["eval", "--data", str(dataset), "--checkpoint",
                     str(trained / "checkpoint.bin"), "--export-embeddings", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("node,label,e0")
        assert len(lines) == 121

    def test_embedding_export_equals_taped_forward(self, dataset, trained, tmp_path):
        # the export runs without a tape; its file must not change by that
        out = tmp_path / "emb.csv"
        assert main(["eval", "--data", str(dataset), "--checkpoint",
                     str(trained / "checkpoint.bin"), "--export-embeddings", str(out)]) == 0
        model = _rebuild_model(str(dataset), str(trained / "checkpoint.bin"), symmetrize=False)
        model.config.dropout = 0.0  # so a training pass computes the evaluation numbers
        taped = model.forward(training=True).embeddings
        assert all(z._parents for z in taped)  # the reference did record a tape
        export_embeddings(np.hstack([z.data for z in taped]), model.graph.labels, tmp_path / "taped.csv")
        assert out.read_bytes() == (tmp_path / "taped.csv").read_bytes()


class TestGradcheck:
    def test_single_wiring_passes(self, capsys):
        assert main(["gradcheck", "--ablation", "sep"]) == 0
        assert "gradcheck passed" in capsys.readouterr().out

    def test_reports_per_parameter(self, capsys):
        assert main(["gradcheck", "--ablation", "heter"]) == 0
        out = capsys.readouterr().out
        assert "[heter]" in out and "filter_w" in out


def copy_dataset(manifest, dest):
    shutil.copytree(manifest.parent, dest)
    return dest / "manifest.txt"


def rewrite(path, edit):
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


def train_args(manifest, out):
    return ["train", "--data", str(manifest), "--out", str(out), "--epochs", "2", "--patience", "2"]


class TestBadInput:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_exits_one(self, dataset, tmp_path, capsys, value):
        manifest = copy_dataset(dataset, tmp_path / "data")
        rewrite(manifest.parent / "features.csv",
                lambda rows: rows[:3] + [value + rows[3][rows[3].index(","):]] + rows[4:])
        assert main(train_args(manifest, tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "features.csv" in err and "node 3" in err

    @pytest.mark.parametrize(
        "file, edit, message",
        [
            ("splits.txt", lambda rows: [rows[0] + " x7"] + rows[1:], "'x7' is not an integer"),
            ("manifest.txt", lambda rows: ["num_nodes abc"] + rows[1:], "'abc' is not an integer"),
            ("manifest.txt", lambda rows: ["num_nodes"] + rows[1:], "num_nodes needs a value"),
            ("config.txt", lambda rows: ["epochs abc"], "epochs must be int, got 'abc'"),
            ("splits.txt", lambda rows: [rows[0] + " 99999999999999999999"] + rows[1:], "is beyond int64"),
            ("edges_rel0.csv", lambda rows: ["0,99999999999999999999"] + rows[1:], "'99999999999999999999'"),
        ],
        ids=["splits-token", "manifest-number", "manifest-bare-key", "config-number",
             "splits-overflow", "edges-overflow"],
    )
    def test_malformed_integer_exits_one(self, dataset, tmp_path, capsys, file, edit, message):
        manifest = copy_dataset(dataset, tmp_path / "data")
        (manifest.parent / "config.txt").write_text("epochs 2\n")
        rewrite(manifest.parent / file, edit)
        args = train_args(manifest, tmp_path / "run") + ["--config", str(manifest.parent / "config.txt")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and file in err and message in err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--lr", "nan", "learning_rate"),
            ("--epsilon", "nan", "residual_mix"),
            ("--lambda", "nan", "edge_loss_weight"),
            ("--lambda", "inf", "edge_loss_weight"),
            ("--weight-decay", "nan", "weight_decay"),
        ],
    )
    def test_non_finite_hyperparameter_exits_one(self, dataset, tmp_path, capsys, flag, value, field):
        assert main(train_args(dataset, tmp_path / "run") + [flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{field} must be finite" in err

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_negative_seed_exits_one(self, dataset, tmp_path, capsys, command):
        args = train_args(dataset, tmp_path / "run") if command == "train" else ["gradcheck"]
        assert main(args + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "file", ["manifest.txt", "features.csv", "labels.csv", "splits.txt", "edges_rel0.csv", "config.txt"]
    )
    def test_non_utf8_byte_exits_one(self, dataset, tmp_path, capsys, file):
        manifest = copy_dataset(dataset, tmp_path / "data")
        (manifest.parent / "config.txt").write_text("epochs 2\n")
        path = manifest.parent / file
        blob = bytearray(path.read_bytes())
        blob[4] = 0xFF
        path.write_bytes(bytes(blob))
        args = train_args(manifest, tmp_path / "run") + ["--config", str(manifest.parent / "config.txt")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and file in err and "byte 4 is not UTF-8 text" in err

    def test_empty_test_split_exits_one_before_training(self, dataset, tmp_path, capsys):
        manifest = copy_dataset(dataset, tmp_path / "data")
        rewrite(manifest.parent / "splits.txt", lambda rows: [r for r in rows if not r.startswith("test:")] + ["test:"])
        assert main(train_args(manifest, tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "the test split is empty" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("keep", ["none", "benign"])
    def test_validation_split_without_both_classes_exits_one(self, dataset, tmp_path, capsys, keep):
        manifest = copy_dataset(dataset, tmp_path / "data")
        labels = (manifest.parent / "labels.csv").read_text().split()

        def one_class(rows):
            val = [i for i in rows[1].split()[1:] if keep == "benign" and labels[int(i)] == "0"]
            return [rows[0], " ".join(["val:"] + val)] + rows[2:]

        rewrite(manifest.parent / "splits.txt", one_class)
        assert main(train_args(manifest, tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "validation split" in err
        assert not (tmp_path / "run").exists()

    def test_empty_evaluated_split_exits_one(self, dataset, trained, tmp_path, capsys):
        manifest = copy_dataset(dataset, tmp_path / "data")
        rewrite(manifest.parent / "splits.txt", lambda rows: [r for r in rows if not r.startswith("val:")] + ["val:"])
        code = main(["eval", "--data", str(manifest), "--checkpoint", str(trained / "checkpoint.bin"),
                     "--split", "val"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "the val split is empty" in err

    def test_retired_config_key_is_unknown(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "overrides.txt"
        cfg.write_text("plain_fusion false\n")
        assert main(train_args(dataset, tmp_path / "run") + ["--config", str(cfg)]) == 1
        assert "unknown config key 'plain_fusion'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "synth", "eval"])
    def test_unwritable_output_path_exits_one(self, dataset, trained, tmp_path, capsys, command):
        # train and synth --out name an existing file; eval exports onto a directory
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = {
            "train": train_args(dataset, blocker),
            "synth": ["synth", "--out", str(blocker), "--nodes", "60", "--seed", "1"],
            "eval": ["eval", "--data", str(dataset), "--checkpoint", str(trained / "checkpoint.bin"),
                     "--export-embeddings", str(tmp_path)],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")


def resave_with_config(source, dest, edit):
    """Copy a checkpoint, applying ``edit`` to the train_config of its metadata."""
    params, meta = load_checkpoint(source)
    store = ParamStore()
    for name, value in params.items():
        store.add(name, value)
    edit(meta["train_config"])
    save_checkpoint(store, meta, dest)
    return dest


class TestCheckpointInput:
    def test_corrupt_header_exits_one(self, dataset, trained, tmp_path, capsys):
        blob = bytearray((trained / "checkpoint.bin").read_bytes())
        blob[12] = ord("#")
        (tmp_path / "checkpoint.bin").write_bytes(bytes(blob))
        assert main(["eval", "--data", str(dataset), "--checkpoint", str(tmp_path / "checkpoint.bin")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "corrupt header" in err

    def test_mistyped_section_field_exits_one(self, dataset, trained, tmp_path, capsys):
        blob = (trained / "checkpoint.bin").read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + header_len])
        header["sections"][0]["rows"] = str(header["sections"][0]["rows"])
        encoded = json.dumps(header).encode()
        path = tmp_path / "checkpoint.bin"
        path.write_bytes(blob[:8] + struct.pack("<I", len(encoded)) + encoded + blob[12 + header_len :])
        assert main(["eval", "--data", str(dataset), "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-negative int rows" in err

    def test_non_finite_parameter_exits_one(self, dataset, trained, tmp_path, capsys):
        params, meta = load_checkpoint(trained / "checkpoint.bin")
        store = ParamStore()
        for name, value in params.items():
            store.add(name, value)
        store["classifier/w"].data[0, 0] = np.nan
        save_checkpoint(store, meta, tmp_path / "checkpoint.bin")
        assert main(["eval", "--data", str(dataset), "--checkpoint", str(tmp_path / "checkpoint.bin")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite value in section 'classifier/w'" in err

    def test_earlier_format_evaluates_identically(self, dataset, trained, tmp_path, capsys):
        # earlier versions saved two more settings, always at these values
        old = resave_with_config(
            trained / "checkpoint.bin", tmp_path / "old.bin",
            lambda cfg: cfg.update(homo_filter_activation="none", plain_fusion=False),
        )
        outputs = []
        for path in (trained / "checkpoint.bin", old):
            assert main(["eval", "--data", str(dataset), "--checkpoint", str(path),
                         "--export-embeddings", str(tmp_path / "emb.csv")]) == 0
            outputs.append((capsys.readouterr().out, (tmp_path / "emb.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg: cfg.update(homo_filter_activation="none", plain_fusion=True),
            lambda cfg: cfg.update(homo_filter_activation="tanh", plain_fusion=False),
            lambda cfg: cfg.update(plain_fusion=0),
            lambda cfg: cfg.update(momentum=0.9),
            lambda cfg: cfg.pop("dropout"),
            lambda cfg: cfg.update(learning_rate="abc"),
            lambda cfg: cfg.update(seed=-1),
        ],
        ids=["plain-fusion", "filter-activation", "non-bool-flag", "unknown-key", "missing-key", "mistyped-value",
             "negative-seed"],
    )
    def test_unsupported_settings_exit_one(self, dataset, trained, tmp_path, capsys, edit):
        path = resave_with_config(trained / "checkpoint.bin", tmp_path / "ckpt.bin", edit)
        assert main(["eval", "--data", str(dataset), "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "train_config" in err
