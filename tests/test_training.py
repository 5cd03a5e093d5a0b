import dataclasses
import os
import signal
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dualmp.autodiff import ParamStore
from dualmp.data import SyntheticSpec, generate_synthetic
from dualmp.graphs import EdgePartition, GraphFormatError, MultiRelationGraph, NodeSplit, node_index
from dualmp.metrics import accuracy, evaluate
from dualmp.model import ABLATIONS, ConfigError, DualChannelModel, TrainConfig
from dualmp.training import (
    Adam,
    NumericalError,
    balanced_edge_sample,
    balanced_node_sample,
    epoch_batches,
    evaluate_split,
    fit,
    training_edge_sets,
)


@pytest.fixture(scope="module")
def graph():
    return generate_synthetic(
        SyntheticSpec(num_nodes=60, fraud_ratio=0.25, num_relations=2, mean_degree=6.0,
                      separation=2.5, seed=4)
    )


def quick_config(**overrides):
    return TrainConfig(**{"epochs": 5, "patience": 5, "seed": 1, **overrides})


class TestBalancedNodeSample:
    def test_minority_fraud_takes_all_fraud(self):
        labels = np.array([1] * 10 + [0] * 90)
        batch = balanced_node_sample(np.arange(100), labels, np.random.default_rng(0))
        assert len(batch) == 20
        assert (labels[batch] == 1).sum() == 10
        assert set(batch[:10]) == set(range(10))

    def test_minority_benign_governs(self):
        labels = np.array([1] * 10 + [0] * 5)
        batch = balanced_node_sample(np.arange(15), labels, np.random.default_rng(0))
        assert len(batch) == 10
        assert (labels[batch] == 0).sum() == 5

    def test_seeds_change_majority_subset_only(self):
        labels = np.array([1] * 10 + [0] * 90)
        a = balanced_node_sample(np.arange(100), labels, np.random.default_rng(1))
        b = balanced_node_sample(np.arange(100), labels, np.random.default_rng(2))
        assert set(a[labels[a] == 1]) == set(b[labels[b] == 1])
        assert set(a[labels[a] == 0]) != set(b[labels[b] == 0])

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError, match="both classes"):
            balanced_node_sample(np.arange(5), np.zeros(5, dtype=int), np.random.default_rng(0))


class TestBalancedEdgeSample:
    def test_min_count_rule(self):
        signs = np.array([-1.0] * 100 + [1.0] * 10)
        pos, out_signs = balanced_edge_sample(np.arange(110), signs, np.random.default_rng(0))
        assert len(pos) == 20
        assert (out_signs < 0).sum() == 10 and (out_signs > 0).sum() == 10

    def test_missing_class_gives_empty_batch(self):
        signs = np.array([-1.0] * 7)
        pos, out_signs = balanced_edge_sample(np.arange(7), signs, np.random.default_rng(0))
        assert len(pos) == 0 and len(out_signs) == 0

    def test_balanced_input_takes_everything(self):
        signs = np.array([-1.0] * 5 + [1.0] * 5)
        pos, _ = balanced_edge_sample(np.arange(10), signs, np.random.default_rng(0))
        assert sorted(pos.tolist()) == list(range(10))


class TestAdam:
    def test_zero_gradient_no_decay_keeps_parameters(self):
        store = ParamStore()
        p = store.add("p", np.array([[1.0, -2.0]]))
        store.zero_grads()
        Adam(store, learning_rate=0.1).step()
        assert np.array_equal(p.data, [[1.0, -2.0]])

    def test_first_step_moves_by_lr_sign(self):
        store = ParamStore()
        p = store.add("p", np.array([[1.0, 1.0]]))
        p.grad = np.array([[0.3, -40.0]])
        Adam(store, learning_rate=0.01).step()
        # m_hat = g, v_hat = g^2 at t=1, so the update is about -lr * sign(g)
        assert np.allclose(p.data, [[1.0 - 0.01, 1.0 + 0.01]], atol=1e-6)

    def test_constant_gradient_asymptote(self):
        store = ParamStore()
        p = store.add("p", np.array([[0.0]]))
        opt = Adam(store, learning_rate=0.01)
        for _ in range(200):
            p.grad = np.array([[2.5]])
            before = p.data.copy()
            opt.step()
        assert (before - p.data)[0, 0] == pytest.approx(0.01, rel=1e-3)

    def test_weight_decay_respects_flags(self):
        store = ParamStore()
        w = store.add("w", np.array([[1.0]]), decay=True)
        b = store.add("b", np.array([[1.0]]), decay=False)
        store.zero_grads()
        Adam(store, learning_rate=0.01, weight_decay=0.1).step()
        assert w.data[0, 0] != 1.0  # decay pulled the weight
        assert b.data[0, 0] == 1.0


class TestFit:
    def test_deterministic_under_seed(self, graph):
        a = fit(graph, quick_config())
        b = fit(graph, quick_config())
        assert a.log == b.log  # bit-identical records
        snap_a, snap_b = a.model.params.snapshot(), b.model.params.snapshot()
        assert all(np.array_equal(snap_a[k], snap_b[k]) for k in snap_a)

    def test_seed_changes_run(self, graph):
        a = fit(graph, quick_config())
        b = fit(graph, quick_config(seed=2))
        assert a.log != b.log

    def test_returned_params_hit_best_validation_auc(self, graph):
        result = fit(graph, quick_config(epochs=15, patience=15))
        best_in_log = max(r["val_auc"] for r in result.log)
        restored = evaluate_split(result.model, result.model.graph.split.val)
        assert restored.auc == pytest.approx(best_in_log, abs=1e-12)
        assert result.best_val_auc == pytest.approx(best_in_log, abs=1e-12)

    def test_patience_one_stops_at_first_non_improvement(self, graph):
        result = fit(graph, quick_config(epochs=50, patience=1))
        aucs = [r["val_auc"] for r in result.log]
        running_best = -np.inf
        stop = None
        for i, auc in enumerate(aucs):
            if auc > running_best:
                running_best = auc
            else:
                stop = i
                break
        assert stop == len(aucs) - 1  # the first stale epoch is the last logged

    def test_balanced_batches_every_epoch(self, graph):
        # class counts equal in every epoch is part of the sampler contract;
        # spot-check through a custom run with instrumented sampling
        rng = np.random.default_rng(0)
        labels = graph.labels
        for _ in range(20):
            batch = balanced_node_sample(graph.split.train, labels, rng)
            assert (labels[batch] == 1).sum() == (labels[batch] == 0).sum()

    def test_edge_loss_weight_zero_freezes_edge_scorer(self, graph):
        # zero hinge weight means the scorer gets no loss gradient; with decay
        # off too, its weights never move from their init values
        result = fit(graph, quick_config(edge_loss_weight=0.0, weight_decay=0.0, epochs=3, patience=3))
        fresh = fit(graph, quick_config(edge_loss_weight=0.0, weight_decay=0.0, epochs=1, patience=1))
        for name in result.model.params.names():
            if "edge_w" in name:
                assert np.array_equal(
                    result.model.params[name].data, fresh.model.params[name].data
                )

    def test_divergence_raises_numerical_error(self):
        # an absurd learning rate overflows the parameters into a NaN loss
        small = generate_synthetic(SyntheticSpec(num_nodes=40, fraud_ratio=0.2, seed=6))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="non-finite loss"):
                fit(small, quick_config(learning_rate=1e155))

    @pytest.mark.parametrize("keep", ["none", "benign"])
    def test_validation_split_without_both_classes_rejected(self, graph, keep):
        val = graph.split.val
        val = val[graph.labels[val] == 0] if keep == "benign" else val[:0]
        one_class = MultiRelationGraph(
            features=graph.features,
            labels=graph.labels,
            relations=graph.relations,
            split=NodeSplit(train=graph.split.train, val=val, test=graph.split.test),
        )
        with pytest.raises(ConfigError, match="validation split"):
            fit(one_class, quick_config())

    def test_training_edge_sets_stay_in_train(self, graph):
        model = DualChannelModel(graph, quick_config(), np.random.default_rng(0))
        mask = graph.split.train_mask(graph.num_nodes)
        for rel, (pos, _) in zip(graph.relations, training_edge_sets(model)):
            src, tgt = rel.edge_sources, rel.targets
            assert mask[src[pos]].all() and mask[tgt[pos]].all()

    def test_no_edge_batches_without_a_separator(self, graph):
        model = DualChannelModel(graph, quick_config(ablation="sep"), np.random.default_rng(0))
        assert training_edge_sets(model) is None
        node_batch, edge_batches = epoch_batches(graph, None, np.random.default_rng(0))
        assert edge_batches is None
        expected = balanced_node_sample(graph.split.train, graph.labels, np.random.default_rng(0))
        assert np.array_equal(node_batch, expected)

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_gradcheck_recipe_is_the_first_training_loss(self, graph, ablation):
        # dualmp gradcheck builds its loss this way; it must be the loss fit trains on
        config = quick_config(ablation=ablation, dropout=0.0, epochs=1, patience=1)
        rng = np.random.default_rng(config.seed)
        model = DualChannelModel(graph, config, rng)
        partitions = model.forward(training=False).partitions
        node_batch, edge_batches = epoch_batches(model.graph, training_edge_sets(model), rng)
        out = model.forward(training=True, node_batch=node_batch, edge_batches=edge_batches, partitions=partitions)
        assert out.loss_total.item() == fit(graph, config).log[0]["loss_total"]

    @pytest.mark.parametrize("ablation", ["full", "homo", "heter", "rel"])
    def test_training_and_evaluation_build_no_view(self, graph, ablation, monkeypatch):
        # the channels cut their blocks from the relation and its edge mask;
        # only a reader of EdgePartition.homo or .hetero builds a view
        built = []
        for side in ("homo", "hetero"):
            build = vars(EdgePartition)[side].fget
            monkeypatch.setattr(EdgePartition, side, property(lambda part, b=build: built.append(b) or b(part)))
        result = fit(graph, quick_config(ablation=ablation, epochs=1, patience=1))
        evaluate_split(result.model, result.model.graph.split.test)
        assert built == []
        part = result.model.forward(training=False).partitions[0]
        assert part.hetero.edge_count + part.homo.edge_count == result.model.graph.relations[0].edge_count
        assert len(built) == 2

    def test_fit_keeps_no_projection_of_the_last_epoch(self):
        # best epoch 16 of 20: the restore replaces the weights the kept projections were built for
        graph = generate_synthetic(SyntheticSpec(num_nodes=200, num_relations=2, seed=5))
        result = fit(graph, TrainConfig(epochs=20, patience=20, seed=5))
        assert result.best_epoch < len(result.log)
        assert result.model._stages == {}

    @pytest.mark.parametrize("ablation", ["full", "sep"])
    def test_fit_never_reuses_a_split(self, graph, ablation, monkeypatch):
        # an Adam step comes between every two passes, so each pass scores, splits and cuts anew,
        # also when the next epoch's training pass runs on fit's worker thread
        from dualmp import propagation, separator

        counts, lock = Counter(), threading.Lock()
        for owner, name in ((separator, "edge_score_values"), (propagation, "channel_adjacencies")):
            def counted(*args, _original=getattr(owner, name), _name=name):
                with lock:
                    counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        for mode in ("sequential", "overlapped"):
            if mode == "overlapped":
                overlapping(monkeypatch)
                ran_off_main = worker_passes(monkeypatch)
            counts.clear()
            result = fit(graph, quick_config(ablation=ablation))
            passes = 2 * len(result.log) * graph.num_relations
            assert len(result.log) == 5
            want = {"channel_adjacencies": passes}
            if ablation == "full":
                want["edge_score_values"] = passes
            assert counts == want
            assert result.model._stages == {}
        assert ran_off_main == [False] + [True] * 4

    def test_log_records_have_expected_fields(self, graph):
        result = fit(graph, quick_config(epochs=2, patience=2))
        record = result.log[0]
        for key in ("epoch", "loss_total", "loss_cls", "edge_losses", "train_accuracy",
                    "val_auc", "val_recall", "val_f1_macro", "val_gmean"):
            assert key in record
        assert len(record["edge_losses"]) == graph.num_relations


class TestEvaluationRows:
    """Evaluation computes only the rows it reports; the figures equal a whole-graph evaluation."""

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_evaluate_split_equals_whole_graph_evaluation(self, graph, ablation):
        model = DualChannelModel(graph, quick_config(ablation=ablation), np.random.default_rng(3))
        test = model.graph.split.test
        rows = np.concatenate([test[::-1], test[2:3]])  # unsorted, with one node twice
        whole = model.forward(training=False).probs.data[:, 1]
        assert evaluate_split(model, rows) == evaluate(whole[rows], model.graph.labels[rows])

    def test_empty_node_set_rejected_before_any_forward(self, graph):
        model = DualChannelModel(graph, quick_config(), np.random.default_rng(3))

        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran")

        model.forward = no_forward
        with pytest.raises(ValueError, match="cannot evaluate an empty node set"):
            evaluate_split(model, [])

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_fit_log_equals_whole_graph_evaluation(self, graph, ablation):
        result = fit(graph, quick_config(ablation=ablation, epochs=1, patience=1))
        model, record = result.model, result.log[0]
        split, labels = model.graph.split, model.graph.labels
        whole = model.forward(training=False).probs.data[:, 1]
        report = evaluate(whole[split.val], labels[split.val])
        assert record["val_auc"] == report.auc
        assert record["val_recall"] == report.recall
        assert record["val_f1_macro"] == report.f1_macro
        assert record["val_gmean"] == report.gmean
        assert record["train_accuracy"] == accuracy(whole[split.train], labels[split.train])


# node sets each public reader refuses: the first two were once read as the
# node numbers they cast to (a mask [True, False] as the nodes 1 and 0)
BAD_NODE_SETS = {
    "boolean-mask": lambda n: np.array([True, False]),
    "floats": lambda n: np.array([1.0, 0.0]),
    "two-dimensional": lambda n: np.array([[0, 1], [2, 3]]),
    "negative": lambda n: np.array([0, -1]),
    "past-the-end": lambda n: np.array([0, n]),
}


def node_set_readers(graph):
    """Each public reader of a node set, as a function of the node set alone."""
    n = graph.num_nodes
    model = DualChannelModel(graph, quick_config(), np.random.default_rng(3))
    others = {"train": np.array([n - 3]), "val": np.array([n - 2]), "test": np.array([n - 1])}
    readers = {
        "forward": lambda nodes: model.forward(training=False, node_batch=nodes),
        "training-forward": lambda nodes: model.forward(
            training=True, rng=np.random.default_rng(0), node_batch=nodes
        ),
        "evaluate_split": lambda nodes: evaluate_split(model, nodes),
    }
    for slot in others:
        readers[f"split-{slot}"] = lambda nodes, slot=slot: NodeSplit(**{**others, slot: nodes}).validate(n)
    return readers


@pytest.mark.parametrize("bad", BAD_NODE_SETS)
@pytest.mark.parametrize(
    "reader",
    ["forward", "training-forward", "evaluate_split", "split-train", "split-val", "split-test"],
)
def test_every_node_set_reader_refuses_a_bad_node_set(graph, reader, bad):
    read = node_set_readers(graph)[reader]
    read(np.array([np.argmax(graph.labels == 1), np.argmax(graph.labels == 0)]))  # one node of each class
    with pytest.raises(GraphFormatError, match="node"):
        read(BAD_NODE_SETS[bad](graph.num_nodes))


def test_each_node_set_is_read_once_where_it_enters(graph, monkeypatch):
    """node_index runs only in NodeSplit.validate, when a graph is built, and once per forward pass."""
    callers = []

    def counted(values, num_nodes):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return node_index(values, num_nodes)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dualmp" and hasattr(module, "node_index"):
            monkeypatch.setattr(module, "node_index", counted)
    graph = dataclasses.replace(graph)
    assert callers == ["validate"] * 3  # train, val and test
    callers.clear()
    model = DualChannelModel(graph, quick_config(), np.random.default_rng(3))
    assert callers == []
    evaluate_split(model, graph.split.test)
    assert callers == ["forward"]
    for epochs in (1, 3):
        callers.clear()
        fit(graph, quick_config(epochs=epochs, patience=epochs))
        # per epoch the training pass and the evaluation pass, and the split never again
        assert Counter(callers) == {"forward": 2 * epochs}


def test_fit_frees_each_training_tape_before_the_evaluation_pass(graph, monkeypatch):
    import weakref

    tapes, alive_at_evaluation = [], []
    forward = DualChannelModel.forward

    def watched(self, training=False, **kwargs):
        if not training:
            alive_at_evaluation.append(any(tape() is not None for tape in tapes))
        out = forward(self, training=training, **kwargs)
        if training:
            tapes.append(weakref.ref(out.loss_total.data))
        return out

    monkeypatch.setattr(DualChannelModel, "forward", watched)
    result = fit(graph, quick_config())
    assert len(tapes) == len(result.log) == 5
    assert alive_at_evaluation == [False] * 5


def test_fit_refuses_a_float_split(graph):
    # a float split once passed validation, and fit then stopped with an IndexError
    floats = NodeSplit(graph.split.train.astype(float), graph.split.val, graph.split.test)
    with pytest.raises(GraphFormatError, match="got float64"):
        fit(dataclasses.replace(graph, split=floats), quick_config(epochs=1, patience=1))


def overlapping(monkeypatch):
    """Give every pass the helper thread at any size and CPU count.

    fit then runs the next epoch's training pass beside the evaluation pass,
    and an evaluation pass offers relations 1..R-1 to the helper.
    """
    from dualmp import model

    monkeypatch.setattr(model, "OVERLAP_MIN_ROWS", 0)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)


def worker_passes(monkeypatch) -> list[bool]:
    """Per training pass of fit, whether it ran off the main thread."""
    from dualmp import training

    ran_off_main, training_pass = [], training._training_pass

    def watched(*args):
        ran_off_main.append(threading.current_thread() is not threading.main_thread())
        return training_pass(*args)

    monkeypatch.setattr(training, "_training_pass", watched)
    return ran_off_main


def fit_bits(result):
    snapshot = result.model.params.snapshot()
    return result.log, result.best_epoch, {name: value.tobytes() for name, value in snapshot.items()}


class TestOverlap:
    """fit's use of the helper thread changes no bit: the log, the parameters, the best epoch, the errors."""

    @pytest.mark.parametrize(
        "ablation, epochs, patience, seed",
        [(ablation, 6, 6, 1) for ablation in ABLATIONS]
        + [(ablation, 40, 2, 1) for ablation in ABLATIONS]
        + [("full", 40, 2, 2)],
        ids=[f"all-epochs-{a}" for a in ABLATIONS] + [f"stopped-early-{a}" for a in ABLATIONS]
        + ["resumed-after-a-stale-epoch"],
    )
    def test_overlapped_fit_equals_sequential_fit(self, graph, monkeypatch, ablation, epochs, patience, seed):
        config = quick_config(ablation=ablation, epochs=epochs, patience=patience, seed=seed)
        sequential = fit(graph, config)
        overlapping(monkeypatch)
        ran_off_main = worker_passes(monkeypatch)
        overlapped = fit(graph, config)
        assert fit_bits(overlapped) == fit_bits(sequential)
        # epoch e + 1's pass runs on the worker when epoch e cannot end the run
        expected, best, stale = [False], -np.inf, 0
        for record in sequential.log[:-1]:
            expected.append(stale < patience - 1)
            best, stale = (record["val_auc"], 0) if record["val_auc"] > best else (best, stale + 1)
        assert ran_off_main == expected and any(expected)
        if patience < epochs:
            assert len(sequential.log) < epochs
        if seed == 2:  # an epoch that could have ended the run improved, so the next pass ran on this thread
            assert not all(expected[1:])

    def test_concurrent_overlapped_fits_equal_the_sequential_fit(self, graph, monkeypatch):
        # three fits at once, sharing the process's one helper for their training passes and relation
        # jobs: four threads on the CPUs there are, switching often
        config = quick_config(epochs=8, patience=8)
        want = fit_bits(fit(graph, config))
        overlapping(monkeypatch)
        got = [None] * 3

        def run(i):
            got[i] = fit_bits(fit(graph, config))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(got))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * len(got)

    @pytest.mark.parametrize("nan_epoch", [1, 3, 5])
    @pytest.mark.parametrize("mode", ["sequential", "overlapped"])
    def test_a_nan_loss_raises_at_its_epoch(self, graph, monkeypatch, mode, nan_epoch):
        from dualmp import autodiff as ad
        from dualmp import model as model_module

        calls, total_loss = [], model_module.total_loss

        def poisoned(*args):
            calls.append(None)  # one training pass per epoch, never two at once
            return ad.tensor(np.nan) if len(calls) == nan_epoch else total_loss(*args)

        monkeypatch.setattr(model_module, "total_loss", poisoned)
        ran_off_main = []
        if mode == "overlapped":
            overlapping(monkeypatch)
            ran_off_main = worker_passes(monkeypatch)
        with pytest.raises(NumericalError, match=f"^non-finite loss nan at epoch {nan_epoch}$"):
            fit(graph, quick_config())
        assert len(calls) == nan_epoch
        assert ran_off_main == ([False] + [True] * (nan_epoch - 1) if mode == "overlapped" else [])

    def test_the_worker_keeps_the_callers_numpy_error_state(self, monkeypatch):
        # test_divergence_raises_numerical_error with the diverging pass on the worker: np.errstate is per context
        small = generate_synthetic(SyntheticSpec(num_nodes=40, fraud_ratio=0.2, seed=6))
        overlapping(monkeypatch)
        ran_off_main = worker_passes(monkeypatch)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="non-finite loss nan at epoch 2"):
                fit(small, quick_config(learning_rate=1e155))
        assert ran_off_main == [False, True]

    @pytest.mark.parametrize(
        "rows, cpus, training_passes",
        [("below", 2, 0), ("any", 1, 0), ("any", 2, 4)],
        ids=["below-the-threshold", "one-cpu", "overlapped"],
    )
    def test_a_thread_starts_only_to_overlap(self, graph, monkeypatch, rows, cpus, training_passes):
        from dualmp import model, training

        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            start(thread)

        submitted, submit = [], ThreadPoolExecutor.submit

        def offered(pool, run, job, *args):
            submitted.append(job)  # run is a context's run method, job what it runs
            return submit(pool, run, job, *args)

        monkeypatch.setattr(threading.Thread, "start", counted)
        monkeypatch.setattr(ThreadPoolExecutor, "submit", offered)
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        if rows == "any":
            monkeypatch.setattr(model, "OVERLAP_MIN_ROWS", 0)
        else:
            assert len(graph.split.train) + len(graph.split.val) < model.OVERLAP_MIN_ROWS
        result = fit(graph, quick_config())
        # epochs 2-5 train on the helper, and each epoch's evaluation pass offers it relation 1
        assert [job is training._training_pass for job in submitted].count(True) == training_passes
        assert len(submitted) == (training_passes + len(result.log) if training_passes else 0)
        helpers = [thread.name for thread in threading.enumerate() if thread.name.startswith("dualmp-helper")]
        assert len(helpers) == 1 if training_passes else len(helpers) <= 1
        # the helper starts once per process, on the first fit that needs it
        assert started in ([], helpers if training_passes else [])

    # a child forked after this process made its helper would wait forever on the helper's copy
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks:DeprecationWarning")
    def test_fit_finishes_in_a_child_forked_after_a_fit(self, graph, monkeypatch):
        overlapping(monkeypatch)
        ran_off_main = worker_passes(monkeypatch)
        want = fit_bits(fit(graph, quick_config()))
        assert ran_off_main == [False] + [True] * 4
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: the alarm ends it if its fit hangs
            try:
                os.close(read)
                signal.alarm(30)
                ran_off_main.clear()
                same = fit_bits(fit(graph, quick_config())) == want and ran_off_main == [False] + [True] * 4
                os.write(write, b"1" if same else b"0")
            finally:
                os._exit(0)
        os.close(write)
        with os.fdopen(read, "rb") as pipe:
            said = pipe.read()  # b"" when the child dies before it writes
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert said == b"1"
