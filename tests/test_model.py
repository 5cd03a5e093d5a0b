import contextlib
import ctypes
import dataclasses
import functools
import threading
import time
import types

import numpy as np
import pytest
from scipy import sparse

import dualmp.autodiff as ad
from dualmp.autodiff import backward, tensor
from dualmp.data import SyntheticSpec, generate_synthetic
from dualmp.graphs import GraphFormatError, MultiRelationGraph, partition_subgraphs
from dualmp.model import (
    CHANNELS,
    ConfigError,
    DualChannelModel,
    TrainConfig,
    classification_loss,
    classify,
    total_loss,
)
from dualmp.propagation import channel_adjacencies
from dualmp.separator import edge_score_values, project_features
from helper_thread import count_submissions, spreading


@pytest.fixture(scope="module")
def small_graph():
    return generate_synthetic(
        SyntheticSpec(num_nodes=30, fraud_ratio=0.2, num_relations=2, mean_degree=4.0,
                      feature_dim=5, seed=3)
    )


def make_model(graph, **overrides):
    config = TrainConfig(**{"dropout": 0.0, **overrides})
    return DualChannelModel(graph, config, np.random.default_rng(0))


class TestClassify:
    def test_single_relation_is_one_product(self):
        rng = np.random.default_rng(0)
        z, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=(1, 2))
        logits = classify([tensor(z)], tensor(w), tensor(b))
        assert np.array_equal(logits.data.view(np.int64), (z @ w + b).view(np.int64))

    @pytest.mark.parametrize("relations", [1, 2, 3])
    def test_matches_stacked_product(self, relations):
        # sum_r z_r W_r + b is [z_1 || ... || z_R] W + b up to rounding
        rng = np.random.default_rng(relations)
        parts = [rng.normal(size=(40, 8)) for _ in range(relations)]
        w, b = rng.normal(size=(8 * relations, 2)), rng.normal(size=(1, 2))
        logits = classify([tensor(z) for z in parts], tensor(w), tensor(b))
        assert np.abs(logits.data - (np.hstack(parts) @ w + b)).max() <= 1e-12

    def test_weight_rows_must_split_over_relations(self):
        parts = [tensor(np.zeros((5, 8))) for _ in range(3)]
        with pytest.raises(ValueError, match="16 weight rows do not split into 3 equal blocks"):
            classify(parts, tensor(np.zeros((16, 2))), tensor(np.zeros((1, 2))))

    def test_zero_head_is_uniform(self):
        z = tensor(np.random.default_rng(2).normal(size=(6, 4)))
        logits = classify([z], tensor(np.zeros((4, 2))), tensor(np.zeros((1, 2))))
        assert not logits.data.any()
        assert np.allclose(ad.softmax(logits.data), 0.5)

    def test_bias_dominance(self):
        z = tensor(np.zeros((3, 4)))
        logits = classify([z], tensor(np.zeros((4, 2))), tensor([[0.0, 10.0]]))
        assert (ad.softmax(logits.data)[:, 1] > 0.9999).all()

    def test_hand_softmax(self):
        z = tensor([[1.0]])
        logits = classify([z], tensor([[np.log(3.0), 0.0]]), tensor(np.zeros((1, 2))))
        assert logits.data.tolist() == [[np.log(3.0), 0.0]]
        assert np.allclose(ad.softmax(logits.data), [[0.75, 0.25]])


def log_probs(p):
    """Logits whose softmax is ``p``."""
    return tensor(np.log(np.asarray(p, dtype=np.float64)))


class TestClassificationLoss:
    def test_uniform_probs(self):
        loss = classification_loss(log_probs(np.full((2, 2), 0.5)), [1, 0])
        assert loss.item() == pytest.approx(2 * np.log(2))

    def test_single_confident_node(self):
        assert classification_loss(log_probs([[0.1, 0.9]]), [1]).item() == pytest.approx(-np.log(0.9))

    def test_perfect_predictions_near_zero(self):
        logits = tensor([[50.0, -50.0], [-50.0, 50.0]])
        loss = classification_loss(logits, [0, 1])
        assert 0 <= loss.item() < 1e-10

    def test_sum_not_mean(self):
        logits = log_probs(np.full((4, 2), 0.5))
        one = classification_loss(tensor(logits.data[:1]), [1]).item()
        four = classification_loss(logits, [1, 1, 1, 1]).item()
        assert four == pytest.approx(4 * one)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            classification_loss(tensor(np.zeros((0, 2))), [])

    def test_gradient_when_true_class_probability_vanishes(self):
        # softmax([40, -2])[1] = exp(-42) < 1e-12; the head must still learn from the node
        clf_w = tensor(np.zeros((1, 2)), requires_grad=True)
        clf_b = tensor([[40.0, -2.0]], requires_grad=True)
        loss = classification_loss(classify([tensor([[1.0]])], clf_w, clf_b), [1])
        backward(loss)
        assert loss.item() == pytest.approx(42.0)
        for grad in (clf_w.grad, clf_b.grad):
            assert np.isfinite(grad).all()
            assert np.allclose(grad, [[1.0, -1.0]], rtol=0, atol=1e-12)


class TestTotalLoss:
    def test_zero_weight_keeps_classification(self):
        cls = tensor(3.0)
        out = total_loss(cls, [tensor(0.5), tensor(0.5)], 0.0)
        assert out.item() == 3.0

    def test_sum_rule(self):
        out = total_loss(tensor(1.0), [tensor(0.5), tensor(0.5)], 1.0)
        assert out.item() == 2.0

    def test_all_zero(self):
        assert total_loss(tensor(0.0), [tensor(0.0)], 1.0).item() == 0.0

    def test_doubling_weight_doubles_edge_share(self):
        edges = [tensor(0.4), tensor(0.7)]
        # with zero classification loss the gap is the scaled edge sum, exactly
        zero = tensor(0.0)
        assert total_loss(zero, edges, 2.0).item() == 2 * total_loss(zero, edges, 1.0).item()
        # through a nonzero classification term the doubling holds to rounding
        cls = tensor(1.3)
        gap1 = total_loss(cls, edges, 1.0).item() - cls.item()
        gap2 = total_loss(cls, edges, 2.0).item() - cls.item()
        assert gap2 == pytest.approx(2 * gap1, rel=1e-12)


def expected_param_count(d_in, d_h, relations, ablation):
    """Shape arithmetic for the active parameter set of one wiring."""
    per_rel = d_in * d_h + d_h  # projection
    per_rel += d_h * d_h  # shared filter
    if ablation != "sep":
        per_rel += 3 * d_h  # edge scorer
    if ablation != "homo":
        per_rel += d_h * d_h + 2 * d_h  # smoothing gate + biases
    if ablation not in ("heter", "sep"):
        per_rel += d_h * d_h + 2 * d_h  # contrast gate + biases
    if ablation in ("full", "rel"):
        per_rel += 3 * d_h * d_h + d_h
        per_rel += 2 * d_h  # norm gain and bias
    return relations * per_rel + relations * d_h * 2 + 2  # plus classifier


class TestAblations:
    @pytest.mark.parametrize("ablation", ["full", "sep", "homo", "heter", "rel"])
    def test_active_parameter_counts(self, small_graph, ablation):
        model = make_model(small_graph, ablation=ablation)
        relations = 1 if ablation == "rel" else small_graph.num_relations
        expected = expected_param_count(small_graph.feature_dim, 8, relations, ablation)
        assert sum(p.data.size for _, p in model.params.items()) == expected

    def test_sep_drops_edge_scorer_and_one_channel(self, small_graph):
        full = make_model(small_graph, ablation="full")
        sep = make_model(small_graph, ablation="sep")
        gone = set(full.params.names()) - set(sep.params.names())
        assert any("edge_w" in n for n in gone)
        assert any("contrast" in n for n in gone)
        assert not any("smooth" in n for n in gone)

    def test_rel_single_relation_matches_full(self):
        graph = generate_synthetic(SyntheticSpec(num_nodes=25, fraud_ratio=0.2, num_relations=1, seed=5))
        full = make_model(graph, ablation="full")
        rel = make_model(graph, ablation="rel")
        out_full = full.forward(training=False)
        out_rel = rel.forward(training=False)
        assert np.array_equal(out_full.probs.data, out_rel.probs.data)

    def test_rel_merges_relations(self, small_graph):
        model = make_model(small_graph, ablation="rel")
        assert model.graph.num_relations == 1
        assert model.graph.relations[0].name == "union"

    def test_heter_matches_full_smoothing_channel_on_empty_contrast(self, small_graph):
        # when the contrast side is empty, the full model's smoothing channel output
        # is exactly what the heter wiring produces with the same weights
        full = make_model(small_graph, ablation="full")
        heter = make_model(small_graph, ablation="heter")
        for name, p in heter.params.items():
            p.data[...] = full.params[name].data
        rel = full.graph.relations[0]
        all_homo = partition_subgraphs(rel, -np.ones(rel.edge_count))
        assert all_homo.hetero.edge_count == 0
        h = tensor(full.graph.features)
        h_proj_full = ad.relu(ad.add_bias(ad.matmul(h, full.params[f"{rel.name}/proj_w"]),
                                          full.params[f"{rel.name}/proj_b"]))
        rows = np.arange(small_graph.num_nodes)
        blocks = channel_adjacencies(rel, all_homo, rows, ("smooth", "contrast"))

        def take(index):
            return tensor(h_proj_full.data[index])

        z_full_smooth = full._relation_embedding(rel.name, take, rows, blocks)  # heter wiring path
        z_heter = heter._relation_embedding(rel.name, take, rows, blocks)
        # full wiring runs fusion on top, so compare the shared channel instead
        full.config = dataclasses.replace(full.config, ablation="heter")
        try:
            z_full_channel = full._relation_embedding(rel.name, take, rows, blocks)
        finally:
            full.config = dataclasses.replace(full.config, ablation="full")
        assert np.array_equal(z_full_channel.data, z_heter.data)
        # and the contrast channel on an empty subgraph is the projection itself
        assert blocks["contrast"].matrix.nnz == 0

    def test_unknown_ablation_rejected(self, small_graph):
        with pytest.raises(ConfigError, match="ablation"):
            make_model(small_graph, ablation="nope")


@pytest.mark.parametrize(
    "bad", [{"patience": 0}, {"dropout": 1.0}, {"learning_rate": float("nan")}, {"ablation": "nope"}],
    ids=lambda bad: next(iter(bad)),
)
def test_train_config_is_checked_when_built(bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        TrainConfig(**bad)


@pytest.mark.parametrize("rate", [-0.1, 1.0, np.nan])
def test_a_dropout_rate_outside_the_unit_interval_is_refused(rate):
    # separator.dropout_factor trusts its rate: TrainConfig, the only source of one, refuses these
    with pytest.raises(ConfigError, match="dropout must be"):
        TrainConfig(dropout=rate)


def test_train_config_is_immutable():
    config = TrainConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.dropout = 0.0
    assert config.dropout == 0.1 and dataclasses.replace(config, dropout=0.0).dropout == 0.0


class TestForward:
    def test_probability_rows_sum_to_one(self, small_graph):
        out = make_model(small_graph).forward(training=False)
        assert np.abs(out.probs.data.sum(axis=1) - 1).max() < 1e-12

    def test_partitions_cover_all_edges(self, small_graph):
        out = make_model(small_graph).forward(training=False)
        for rel, part in zip(small_graph.relations, out.partitions):
            assert part.homo.edge_count + part.hetero.edge_count == rel.edge_count

    def test_edge_scores_drive_partition(self, small_graph):
        model = make_model(small_graph)
        out = model.forward(training=False)
        for rel, part in zip(small_graph.relations, out.partitions):
            p = lambda key: model.params[f"{rel.name}/{key}"]
            h, _ = project_features(model.features, p("proj_w").data, p("proj_b").data)
            scores = edge_score_values(h, rel.edge_sources, rel.targets, p("edge_w").data)
            assert np.array_equal(part.hetero_mask, scores >= 0)

    def test_frozen_partition_is_reused(self, small_graph):
        model = make_model(small_graph)
        first = model.forward(training=False)
        second = model.forward(training=False, partitions=first.partitions)
        assert second.partitions[0] is first.partitions[0]
        assert np.array_equal(first.probs.data, second.probs.data)

    def test_only_a_training_pass_builds_losses(self, small_graph):
        from dualmp.training import training_edge_sets

        model = make_model(small_graph)
        node_batch = small_graph.split.train[:4]
        edge_batches = training_edge_sets(model)
        out = model.forward(training=False, node_batch=node_batch, edge_batches=edge_batches)
        assert out.loss_total is None and out.loss_cls is None and out.edge_losses == []
        out = model.forward(training=True, node_batch=node_batch, edge_batches=edge_batches)
        assert out.loss_total is not None and len(out.edge_losses) == small_graph.num_relations

    def test_sep_ablation_reports_no_scores(self, small_graph):
        out = make_model(small_graph, ablation="sep").forward(training=False)
        assert out.partitions == [None, None]

    def test_nan_projection_weight_reaches_the_training_loss(self, small_graph):
        # relu passes the NaN on, so fit sees a non-finite loss instead of training on zeros
        model = make_model(small_graph)
        model.params[f"{small_graph.relations[0].name}/proj_w"].data[0, 0] = np.nan
        assert not np.isfinite(model.forward(training=True).loss_total.item())

    def test_loss_reachability_smoke(self):
        # every active parameter moves on a seeded batch; the graph is dense
        # enough that every relation has labeled edges of both kinds
        graph = generate_synthetic(
            SyntheticSpec(num_nodes=80, fraud_ratio=0.3, num_relations=2, mean_degree=8.0,
                          fraud_homophily=0.5, benign_homophily=0.7, seed=2)
        )
        model = make_model(graph, dropout=0.1)
        rng = np.random.default_rng(11)
        from dualmp.training import epoch_batches, training_edge_sets
        node_batch, batches = epoch_batches(graph, training_edge_sets(model), rng)
        model.params.zero_grads()
        out = model.forward(training=True, rng=rng, node_batch=node_batch, edge_batches=batches)
        backward(out.loss_total)
        for name, p in model.params.items():
            assert np.abs(p.grad).max() > 0, f"{name} received no gradient"


@pytest.mark.parametrize("ablation", ["full", "sep", "homo", "heter", "rel"])
def test_batch_forward_equals_full_forward_at_the_batch(ablation):
    # the batch forward computes only the rows the loss reads and tapes the
    # projection only at those rows, their senders and the edge batch's
    # endpoints; with frozen partitions it must give the losses of the
    # whole-graph forward. The classification loss is exact; the hinge's
    # per-edge scores are width-1 products, which the BLAS may round
    # differently on other rows
    from dualmp.training import epoch_batches, training_edge_sets

    graph = generate_synthetic(
        SyntheticSpec(num_nodes=80, fraud_ratio=0.2, num_relations=2, mean_degree=3.0, feature_dim=5, seed=4)
    )
    model = make_model(graph, ablation=ablation)
    labels = model.graph.labels
    partitions = model.forward(training=False).partitions
    node_batch, edge_batches = epoch_batches(model.graph, training_edge_sets(model), np.random.default_rng(5))
    assert (edge_batches is None) == (ablation == "sep")
    assert all(len(positions) for positions, _ in edge_batches or ())

    model.params.zero_grads()
    full = model.forward(training=True, edge_batches=edge_batches, partitions=partitions)  # dropout is 0
    full_logits = classify(full.embeddings, model.params["classifier/w"], model.params["classifier/b"])
    k = len(node_batch)
    selection = sparse.csr_array((np.ones(k), node_batch, np.arange(k + 1)), shape=(k, graph.num_nodes))
    reference_cls = classification_loss(ad.sparse_matmul(selection, full_logits), labels[node_batch])
    backward(total_loss(reference_cls, full.edge_losses, model.config.edge_loss_weight))
    reference_grads = {name: p.grad for name, p in model.params.items()}

    model.params.zero_grads()
    batch = model.forward(training=True, node_batch=node_batch, edge_batches=edge_batches, partitions=partitions)
    backward(batch.loss_total)

    assert batch.loss_cls.item() == reference_cls.item()
    assert len(batch.edge_losses) == len(full.edge_losses)
    for got, want in zip(batch.edge_losses, full.edge_losses, strict=True):
        assert abs(got.item() - want.item()) <= 1e-15 * abs(want.item())
    assert np.array_equal(batch.probs.data, full.probs.data[node_batch])
    for z_batch, z_full in zip(batch.embeddings, full.embeddings, strict=True):
        assert np.array_equal(z_batch.data, z_full.data[node_batch])
    for name, p in model.params.items():
        assert np.abs(p.grad - reference_grads[name]).max() <= 1e-12, name


@pytest.mark.parametrize("ablation", ["full", "sep", "homo", "heter", "rel"])
def test_training_tape_holds_only_reached_rows(ablation):
    # on a graph where the batch, its senders and the edge batch's endpoints
    # are fewer than N nodes, no tensor on the tape from the loss has N rows:
    # each consumer takes only its own rows of the projection, and the hinge
    # takes its batch's distinct endpoints once
    from dualmp.training import epoch_batches, training_edge_sets

    graph = sparse_graph()
    model = make_model(graph, ablation=ablation, dropout=0.1)
    rng = np.random.default_rng(7)
    node_batch, edge_batches = epoch_batches(model.graph, training_edge_sets(model), rng)
    out = model.forward(training=True, rng=rng, node_batch=node_batch, edge_batches=edge_batches)
    projections = {id(model.params[f"{rel.name}/proj_w"]) for rel in model.graph.relations}
    takes = []
    seen, stack = set(), [out.loss_total]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        assert node.shape[0] != graph.num_nodes, node
        if any(id(parent) in projections for parent in node._parents):
            takes.append(node.shape[0])
        stack.extend(node._parents)
    # per relation: the rows, each channel's senders, and the hinge's distinct endpoints
    per_relation = 1 + len(CHANNELS[ablation]) + model.has_separator
    assert len(takes) == per_relation * model.graph.num_relations
    assert takes.count(len(node_batch)) >= model.graph.num_relations
    assert all(0 < rows < graph.num_nodes for rows in takes)


@pytest.mark.parametrize(("ablation", "cuts"), [("full", 2), ("rel", 2), ("homo", 1), ("heter", 1), ("sep", 1)])
@pytest.mark.parametrize("training", [False, True])
def test_a_pass_cuts_only_the_blocks_its_channels_read(small_graph, monkeypatch, ablation, cuts, training):
    from dualmp import propagation

    calls = []
    cut = propagation._cut
    monkeypatch.setattr(propagation, "_cut", lambda *args: calls.append(1) or cut(*args))
    model = make_model(small_graph, ablation=ablation)
    model.forward(training=training)
    assert len(calls) == cuts * model.graph.num_relations


@pytest.mark.parametrize(("inner", "width"), [(8, 8), (8, 2)])
def test_matmul_rows_do_not_depend_on_the_other_rows(inner, width):
    """A row of x[R] @ W is bit for bit that row of x @ W, for R of two or more rows.

    A pass over some rows relies on it to give those rows of a whole-graph
    pass: it runs the channel filter, the channel gates and the fusion
    (width 8 into width 8) and the classifier (width 8 into the 2 classes)
    only on the rows it reaches. On OpenBLAS 0.3.31 it does not hold for a
    product with one row or one column, which goes through gemv: a width-1
    product (the hinge's per-node scores) can round its last row
    differently, so the hinge may move by 1 ulp after epoch 1. Nor does it
    hold for every shape: a 16-wide input into width 2 differs often, which
    is why a training pass takes its projection rows from the kept product.
    """
    rng = np.random.default_rng(inner * width)
    for _ in range(60):
        n = int(rng.integers(2, 200)) if rng.random() < 0.5 else int(rng.integers(200, 60_000))
        x, w = rng.normal(size=(n, inner)), rng.normal(size=(inner, width))
        cut = np.union1d(np.flatnonzero(rng.random(n) < rng.random()), [0, n - 1])  # the last row included
        assert np.array_equal((x[cut] @ w).view(np.int64), (x @ w)[cut].view(np.int64)), (n, len(cut))


@pytest.mark.parametrize("ablation", ["full", "sep", "homo", "heter", "rel"])
def test_eval_forward_records_no_tape_and_builds_no_loss(small_graph, ablation, monkeypatch):
    model = make_model(small_graph, ablation=ablation)
    out = model.forward(training=False)
    assert len(out.embeddings) == model.graph.num_relations
    assert not out.probs._parents and not any(z._parents for z in out.embeddings)
    assert out.loss_total is None and out.loss_cls is None
    # the same pass with dropout 0, taped, gives the same numbers
    taped = model.forward(training=True)
    assert all(z._parents for z in taped.embeddings)
    assert np.array_equal(out.probs.data, taped.probs.data)
    for z_out, z_taped in zip(out.embeddings, taped.embeddings, strict=True):
        assert np.array_equal(z_out.data, z_taped.data)
    # an evaluation pass whose rows are refused inside no_tape leaves recording on
    raised_inside, no_tape = [], ad.no_tape

    @contextlib.contextmanager
    def watched_no_tape():
        with no_tape():
            try:
                yield
            except GraphFormatError:
                raised_inside.append(True)
                raise

    monkeypatch.setattr(ad, "no_tape", watched_no_tape)
    with pytest.raises(GraphFormatError, match="node set"):
        model.forward(training=False, node_batch=[small_graph.num_nodes])
    assert raised_inside == [True]
    w = model.params["classifier/w"]
    assert ad.add(w, w)._parents


def sparse_graph():
    # the batch, its senders and the edge batch's endpoints are fewer than N nodes
    return generate_synthetic(
        SyntheticSpec(num_nodes=300, fraud_ratio=0.2, num_relations=2, mean_degree=2.0, feature_dim=5, seed=6)
    )


def count_whole_graph_projections(monkeypatch, num_nodes):
    """Record each call to ``separator.project_features`` that covers all ``num_nodes`` rows."""
    from dualmp import separator

    calls = []
    project = separator.project_features

    def counted(x, *args):
        if x.shape[0] == num_nodes:
            calls.append(1)
        return project(x, *args)

    monkeypatch.setattr(separator, "project_features", counted)
    return calls


def training_pass(model, seed=9):
    from dualmp.training import epoch_batches, training_edge_sets

    rng = np.random.default_rng(seed)
    node_batch, edge_batches = epoch_batches(model.graph, training_edge_sets(model), rng)
    return model.forward(training=True, rng=rng, node_batch=node_batch, edge_batches=edge_batches)


def pass_bits(out):
    """The bytes of a pass's probabilities and edge splits, and of its loss when it has one."""
    bits = [out.probs.data.tobytes(), *(p.hetero_mask.tobytes() for p in out.partitions if p is not None)]
    return bits + ([out.loss_total.data.tobytes()] if out.loss_total is not None else [])


def adam_step(model, other):
    from dualmp.training import Adam

    model.params.zero_grads()
    backward(training_pass(model, seed=4).loss_total)
    Adam(model.params, 0.01).step()


def store_restore(model, other):
    model.params.restore(other.params.snapshot())


def checkpoint_restore(model, other):
    from dualmp.data import restore_into

    restore_into(model.params, other.params.snapshot())


def probe_writes(model, other):
    # what grad_check's central difference writes, into both projection weights and the edge scorer
    for key in ("proj_w", "proj_b", "edge_w")[: 3 if model.has_separator else 2]:
        p = model.params[f"{model.graph.relations[0].name}/{key}"]
        p.data.flat[3] = p.data.flat[3] + 1e-3


def nan_weight(model, other):
    model.params[f"{model.graph.relations[0].name}/proj_w"].data[0, 0] = np.nan


class TestKeptProjection:
    """Each relation's untaped whole-graph projection is built once per value of proj_w and proj_b."""

    def test_a_training_pass_reuses_the_evaluation_pass_projection(self, monkeypatch):
        from dualmp.training import Adam

        model = make_model(sparse_graph(), dropout=0.1)
        relations = model.graph.num_relations
        calls = count_whole_graph_projections(monkeypatch, model.graph.num_nodes)
        model.forward(training=False)
        out = training_pass(model)
        assert len(calls) == relations
        backward(out.loss_total)
        Adam(model.params, 0.01).step()
        model.forward(training=False)
        training_pass(model)
        assert len(calls) == 2 * relations

    def test_repeated_scoring_projects_once(self, monkeypatch):
        from dualmp.training import evaluate_split

        model = make_model(sparse_graph())
        calls = count_whole_graph_projections(monkeypatch, model.graph.num_nodes)
        reports = [evaluate_split(model, model.graph.split.test) for _ in range(3)]
        assert len(calls) == model.graph.num_relations
        assert reports[0] == reports[1] == reports[2]

    def test_sign_flip_of_a_zero_weight_rebuilds(self, monkeypatch):
        # np.array_equal(0.0, -0.0) holds; the bytes differ
        model = make_model(sparse_graph())
        calls = count_whole_graph_projections(monkeypatch, model.graph.num_nodes)
        model.forward(training=False)
        proj_b = model.params[f"{model.graph.relations[0].name}/proj_b"]
        assert proj_b.data[0, 0] == 0.0 and not np.signbit(proj_b.data[0, 0])
        proj_b.data[0, 0] = -0.0
        model.forward(training=False)
        assert len(calls) == model.graph.num_relations + 1

    @pytest.mark.parametrize(
        "write", [adam_step, store_restore, checkpoint_restore, probe_writes, nan_weight],
        ids=["adam", "restore", "restore_into", "probe", "nan"],
    )
    @pytest.mark.parametrize("first", ["eval", "train"])
    def test_pass_after_an_in_place_write_equals_a_fresh_model(self, write, first):
        graph = sparse_graph()
        model = make_model(graph, dropout=0.1)
        model.forward(training=False)
        training_pass(model, seed=1)  # the kept projection is now the one before the write
        write(model, DualChannelModel(graph, model.config, np.random.default_rng(5)))
        fresh = DualChannelModel(graph, model.config, np.random.default_rng(1))
        fresh.params.restore(model.params.snapshot())
        order = [False, True] if first == "eval" else [True, False]
        for training in order:
            got, want = ((training_pass(m) if training else m.forward(training=False)) for m in (model, fresh))
            assert pass_bits(got) == pass_bits(want)
            if training and write is nan_weight:
                assert not np.isfinite(got.loss_total.item())

    def test_the_kept_projection_and_the_features_are_read_only(self):
        graph = sparse_graph()
        model = make_model(graph)
        model.forward(training=False)
        for rel in model.graph.relations:
            h, active = model._projection(rel.name)
            for array in (h, active):
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 1.0
        # the projection would not see a write into the features the model was built on
        with pytest.raises(ValueError, match="read-only"):
            graph.features[0, 0] = 1.0


def count_split_work(monkeypatch):
    """Count the calls to edge scoring, partition and block cutting, by function name."""
    from dualmp import model as model_module
    from dualmp import propagation, separator

    counts = dict.fromkeys(("edge_score_values", "partition_subgraphs", "channel_adjacencies"), 0)
    for owner, name in zip((separator, model_module, propagation), counts, strict=True):

        def counted(*args, _original=getattr(owner, name), _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    return counts


def split_work(model, scored: int, cut: int, relations: int | None = None) -> dict[str, int]:
    """The counts of :func:`count_split_work` for ``scored`` splits and ``cut`` cuts in each of ``relations``."""
    relations = model.graph.num_relations if relations is None else relations
    splits = scored * relations if model.has_separator else 0
    return {"edge_score_values": splits, "partition_subgraphs": splits, "channel_adjacencies": cut * relations}


def scoring_pass(model, rows):
    return model.forward(training=False, node_batch=rows)


def split_arrays(partition, blocks):
    """Every array of an edge partition and of the channel blocks cut from it."""
    arrays = [partition.hetero_mask, partition.homo_offsets, partition.hetero_offsets]
    for block in blocks.values():
        arrays += [block.senders, block.matrix.data, block.matrix.indices, block.matrix.indptr]
    return arrays


def assert_read_only(arrays):
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]


@pytest.mark.parametrize("ablation", ["full", "sep"])
class TestKeptSplit:
    """An evaluation pass keeps its partition per value of the weights, and its blocks when its rows repeat."""

    def test_repeated_scoring_scores_and_partitions_once_and_cuts_twice(self, monkeypatch, ablation):
        from dualmp.training import evaluate_split

        model = make_model(sparse_graph(), ablation=ablation)
        counts = count_split_work(monkeypatch)
        reports = [evaluate_split(model, model.graph.split.test) for _ in range(3)]
        assert counts == split_work(model, scored=1, cut=2)
        assert reports[0] == reports[1] == reports[2]

    def test_a_reused_pass_equals_a_fresh_model(self, ablation):
        graph = sparse_graph()
        model = make_model(graph, ablation=ablation)
        rows = graph.split.test
        passes = [scoring_pass(model, rows) for _ in range(3)]
        fresh = DualChannelModel(graph, model.config, np.random.default_rng(1))
        fresh.params.restore(model.params.snapshot())
        want = pass_bits(scoring_pass(fresh, rows))
        assert all(pass_bits(out) == want for out in passes)

    @pytest.mark.parametrize(
        "write", [adam_step, store_restore, checkpoint_restore, probe_writes, nan_weight],
        ids=["adam", "restore", "restore_into", "probe", "nan"],
    )
    def test_scoring_after_an_in_place_write_equals_a_fresh_model(self, monkeypatch, write, ablation):
        graph = sparse_graph()
        model = make_model(graph, ablation=ablation, dropout=0.1)
        rows = graph.split.test
        for _ in range(2):  # the split and the blocks are now kept
            scoring_pass(model, rows)
        write(model, DualChannelModel(graph, model.config, np.random.default_rng(5)))
        fresh = DualChannelModel(graph, model.config, np.random.default_rng(1))
        fresh.params.restore(model.params.snapshot())
        counts = count_split_work(monkeypatch)
        got = scoring_pass(model, rows)
        # a probe and the NaN write into the first relation only; the NaN into its projection alone
        one = write in (probe_writes, nan_weight)
        assert counts == split_work(model, scored=1, cut=1, relations=1 if one else None)
        assert pass_bits(got) == pass_bits(scoring_pass(fresh, rows))

    def test_reordered_or_duplicated_rows_recut_the_blocks(self, monkeypatch, ablation):
        graph = sparse_graph()
        model = make_model(graph, ablation=ablation)
        rows = graph.split.test
        whole = scoring_pass(model, None).probs.data
        counts = count_split_work(monkeypatch)
        for _ in range(2):
            scoring_pass(model, rows)
        for other in (rows[::-1], np.append(rows, rows[0])):
            assert scoring_pass(model, other).probs.data.tobytes() == whole[other].tobytes()
        assert counts == split_work(model, scored=0, cut=4)

    def test_a_training_pass_neither_reads_nor_leaves_a_kept_split(self, monkeypatch, ablation):
        model = make_model(sparse_graph(), ablation=ablation, dropout=0.1)
        rows = model.graph.split.test
        for _ in range(2):
            scoring_pass(model, rows)
        def kept_values():
            return [value for stages in model._stages.values() for _, value in stages]

        kept = kept_values()
        assert len(kept) == 3 * model.graph.num_relations and None not in kept
        counts = count_split_work(monkeypatch)
        training_pass(model)
        assert counts == split_work(model, scored=1, cut=1)  # its own split and blocks
        # the same objects stay: an evaluation pass on another thread may be reading them
        assert all(after is before for after, before in zip(kept_values(), kept, strict=True))
        scoring_pass(model, rows)
        assert counts == split_work(model, scored=1, cut=1)  # the next scoring pass scores nothing

    def test_a_whole_graph_pass_keeps_no_blocks(self, ablation):
        model = make_model(sparse_graph(), ablation=ablation)
        scoring_pass(model, model.graph.split.test)
        scoring_pass(model, model.graph.split.test)
        scoring_pass(model, None)
        for _, partition, (_, blocks) in model._stages.values():
            assert partition[1] is not None and blocks is None

    def test_every_kept_array_is_read_only(self, ablation):
        model = make_model(sparse_graph(), ablation=ablation)
        rows = model.graph.split.test
        out = [scoring_pass(model, rows) for _ in range(2)][-1]
        for stages in model._stages.values():
            [(_, (h, active)), (_, partition), (_, blocks)] = stages
            assert_read_only([h, active, *split_arrays(partition, blocks)])
        for partition in out.partitions:
            assert partition is None or not partition.hetero_mask.flags.writeable

    def test_every_array_of_a_training_pass_split_is_read_only(self, monkeypatch, ablation):
        from dualmp import propagation

        model = make_model(sparse_graph(), ablation=ablation, dropout=0.1)
        cuts = record_calls(monkeypatch, propagation, "channel_adjacencies")
        training_pass(model)
        assert len(cuts) == model.graph.num_relations
        for (_, partition, *_), blocks in cuts:
            assert_read_only(split_arrays(partition, blocks))

    def test_a_write_into_a_relation_raises_after_scoring(self, ablation):
        # the kept split reads the relation's arrays: rewired in place, it would go stale unseen
        model = make_model(sparse_graph(), ablation=ablation)
        for _ in range(2):
            scoring_pass(model, model.graph.split.test)
        for rel in model.graph.relations:
            for array in (rel.offsets, rel.targets):
                with pytest.raises(ValueError, match="read-only"):
                    array[-1] = array[0]


@pytest.mark.parametrize("part", ["features", "offsets", "targets"])
def test_a_write_into_the_base_of_a_view_leaves_the_graph_and_its_kept_split_as_built(part):
    # a read-only view's base still takes writes, which would reach the kept projection and split unseen
    graph = sparse_graph()
    rel, others = graph.relations[0], graph.relations[1:]
    original = getattr(graph if part == "features" else rel, part).copy()
    base = np.concatenate([original, original], axis=-1)  # owns its data; the view is its first half
    view = base[..., :original.shape[-1]]
    if part == "features":
        built = dataclasses.replace(graph, features=view)
    else:
        built = dataclasses.replace(graph, relations=[dataclasses.replace(rel, **{part: view}), *others])
    model = make_model(built)
    before = model.forward(training=False).probs.data.tobytes()
    base += 1
    kept = built if part == "features" else built.relations[0]
    assert np.array_equal(getattr(kept, part), original)
    assert model.forward(training=False).probs.data.tobytes() == before
    assert make_model(built).forward(training=False).probs.data.tobytes() == before


def test_a_write_into_the_edge_scorer_alone_rebuilds_the_split_and_keeps_the_projection(monkeypatch):
    graph = sparse_graph()
    model = make_model(graph)
    rows = graph.split.test
    edge_w = model.params[f"{graph.relations[0].name}/edge_w"]
    edge_w.data[0, 0] = 0.0
    for _ in range(2):
        scoring_pass(model, rows)
    projections = count_whole_graph_projections(monkeypatch, graph.num_nodes)
    counts = count_split_work(monkeypatch)
    edge_w.data[0, 0] = -0.0  # np.array_equal(0.0, -0.0) holds; the bytes differ
    scoring_pass(model, rows)
    assert counts == split_work(model, scored=1, cut=1, relations=1)
    edge_w.data.flat[3] += 1e-3
    got = scoring_pass(model, rows)
    assert counts == split_work(model, scored=2, cut=2, relations=1)
    assert projections == []
    fresh = DualChannelModel(graph, model.config, np.random.default_rng(1))
    fresh.params.restore(model.params.snapshot())
    assert pass_bits(got) == pass_bits(scoring_pass(fresh, rows))


def record_calls(monkeypatch, module, name):
    """Record (arguments, result) of each call to ``module.name``."""
    calls, original = [], getattr(module, name)

    def recorded(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("hidden_dim", [2, 3, 8])
def test_reached_rows_are_the_rows_the_split_reads(monkeypatch, hidden_dim):
    """A training pass runs one projection product, and each take is its rows times the dropout factor, bit for bit.

    The pass is ``fit``'s first on the A4 fixture with seed 2, so the scores
    and the split read that product times the dropout factor. A second
    product over the taken rows would not do: on OpenBLAS 0.3.31 a subset's
    rows of a width-2 or width-3 projection can differ from the whole-graph
    product's.
    """
    from test_acceptance import A4_SPEC

    from dualmp import separator
    from dualmp.training import epoch_batches, training_edge_sets

    graph = generate_synthetic(SyntheticSpec(seed=2, **A4_SPEC))
    rng = np.random.default_rng(2)
    model = DualChannelModel(graph, TrainConfig(seed=2, hidden_dim=hidden_dim), rng)
    node_batch, edge_batches = epoch_batches(model.graph, training_edge_sets(model), rng)
    products = record_calls(monkeypatch, separator, "project_features")
    factors = record_calls(monkeypatch, separator, "dropout_factor")
    splits = record_calls(monkeypatch, separator, "edge_score_values")
    takes = record_calls(monkeypatch, ad, "relu_linear_rows")
    model.forward(training=True, rng=rng, node_batch=node_batch, edge_batches=edge_batches)

    [((x, *_), (whole, _))] = products
    assert x.shape[0] == graph.num_nodes
    [(_, factor)] = factors
    dropped = whole * factor
    [((split_h, *_), _)] = splits
    assert np.array_equal(split_h.view(np.int64), dropped.view(np.int64))
    # the rows, the two channels' senders, and the hinge's distinct endpoints
    assert len(takes) == 4
    assert any(np.array_equal(index, node_batch) for (*_, index), _ in takes)
    for (*_, index), taken in takes:
        assert len(index) < graph.num_nodes
        assert np.array_equal(taken.data.view(np.int64), dropped[index].view(np.int64))


@pytest.mark.parametrize("ablation", ["full", "homo", "heter", "rel"])
def test_the_hinge_takes_its_distinct_endpoints_once_per_relation(monkeypatch, ablation):
    """Each relation's hinge is one consumer of the projection: the sorted distinct ends of its edge batch.

    Its edge loss is the hinge over the per-edge reference scores, which
    take one projection row per edge end, to rounding.
    """
    from test_separator import per_edge_reference

    from dualmp.separator import heterophily_loss
    from dualmp.training import epoch_batches, training_edge_sets

    model = make_model(sparse_graph(), ablation=ablation, dropout=0.1)
    rng = np.random.default_rng(7)
    node_batch, edge_batches = epoch_batches(model.graph, training_edge_sets(model), rng)
    takes = record_calls(monkeypatch, ad, "relu_linear_rows")
    out = model.forward(training=True, rng=rng, node_batch=node_batch, edge_batches=edge_batches)
    per_relation = 1 + len(CHANNELS[ablation]) + 1
    assert len(takes) == per_relation * model.graph.num_relations
    for ri, rel in enumerate(model.graph.relations):
        positions, signs = edge_batches[ri]
        sources, targets = rel.edge_sources[positions], rel.targets[positions]
        ends = np.unique(np.concatenate([sources, targets]))
        assert len(ends) < 2 * len(positions)  # the batch repeats an endpoint
        relation_takes = takes[ri * per_relation : (ri + 1) * per_relation]
        [(args, hinge_rows)] = [(args, t) for args, t in relation_takes if np.array_equal(args[-1], ends)]
        x, proj_w, proj_b, h, passes, _ = args
        per_edge = [ad.relu_linear_rows(x, proj_w, proj_b, h, passes, index) for index in (sources, targets)]
        for index, rows in zip((sources, targets), per_edge):
            assert np.array_equal(rows.data, hinge_rows.data[np.searchsorted(ends, index)])
        edge_w = model.params[f"{rel.name}/edge_w"]
        want = heterophily_loss(per_edge_reference(*per_edge, edge_w), signs).item()
        assert abs(out.edge_losses[ri].item() - want) <= 1e-15 * abs(want)


def test_zero_pre_activation_passes_the_gradient_as_the_plain_chain_does(monkeypatch):
    """With all-zero features and ``proj_b`` at 0 the pre-activation is exactly 0.

    relu's rule passes the gradient there, so ``proj_b`` gets one; a mask
    taken from the projection (``h > 0``) would drop it. The projection
    gradients equal those of the plain taped chain over each take's rows,
    dropout factor included.
    """
    from dualmp import separator

    base = sparse_graph()
    graph = MultiRelationGraph(np.zeros_like(base.features), base.labels, base.relations, base.split)
    model = make_model(graph, dropout=0.1)
    names = [f"{rel.name}/{key}" for rel in model.graph.relations for key in ("proj_w", "proj_b")]
    factors = record_calls(monkeypatch, separator, "dropout_factor")

    def projection_grads():
        model.params.zero_grads()
        backward(training_pass(model).loss_total)
        return [model.params[name].grad.view(np.int64).copy() for name in names]

    got = projection_grads()

    def chain(x, w, b, out, passes, index):
        factor = factors[-1][1]  # the factor of the relation being taken
        return ad.mul_const(ad.relu(ad.add_bias(ad.matmul(tensor(x[index]), w), b)), factor[index])

    monkeypatch.setattr(ad, "relu_linear_rows", chain)
    want = projection_grads()
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
    assert all(model.params[name].grad.any() for name in names[1::2])


@pytest.mark.parametrize("ablation", ["full", "sep", "homo", "heter", "rel"])
def test_projection_gradcheck_at_hidden_width_3(monkeypatch, ablation):
    """``dualmp gradcheck``'s recipe (dropout 0, frozen partitions) at width 3, for the projection's rule.

    At width 3 some rows of the projection are all zero (2 and 7 of 30 under
    ``full``), so the channel biases (``*_b1``, ``*_b2``, which start at 0)
    sit exactly on a relu or leaky-relu kink there. Central differences
    straddle it at every probe size, so those parameters' errors reach
    0.005-0.75 however the projection is taped. This test checks the
    projection's parameters, whose backward rule is written by hand.
    """
    from dualmp import cli

    monkeypatch.setattr(cli, "TrainConfig", functools.partial(TrainConfig, hidden_dim=3))
    models = record_calls(monkeypatch, cli, "DualChannelModel")
    errors = cli.gradcheck_model(ablation, seed=7, probe=1e-3)
    assert [args[1].hidden_dim for args, _ in models] == [3]
    projection = {name: err for name, err in errors.items() if name.endswith(("/proj_w", "/proj_b"))}
    assert len(projection) == 2 * models[0][1].graph.num_relations
    assert max(projection.values()) < cli.GRADCHECK_TOLERANCE


@pytest.mark.parametrize("ablation", ["full", "sep", "homo", "heter", "rel"])
def test_gradcheck_at_hidden_width_3_off_the_kink(monkeypatch, ablation):
    """``dualmp gradcheck``'s recipe at width 3, checked on every parameter after one Adam step.

    At the starting point the zero-initialised channel biases sit on a kink
    (see :func:`test_projection_gradcheck_at_hidden_width_3`). One Adam step
    of the same loss, with ``fit``'s optimiser settings, moves every bias
    off it, so the central differences agree with the tape again.
    """
    from dualmp import cli
    from dualmp.training import Adam

    config = TrainConfig(hidden_dim=3)
    monkeypatch.setattr(cli, "TrainConfig", functools.partial(TrainConfig, hidden_dim=3))
    check = cli.grad_check

    def stepped_check(forward, store, **kwargs):
        store.zero_grads()
        backward(forward())
        Adam(store, config.learning_rate, config.weight_decay).step()
        return check(forward, store, **kwargs)

    monkeypatch.setattr(cli, "grad_check", stepped_check)
    models = record_calls(monkeypatch, cli, "DualChannelModel")
    errors = cli.gradcheck_model(ablation, seed=7, probe=1e-3)
    [((_, built_config, _), model)] = models
    assert built_config.hidden_dim == 3 and sorted(errors) == sorted(name for name, _ in model.params.items())
    assert max(errors.values()) < cli.GRADCHECK_TOLERANCE


# -- an evaluation pass's relations, spread over the helper thread ------------


def watch_relations(monkeypatch, before=None) -> list[tuple[str, bool]]:
    """Per relation embedding built, (relation name, whether on the main thread); ``before(name)`` runs first."""
    built, embed = [], DualChannelModel._relation_embedding

    def watched(self, name, *args):
        if before is not None:
            before(name)
        built.append((name, threading.current_thread() is threading.main_thread()))
        return embed(self, name, *args)

    monkeypatch.setattr(DualChannelModel, "_relation_embedding", watched)
    return built


def relation_one_waited_for(model):
    """A ``before`` hook by which relation 0 waits, in every pass, until relation 1 has started off the main thread."""
    started = threading.Event()

    def before(name):
        if name == model.graph.relations[0].name:
            assert started.wait(timeout=30)
            started.clear()
        else:
            started.set()

    return before


@pytest.mark.parametrize("entry", ["evaluate_split", "forward"])
@pytest.mark.parametrize("case", ["helper-free", "helper-busy", "one-cpu"])
@pytest.mark.parametrize("ablation", list(CHANNELS))
def test_a_spread_pass_equals_the_sequential_pass(small_graph, monkeypatch, ablation, case, entry):
    from dualmp import model as model_module
    from dualmp.training import evaluate_split

    rows = small_graph.split.test

    def scores(model):
        # two passes: the first builds the kept split, the second reuses it
        if entry == "evaluate_split":
            return [evaluate_split(model, rows) for _ in range(2)]
        outs = [model.forward(training=False, node_batch=rows) for _ in range(2)]
        return [pass_bits(out) + [z.data.tobytes() for z in out.embeddings] for out in outs]

    assert len(rows) < model_module.OVERLAP_MIN_ROWS
    want = scores(make_model(small_graph, ablation=ablation))
    model = make_model(small_graph, ablation=ablation)
    spread = model.graph.num_relations > 1  # rel merges the relations into one
    spreading(monkeypatch, cpus=1 if case == "one-cpu" else 2)
    built = watch_relations(monkeypatch, relation_one_waited_for(model) if spread and case == "helper-free" else None)
    release = threading.Event()
    blocker = model_module._helper(len(rows)).submit(release.wait, 30) if case == "helper-busy" else None
    submitted = count_submissions(monkeypatch)
    try:
        got = scores(model)
    finally:
        release.set()
        if blocker is not None:
            assert blocker.result(timeout=30)
    assert got == want
    names = [rel.name for rel in model.graph.relations]
    if spread and case != "one-cpu":
        assert len(submitted) == 2  # relation 1, once per pass
        # relation 1 runs on the helper, or is taken back from a busy one
        assert sorted(built) == sorted([(names[0], True), (names[1], case == "helper-busy")] * 2)
    else:
        assert submitted == [] and sorted(built) == sorted([(name, True) for name in names] * 2)


@pytest.mark.parametrize("untaped", [True, False])
def test_a_job_on_the_helper_records_a_tape_as_it_would_on_the_calling_thread(monkeypatch, untaped):
    from dualmp import model as model_module

    spreading(monkeypatch)
    weight = tensor(np.ones((2, 2)), requires_grad=True)
    started = threading.Event()

    def held():
        assert started.wait(timeout=30), "the helper never started job 1"
        return ad.matmul(weight, weight), threading.current_thread()

    def offered():
        started.set()
        return ad.matmul(weight, weight), threading.current_thread()

    with ad.no_tape() if untaped else contextlib.nullcontext():
        (here, here_thread), (there, there_thread) = model_module.spread([held, offered], rows=0)
    assert here_thread is threading.main_thread() and there_thread.name.startswith("dualmp-helper")
    parents = () if untaped else (weight, weight)
    assert here._parents == parents and there._parents == parents


@pytest.mark.parametrize("has_mallopt", [True, False])
def test_a_fresh_helper_holds_malloc_to_one_arena_before_it_starts(monkeypatch, has_mallopt):
    from dualmp import model as model_module

    calls = []

    def mallopt(param, value):
        calls.append((param, value, model_module._pool))
        return 1

    library = types.SimpleNamespace(mallopt=mallopt) if has_mallopt else types.SimpleNamespace()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: library)
    monkeypatch.setattr(model_module, "_pool", None)  # the process's helper comes back at teardown
    spreading(monkeypatch)
    pool = model_module._helper(0)
    try:
        assert pool is not None and model_module._helper(0) is pool
        assert calls == ([(-8, 1, None)] if has_mallopt else [])  # M_ARENA_MAX, once, before the pool
    finally:
        pool.shutdown()


def test_the_embeddings_of_a_helper_job_have_no_parents(small_graph, monkeypatch):
    model = make_model(small_graph)
    spreading(monkeypatch)
    built = watch_relations(monkeypatch, relation_one_waited_for(model))
    out = model.forward(training=False, node_batch=small_graph.split.test)
    assert sorted(built) == [(model.graph.relations[0].name, True), (model.graph.relations[1].name, False)]
    assert [z._parents for z in out.embeddings] == [(), ()]


@pytest.mark.parametrize("failing", [0, 1])
def test_an_error_in_a_relation_propagates_and_leaves_no_job_running(small_graph, monkeypatch, failing):
    from dualmp import model as model_module
    from dualmp.training import evaluate_split

    model = make_model(small_graph)
    first, second = (rel.name for rel in model.graph.relations)
    started, finished = threading.Event(), []

    def before(name):
        if name == second:  # on the helper, while relation 0 waits for it
            started.set()
            if failing == 1:
                raise RuntimeError("relation 1 failed")
            time.sleep(0.2)
            finished.append(name)
        else:
            assert started.wait(timeout=30)
            if failing == 0:
                raise RuntimeError("relation 0 failed")

    spreading(monkeypatch)
    built = watch_relations(monkeypatch, before)
    with pytest.raises(RuntimeError, match=f"relation {failing} failed"):
        evaluate_split(model, small_graph.split.test)
    # relation 1's job ended before the error left the pass, and the helper is free
    assert built == ([(first, True)] if failing else [(second, False)])
    assert finished == ([] if failing else [second])
    helper_thread = model_module._helper(0).submit(threading.current_thread).result(timeout=30)
    assert helper_thread.name.startswith("dualmp-helper")


@pytest.mark.parametrize("ablation", list(CHANNELS))
def test_training_and_whole_graph_passes_submit_nothing(small_graph, monkeypatch, ablation):
    model = make_model(small_graph, ablation=ablation)
    spreading(monkeypatch)
    built = watch_relations(monkeypatch)
    submitted = count_submissions(monkeypatch)
    model.forward(training=False)
    training_pass(model)
    assert submitted == [] and all(main for _, main in built)
    assert len(built) == 2 * model.graph.num_relations
