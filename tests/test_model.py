import numpy as np
import pytest

import dualmp.autodiff as ad
from dualmp.autodiff import backward, tensor
from dualmp.data import SyntheticSpec, generate_synthetic
from dualmp.graphs import partition_subgraphs
from dualmp.model import (
    ConfigError,
    DualChannelModel,
    TrainConfig,
    classification_loss,
    classify,
    total_loss,
)
from dualmp.separator import edge_score_values, project_features


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
        one = classification_loss(ad.gather_rows(logits, [0]), [1]).item()
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
        assert model.params.num_values() == expected

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
        z_full_smooth = full._relation_embedding(rel, h_proj_full, all_homo, rows)  # heter wiring path
        z_heter = heter._relation_embedding(rel, h_proj_full, all_homo, rows)
        # full wiring runs fusion on top, so compare the shared channel instead
        full.config.ablation = "heter"
        try:
            z_full_channel = full._relation_embedding(rel, h_proj_full, all_homo, rows)
        finally:
            full.config.ablation = "full"
        assert np.array_equal(z_full_channel.data, z_heter.data)
        # and the contrast channel on an empty subgraph is the projection itself
        contrast_sub = all_homo.hetero
        assert contrast_sub.edge_count == 0

    def test_unknown_ablation_rejected(self, small_graph):
        with pytest.raises(ConfigError, match="ablation"):
            make_model(small_graph, ablation="nope")


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
            h = project_features(model.features, p("proj_w"), p("proj_b"))
            scores = edge_score_values(h.data, rel.edge_sources, rel.targets, p("edge_w").data)
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
    # the batch forward computes only the rows the loss reads; with frozen
    # partitions it must give the loss of the whole-graph forward exactly
    from dualmp.training import balanced_node_sample

    graph = generate_synthetic(
        SyntheticSpec(num_nodes=80, fraud_ratio=0.2, num_relations=2, mean_degree=3.0, feature_dim=5, seed=4)
    )
    model = make_model(graph, ablation=ablation)
    labels = model.graph.labels
    partitions = model.forward(training=False).partitions
    node_batch = balanced_node_sample(model.graph.split.train, labels, np.random.default_rng(5))

    model.params.zero_grads()
    full = model.forward(training=True, partitions=partitions)  # dropout is 0
    full_logits = classify(full.embeddings, model.params["classifier/w"], model.params["classifier/b"])
    reference = classification_loss(ad.gather_rows(full_logits, node_batch), labels[node_batch])
    backward(reference)
    reference_grads = {name: p.grad for name, p in model.params.items()}

    model.params.zero_grads()
    batch = model.forward(training=True, node_batch=node_batch, partitions=partitions)
    backward(batch.loss_total)

    assert batch.loss_total.item() == reference.item()
    assert np.array_equal(batch.probs.data, full.probs.data[node_batch])
    for z_batch, z_full in zip(batch.embeddings, full.embeddings, strict=True):
        assert np.array_equal(z_batch.data, z_full.data[node_batch])
    for name, p in model.params.items():
        assert np.abs(p.grad - reference_grads[name]).max() <= 1e-12, name


@pytest.mark.parametrize("ablation", ["full", "sep", "homo", "heter", "rel"])
def test_eval_forward_records_no_tape_and_builds_no_loss(small_graph, ablation):
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
    # an evaluation pass that raises leaves recording on
    with pytest.raises(ValueError, match="batch rows"):
        model.forward(training=False, node_batch=[small_graph.num_nodes])
    w = model.params["classifier/w"]
    assert ad.add(w, w)._parents
