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
    relation_fuse,
    total_loss,
)


@pytest.fixture(scope="module")
def small_graph():
    return generate_synthetic(
        SyntheticSpec(num_nodes=30, fraud_ratio=0.2, num_relations=2, mean_degree=4.0,
                      feature_dim=5, seed=3)
    )


def make_model(graph, **overrides):
    config = TrainConfig(**{"dropout": 0.0, **overrides})
    return DualChannelModel(graph, config, np.random.default_rng(0))


class TestRelationFuse:
    def test_single_relation_identity(self):
        z = tensor(np.random.default_rng(0).normal(size=(4, 3)))
        assert relation_fuse([z]) is z

    def test_width(self):
        parts = [tensor(np.zeros((5, 8))) for _ in range(3)]
        assert relation_fuse(parts).shape == (5, 24)

    def test_rows_stay_aligned(self):
        rng = np.random.default_rng(1)
        parts = [tensor(rng.normal(size=(4, 2))) for _ in range(3)]
        fused = relation_fuse(parts).data
        u = 2
        assert np.array_equal(fused[u], np.concatenate([p.data[u] for p in parts]))


class TestClassify:
    def test_zero_head_is_uniform(self):
        z = tensor(np.random.default_rng(2).normal(size=(6, 4)))
        probs = classify(z, tensor(np.zeros((4, 2))), tensor(np.zeros((1, 2))))
        assert np.allclose(probs.data, 0.5)

    def test_bias_dominance(self):
        z = tensor(np.zeros((3, 4)))
        probs = classify(z, tensor(np.zeros((4, 2))), tensor([[0.0, 10.0]]))
        assert (probs.data[:, 1] > 0.9999).all()

    def test_hand_softmax(self):
        z = tensor([[1.0]])
        probs = classify(z, tensor([[np.log(3.0), 0.0]]), tensor(np.zeros((1, 2))))
        assert np.allclose(probs.data, [[0.75, 0.25]])


class TestClassificationLoss:
    def test_uniform_probs(self):
        probs = tensor(np.full((2, 2), 0.5))
        loss = classification_loss(probs, [1, 0], [0, 1])
        assert loss.item() == pytest.approx(2 * np.log(2))

    def test_single_confident_node(self):
        probs = tensor([[0.1, 0.9]])
        assert classification_loss(probs, [1], [0]).item() == pytest.approx(-np.log(0.9))

    def test_perfect_predictions_near_zero(self):
        probs = tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = classification_loss(probs, [0, 1], [0, 1])
        assert 0 <= loss.item() < 1e-10

    def test_sum_not_mean(self):
        probs = tensor(np.full((4, 2), 0.5))
        one = classification_loss(probs, [1, 1, 1, 1], [0]).item()
        four = classification_loss(probs, [1, 1, 1, 1], [0, 1, 2, 3]).item()
        assert four == pytest.approx(4 * one)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            classification_loss(tensor(np.full((2, 2), 0.5)), [0, 1], [])


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
        z_full_smooth = full._relation_embedding(rel, h_proj_full, all_homo)  # heter wiring path
        z_heter = heter._relation_embedding(rel, h_proj_full, all_homo)
        # full wiring runs fusion on top, so compare the shared channel instead
        full.config.ablation = "heter"
        try:
            z_full_channel = full._relation_embedding(rel, h_proj_full, all_homo)
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
        out = make_model(small_graph).forward(training=False)
        for part, scores in zip(out.partitions, out.edge_scores):
            assert np.array_equal(part.hetero_mask, scores >= 0)

    def test_frozen_partition_is_reused(self, small_graph):
        model = make_model(small_graph)
        first = model.forward(training=False)
        second = model.forward(training=False, partitions=first.partitions)
        assert second.partitions[0] is first.partitions[0]
        assert np.array_equal(first.probs.data, second.probs.data)

    def test_losses_only_with_batches(self, small_graph):
        model = make_model(small_graph)
        assert model.forward(training=False).loss_total is None
        out = model.forward(training=False, node_batch=small_graph.split.train[:4])
        assert out.loss_total is not None

    def test_sep_ablation_reports_no_scores(self, small_graph):
        out = make_model(small_graph, ablation="sep").forward(training=False)
        assert out.partitions == [None, None]
        assert out.edge_scores == [None, None]

    def test_loss_reachability_smoke(self):
        # every active parameter moves on a seeded batch; the graph is dense
        # enough that every relation has labeled edges of both kinds
        graph = generate_synthetic(
            SyntheticSpec(num_nodes=80, fraud_ratio=0.3, num_relations=2, mean_degree=8.0,
                          fraud_homophily=0.5, benign_homophily=0.7, seed=2)
        )
        model = make_model(graph, dropout=0.1)
        rng = np.random.default_rng(11)
        from dualmp.training import balanced_edge_sample, balanced_node_sample, training_edge_sets
        node_batch = balanced_node_sample(graph.split.train, graph.labels, rng)
        mask = graph.split.train_mask(graph.num_nodes)
        batches = [balanced_edge_sample(p, s, rng)
                   for p, s in training_edge_sets(graph.relations, graph.labels, mask)]
        model.params.zero_grads()
        out = model.forward(training=True, rng=rng, node_batch=node_batch, edge_batches=batches)
        backward(out.loss_total)
        for name, p in model.params.items():
            assert np.abs(p.grad).max() > 0, f"{name} received no gradient"
