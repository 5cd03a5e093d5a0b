import numpy as np
import pytest
from scipy import sparse

import dualmp.autodiff as ad
from dualmp.autodiff import ParamStore, backward, tensor
from dualmp.graphs import distinct_nodes
from dualmp.separator import (
    dropout_factor,
    edge_label_signs,
    edge_score_values,
    edge_scores,
    heterophily_loss,
    project_features,
)


class TestProjectFeatures:
    def test_identity_on_nonnegative(self):
        x = np.array([[1.0, 2.0], [0.0, 3.0]])
        h, active = project_features(x, np.eye(2), np.zeros((1, 2)))
        assert np.array_equal(h, x)
        assert active.all()  # a pre-activation of exactly 0 counts as active

    def test_zero_input_passes_relu_bias(self):
        h, active = project_features(np.zeros((2, 2)), np.eye(2), np.array([[-1.0, 2.0]]))
        assert np.array_equal(h, [[0.0, 2.0], [0.0, 2.0]])
        assert active.tolist() == [[False, True], [False, True]]

    def test_hand_value(self):
        h, active = project_features(np.array([[1.0, -1.0]]), np.eye(2), np.zeros((1, 2)))
        assert h.tolist() == [[1.0, 0.0]]
        assert active.tolist() == [[True, False]]
        assert not h.flags.writeable and not active.flags.writeable

    def test_active_is_where_relu_passes_the_gradient(self):
        # the mask is what relu's backward reads: pre >= 0, so 0 passes and NaN does not
        store = ParamStore()
        x, w, b = tensor(np.zeros((1, 4))), store.add("w", np.eye(4)), store.add("b", [[0.0, -1.0, 2.0, np.nan]])
        _, active = project_features(x.data, w.data, b.data)
        b.grad = np.zeros((1, 4))
        backward(ad.mean_all(ad.relu(ad.add_bias(ad.matmul(x, w), b))))
        assert active.tolist() == [[True, False, True, False]]
        assert np.array_equal(b.grad != 0, active)

    def test_dropout_only_in_training(self):
        h = tensor(np.ones((50, 20)))
        assert dropout_factor(h.shape, 0.5, training=False) is None
        train_h = ad.mul_const(h, dropout_factor(h.shape, 0.5, training=True, rng=np.random.default_rng(0)))
        assert (train_h.data == 0.0).any()
        assert set(np.unique(train_h.data)) == {0.0, 2.0}


class TestDropoutFactor:
    def test_rate_zero_identity(self):
        # no factor, and no draw: the rng stream is left as it was
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert dropout_factor((1, 2), 0.0, training=True, rng=rng) is None
        assert rng.bit_generator.state == state

    def test_eval_mode_identity(self):
        assert dropout_factor((1, 2), 0.1, training=False) is None

    def test_survival_statistics(self):
        factor = dropout_factor((1000, 1000), 0.5, training=True, rng=np.random.default_rng(11))
        keep = np.random.default_rng(11).random((1000, 1000)) >= 0.5
        assert np.array_equal(factor, keep * 2.0)  # survivors scaled by 1 / (1 - rate)
        assert abs(keep.mean() - 0.5) < 0.01
        assert abs(factor.mean() - 1.0) < 0.01  # rescaling preserves the mean

    def test_gradient_uses_mask(self):
        store = ParamStore()
        x = store.add("x", np.abs(np.random.default_rng(12).normal(size=(5, 4))))
        factor = dropout_factor(x.shape, 0.5, training=True, rng=np.random.default_rng(13))
        h = ad.relu(ad.add_bias(ad.matmul(x, tensor(np.eye(4))), tensor(np.zeros((1, 4)))))
        out = ad.mul_const(h, factor)
        assert np.array_equal(out.data, x.data * factor)
        x.grad = np.zeros_like(x.data)
        backward(ad.mean_all(out))
        assert np.array_equal(x.grad, factor / x.data.size)

    @pytest.mark.parametrize("rate", [-0.1, 1.0, np.nan])
    def test_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="dropout rate"):
            dropout_factor((1, 2), rate, training=False)


def rows_of(h, index):
    """The rows ``index`` of ``h`` as a taped product with a 0/1 selection matrix, so a gradient reaches ``h``."""
    k = len(index)
    return ad.sparse_matmul(sparse.csr_array((np.ones(k), index, np.arange(k + 1)), shape=(k, h.shape[0])), h)


def per_edge_reference(h_u, h_v, edge_w):
    """tanh(h_u (W_u + W_d) + h_v (W_v - W_d)), taped, with products over one row per edge end."""
    w_u, w_v, w_d = ad.row_blocks(edge_w, 3)
    return ad.tanh(ad.add(ad.matmul(h_u, ad.add(w_u, w_d)), ad.matmul(h_v, ad.sub(w_v, w_d))))


class TestEdgeScores:
    def test_difference_only_weight_gives_zero_on_equal_embeddings(self):
        h = tensor([[1.0, 2.0], [1.0, 2.0]])
        w = tensor(np.array([[0.0], [0.0], [0.0], [0.0], [1.0], [1.0]]))
        scores = edge_scores(h, [0], [1], w)
        assert scores.data.tolist() == [[0.0]]

    def test_zero_weight_gives_zero(self):
        h = tensor(np.random.default_rng(1).normal(size=(4, 3)))
        scores = edge_scores(h, [0, 1, 2], [1, 2, 3], tensor(np.zeros((9, 1))))
        assert scores.shape == (3, 1) and not scores.data.any()

    def test_hand_value(self):
        h = tensor([[1.0], [0.0]])
        w = tensor(np.array([[0.0], [0.0], [1.0]]))
        scores = edge_scores(h, [0], [1], w)
        assert scores.data[0, 0] == pytest.approx(np.tanh(1.0))

    def test_batched_matches_plain_twin(self):
        # the split's untaped pre-activation is the hinge's, before the tanh
        rng = np.random.default_rng(2)
        h = rng.normal(size=(10, 4))
        w = rng.normal(size=(12, 1))
        src = rng.integers(0, 10, size=15)
        tgt = rng.integers(0, 10, size=15)
        taped = edge_scores(tensor(h), src, tgt, tensor(w)).data.reshape(-1)
        plain = edge_score_values(h, src, tgt, w)  # the pre-activation
        assert np.array_equal(taped, np.tanh(plain))

    def test_pre_activation_sign_equals_score_sign_at_the_edges_of_float64(self):
        values = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, np.inf, -np.inf, np.nan, 1.0, -1.0])
        sides = [True, True, True, False, True, False, True, False, False, True, False]
        # tanh keeps every value on its side of 0, signed zeros and NaN included
        assert (ad.tanh(tensor(values)).data.reshape(-1) >= 0).tolist() == sides
        # with edge_w = [1, -1, 0] and h_0 = 0 the pre-activation of edge (u, 0)
        # is h_u - 0, so the scorer sees each value (BLAS turns -0.0 into +0.0)
        h = np.concatenate([[0.0], values]).reshape(-1, 1)
        w = np.array([[1.0], [-1.0], [0.0]])
        src = np.arange(1, len(h))
        tgt = np.zeros(len(values), dtype=np.int64)
        pre = edge_score_values(h, src, tgt, w)
        taped = edge_scores(tensor(h), src, tgt, tensor(w)).data.reshape(-1)
        assert np.array_equal(pre, values, equal_nan=True)
        assert (pre >= 0).tolist() == (taped >= 0).tolist() == sides

    def test_strictly_inside_unit_interval(self):
        # holds up to float64 resolution; tanh rounds to exactly 1 past |x| ~ 19
        rng = np.random.default_rng(3)
        h = tensor(rng.normal(size=(20, 4)))
        w = tensor(rng.normal(size=(12, 1)))
        scores = edge_scores(h, rng.integers(0, 20, 50), rng.integers(0, 20, 50), w).data
        assert scores.shape == (50, 1) and (np.abs(scores) < 1.0).all()

    def test_difference_block_antisymmetry(self):
        # with weight only on the difference block, swapping endpoints negates the score
        rng = np.random.default_rng(4)
        h = tensor(rng.normal(size=(6, 3)))
        w = np.zeros((9, 1))
        w[6:] = rng.normal(size=(3, 1))
        forward = edge_scores(h, [0, 2], [1, 5], tensor(w)).data
        backward_ = edge_scores(h, [1, 5], [0, 2], tensor(w)).data
        assert np.allclose(forward, -backward_)

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_split_values_are_the_plain_formula_bit_for_bit(self, d):
        # the two per-node products over all rows, read at each edge's ends, as plain numpy
        rng = np.random.default_rng(d)
        for _ in range(20):
            n, e = int(rng.integers(1, 3000)), int(rng.integers(0, 5000))
            h, w = rng.normal(size=(n, d)), rng.normal(size=(3 * d, 1))
            src, tgt = rng.integers(0, n, size=e), rng.integers(0, n, size=e)
            w_u, w_v, w_d = np.split(w, 3)
            plain = (h @ (w_u + w_d)).reshape(-1)[src] + (h @ (w_v - w_d)).reshape(-1)[tgt]
            got = edge_score_values(h, src, tgt, w)
            assert got.shape == (e,) and np.array_equal(got.view(np.int64), plain.view(np.int64))

    @pytest.mark.parametrize("seed", range(4))
    def test_distinct_endpoints_equal_the_per_edge_reference(self, seed):
        # repeated endpoints, and nodes that are both a source and a target
        rng = np.random.default_rng(seed)
        n, d, e = 12, 4, 40
        src, tgt = rng.integers(0, n // 2, size=e), rng.integers(0, n, size=e)
        assert len(np.intersect1d(src, tgt)) and len(np.unique(src)) < e
        weights = rng.normal(size=(e, 1))
        store = ParamStore()
        h, edge_w = store.add("h", rng.normal(size=(n, d))), store.add("edge_w", rng.normal(size=(3 * d, 1)))
        distinct, ends = distinct_nodes((src, tgt), n)

        def scores_and_grads(scores):
            store.zero_grads()
            backward(ad.mean_all(ad.mul_const(scores, weights)))
            return scores.data, h.grad, edge_w.grad

        got = scores_and_grads(edge_scores(rows_of(h, distinct), *ends, edge_w))
        want = scores_and_grads(per_edge_reference(rows_of(h, src), rows_of(h, tgt), edge_w))
        assert np.all(np.abs(got[0] - want[0]) <= 1e-15 * np.abs(want[0]))
        for g, w in zip(got[1:], want[1:]):
            assert np.abs(g - w).max() <= 1e-12


class TestFactoredScorer:
    # the scorer sums per-node products instead of building [h_u || h_v || h_u - h_v]
    def test_matches_concat_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n, d, e = int(rng.integers(2, 40)), int(rng.integers(1, 10)), int(rng.integers(1, 100))
            h = rng.normal(size=(n, d))
            w = rng.normal(size=(3 * d, 1))
            src, tgt = rng.integers(0, n, size=e), rng.integers(0, n, size=e)
            concat = np.tanh(np.concatenate([h[src], h[tgt], h[src] - h[tgt]], axis=1) @ w)
            assert np.abs(edge_scores(tensor(h), src, tgt, tensor(w)).data - concat).max() < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        store = ad.ParamStore()
        h = store.add("h", rng.normal(size=(6, 3)))
        edge_w = store.add("edge_w", rng.normal(size=(9, 1)))
        src = np.array([0, 1, 1, 4, 5, 0, 2])
        tgt = np.array([1, 0, 3, 4, 2, 5, 2])
        weights = rng.normal(size=(len(src), 1))  # keeps the reduced loss non-constant
        errors = ad.grad_check(
            lambda: ad.mean_all(ad.mul_const(edge_scores(h, src, tgt, edge_w), weights)),
            store,
            probe=1e-6,
        )
        assert max(errors.values()) < 1e-6

    def test_weight_of_wrong_height(self):
        with pytest.raises(ValueError, match="the scorer needs 3"):
            edge_scores(tensor(np.ones((1, 3))), [0], [0], tensor(np.ones((6, 1))))
        with pytest.raises(ValueError, match="the scorer needs 3"):
            edge_score_values(np.ones((1, 3)), [0], [0], np.ones((6, 1)))


class TestHeterophilyLoss:
    def test_perfect_scores_zero_loss(self):
        scores = tensor(np.array([[1.0], [-1.0]]))
        assert heterophily_loss(scores, [1.0, -1.0]).item() == 0.0

    def test_zero_scores_unit_loss(self):
        scores = tensor(np.zeros((4, 1)))
        assert heterophily_loss(scores, [1.0, -1.0, 1.0, -1.0]).item() == 1.0

    def test_hand_value(self):
        assert heterophily_loss(tensor([[0.5]]), [-1.0]).item() == pytest.approx(1.5)

    @pytest.mark.filterwarnings("error")
    def test_empty_batch_returns_zero(self):
        # a relation whose training edges lack one sign draws an empty batch every epoch
        loss = heterophily_loss(tensor(np.zeros((0, 1))), [])
        assert loss.item() == 0.0 and not loss._parents

    def test_strictly_positive_on_tanh_scores(self):
        # |score| < 1 through tanh, so the hinge can never reach zero
        rng = np.random.default_rng(5)
        h = tensor(rng.normal(size=(10, 3)) * 5)
        w = tensor(rng.normal(size=(9, 1)) * 5)
        scores = edge_scores(h, rng.integers(0, 10, 30), rng.integers(0, 10, 30), w)
        signs = rng.choice([-1.0, 1.0], size=30)
        assert heterophily_loss(scores, signs).item() > 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="scores for"):
            heterophily_loss(tensor(np.zeros((2, 1))), [1.0])


class TestEdgeLabelSigns:
    def test_same_and_different_labels(self):
        labels = np.array([0, 0, 1, 1])
        mask = np.ones(4, dtype=bool)
        pos, signs = edge_label_signs([0, 0, 2], [1, 2, 3], labels, mask)
        assert pos.tolist() == [0, 1, 2]
        assert signs.tolist() == [-1.0, 1.0, -1.0]  # 0-0 same, 0-1 differ, 1-1 same

    def test_excludes_edges_leaving_train_split(self):
        labels = np.array([0, 1, 0])
        mask = np.array([True, True, False])
        pos, signs = edge_label_signs([0, 0], [1, 2], labels, mask)
        assert pos.tolist() == [0]
        assert signs.tolist() == [1.0]

    def test_never_reads_labels_outside_train(self):
        # poison the non-train labels; the output must not change
        mask = np.array([True, True, False, False])
        clean = np.array([0, 1, 0, 1])
        poisoned = np.array([0, 1, 99, -7])
        sources, targets = [0, 1, 2, 0], [1, 0, 3, 3]
        pos_a, signs_a = edge_label_signs(sources, targets, clean, mask)
        pos_b, signs_b = edge_label_signs(sources, targets, poisoned, mask)
        assert pos_a.tolist() == pos_b.tolist()
        assert signs_a.tolist() == signs_b.tolist()


def test_hinge_gradient_reaches_projection():
    rng = np.random.default_rng(6)
    store = ad.ParamStore()
    proj_w = store.add("proj_w", rng.normal(size=(4, 3)))
    proj_b = store.add("proj_b", np.zeros((1, 3)))
    edge_w = store.add("edge_w", rng.normal(size=(9, 1)))
    x = rng.normal(size=(8, 4))
    src = rng.integers(0, 8, size=10)
    tgt = rng.integers(0, 8, size=10)
    signs = rng.choice([-1.0, 1.0], size=10)
    distinct, ends = distinct_nodes((src, tgt), 8)

    def forward():
        # the distinct endpoints take their rows of the one projection, as a training pass does
        h, active = project_features(x, proj_w.data, proj_b.data)
        rows = ad.relu_linear_rows(x, proj_w, proj_b, h, active, distinct)
        return heterophily_loss(edge_scores(rows, *ends, edge_w), signs)

    errors = ad.grad_check(forward, store)
    assert max(errors.values()) < 1e-6
