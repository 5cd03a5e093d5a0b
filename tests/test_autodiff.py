import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import dualmp.autodiff as ad
from dualmp.autodiff import ParamStore, TensorValue, backward, grad_check, tensor


def fd_gradient(loss_fn, param, eps=1e-6):
    """Central differences over every entry of one parameter."""
    grad = np.zeros_like(param.data)
    for i in range(param.data.size):
        saved = param.data.flat[i]
        param.data.flat[i] = saved + eps
        hi = loss_fn().item()
        param.data.flat[i] = saved - eps
        lo = loss_fn().item()
        param.data.flat[i] = saved
        grad.flat[i] = (hi - lo) / (2 * eps)
    return grad


def tape_gradient(loss_fn, param):
    param.grad = np.zeros_like(param.data)
    backward(loss_fn())
    return param.grad


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(tensor([[1.0, 2.0], [3.0, 4.0]]), tensor(np.eye(2)))
        assert out.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_hand_product(self):
        out = ad.matmul(tensor([[1.0, 2.0]]), tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_zero(self):
        out = ad.matmul(tensor(np.zeros((2, 3))), tensor(np.ones((3, 4))))
        assert not out.data.any()

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) @ \(2, 3\)"):
            ad.matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 3))))

    def test_gradients(self):
        rng = np.random.default_rng(0)
        store = ParamStore()
        a = store.add("a", rng.normal(size=(3, 4)))
        b = store.add("b", rng.normal(size=(4, 2)))
        loss = lambda: ad.mean_all(ad.tanh(ad.matmul(a, b)))
        for p in (a, b):
            assert np.allclose(tape_gradient(loss, p), fd_gradient(loss, p), atol=1e-8)


class TestActivations:
    def test_tanh_zero(self):
        assert ad.tanh(tensor(0.0)).item() == 0.0

    def test_leaky_negative_slope(self):
        assert ad.leaky_relu(tensor(-1.0)).item() == pytest.approx(-0.01)

    def test_relu(self):
        assert ad.relu(tensor([-2.0, 3.0])).data.tolist() == [[0.0, 3.0]]

    def test_slope_at_zero_from_positive_side(self):
        for fn, slope in ((ad.relu, 1.0), (ad.leaky_relu, 1.0)):
            x = tensor([[0.0]], requires_grad=True)
            x.grad = np.zeros_like(x.data)
            backward(ad.mean_all(fn(x)))
            assert x.grad[0, 0] == slope

    def test_gradients(self):
        rng = np.random.default_rng(1)
        store = ParamStore()
        x = store.add("x", rng.normal(size=(4, 5)) + 0.1)  # keep entries off the kinks
        for fn in (ad.relu, ad.leaky_relu, ad.tanh):
            loss = lambda: ad.mean_all(fn(x))
            assert np.allclose(tape_gradient(loss, x), fd_gradient(loss, x), atol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_relu_family_matches_where_formulas_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        tiny = np.finfo(np.float64).tiny  # smallest normal
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, tiny, -tiny]
        x_data = rng.normal(size=(16, 8)) * 10.0 ** rng.integers(-310, 3, size=(16, 8))
        x_data.flat[rng.choice(x_data.size, size=40, replace=False)] = np.resize(special, 40)
        mask = x_data >= 0
        references = {
            ad.relu: (np.where(mask, x_data, 0.0), lambda g: g * mask),
            ad.leaky_relu: (np.where(mask, x_data, ad.LEAKY_SLOPE * x_data),
                            lambda g: g * np.where(mask, 1.0, ad.LEAKY_SLOPE)),
        }
        negative_zero = (x_data == 0) & np.signbit(x_data)
        for fn, (forward, gradient) in references.items():
            x = tensor(x_data, requires_grad=True)
            out = fn(x)
            backward(ad.mean_all(ad.mul_const(out, rng.normal(size=x_data.shape))))
            # relu(-0.0) is +0.0 where np.where keeps -0.0; the values compare equal
            same_bits = out.data.view(np.int64) == forward.view(np.int64)
            if fn is ad.relu:
                assert (out.data[negative_zero] == 0).all()
                same_bits |= negative_zero
            assert same_bits.all()
            assert np.array_equal(x.grad.view(np.int64), gradient(out.grad).view(np.int64))

    def test_relu_propagates_nan(self):
        out = ad.relu(tensor([[np.nan, -1.0, 2.0]])).data
        assert np.isnan(out[0, 0]) and out[0, 1:].tolist() == [0.0, 2.0]


class TestReluLinearRows:
    def chain_and_rows(self, seed, b_needs_grad=True, dropout=False):
        # unsorted rows with repeats, as a pass's rows and an edge batch's endpoints come
        rng = np.random.default_rng(seed)
        x, c = rng.normal(size=(40, 5)), rng.normal(size=(12, 3))
        index = rng.integers(0, 40, size=12)
        store = ParamStore()
        w = store.add("w", rng.normal(size=(5, 3)))
        b = store.add("b", rng.normal(size=(1, 3))) if b_needs_grad else tensor(rng.normal(size=(1, 3)))
        factor = (rng.random((40, 3)) >= 0.3) / 0.7 if dropout else np.ones((40, 3))
        with ad.no_tape():
            pre = ad.add_bias(ad.matmul(tensor(x), w), b)
        out, passes = np.maximum(pre.data, 0.0) * factor, (pre.data >= 0) * factor

        def grads(h):
            w.grad = None
            b.grad = None
            backward(ad.mean_all(ad.mul_const(h, c)))
            return w.grad, b.grad

        rows = ad.relu_linear_rows(x, w, b, out, passes, index)
        assert np.array_equal(rows.data, out[index])
        chain = ad.mul_const(ad.relu(ad.add_bias(ad.matmul(tensor(x[index]), w), b)), factor[index])
        return grads(chain), grads(rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_are_the_chains_bit_for_bit(self, seed):
        (chain_w, chain_b), (rows_w, rows_b) = self.chain_and_rows(seed)
        assert np.array_equal(rows_w.view(np.int64), chain_w.view(np.int64))
        assert np.array_equal(rows_b.view(np.int64), chain_b.view(np.int64))

    @pytest.mark.parametrize("seed", range(3))
    def test_a_dropout_factor_in_passes_is_the_chains_factor(self, seed):
        (chain_w, chain_b), (rows_w, rows_b) = self.chain_and_rows(seed, dropout=True)
        assert np.array_equal(rows_w.view(np.int64), chain_w.view(np.int64))
        assert np.array_equal(rows_b.view(np.int64), chain_b.view(np.int64))

    def test_constant_bias_gets_no_gradient(self):
        (_, chain_b), (_, rows_b) = self.chain_and_rows(0, b_needs_grad=False)
        assert chain_b is None and rows_b is None


class TestGatherRows:
    def test_rows_in_index_order(self):
        x = tensor(np.arange(8.0).reshape(4, 2))
        assert ad.gather_rows(x, [3, 0, 3]).data.tolist() == [[6.0, 7.0], [0.0, 1.0], [6.0, 7.0]]
        assert ad.gather_rows(x, np.empty(0, dtype=np.int64)).shape == (0, 2)

    def test_gradient_sums_repeated_rows_in_index_order(self):
        store = ParamStore()
        x = store.add("x", np.zeros((4, 2)))
        index = [2, 0, 2, 2]
        g = np.array([[0.1, 1e16], [0.5, -3.0], [0.2, 1.0], [0.3, -1e16]])
        store.zero_grads()
        backward(ad.mean_all(ad.mul_const(ad.gather_rows(x, index), g * g.size)))
        want = np.zeros((4, 2))
        want[0] = g[1]
        want[2] = ((0.0 + g[0]) + g[2]) + g[3]  # 0.1 + 0.2 + 0.3 and 1e16 + 1 - 1e16, in that order
        assert np.array_equal(x.grad, want)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        store = ParamStore()
        x = store.add("x", rng.normal(size=(5, 3)))
        weights = rng.normal(size=(7, 3))
        errors = ad.grad_check(
            lambda: ad.mean_all(ad.tanh(ad.mul_const(ad.gather_rows(x, [4, 1, 1, 0, 4, 4, 2]), weights))), store
        )
        assert max(errors.values()) < 1e-6


class TestRowBlocks:
    def test_blocks_are_consecutive_row_slices(self):
        w = tensor(np.arange(12.0).reshape(6, 2))
        blocks = ad.row_blocks(w, 3)
        assert [b.data.tolist() for b in blocks] == [w.data[0:2].tolist(), w.data[2:4].tolist(), w.data[4:6].tolist()]

    def test_single_block_is_whole_weight(self):
        w = tensor([[1.0, 2.0], [3.0, 4.0]])
        (block,) = ad.row_blocks(w, 1)
        assert np.array_equal(block.data, w.data)

    def test_block_shapes(self):
        blocks = ad.row_blocks(tensor(np.zeros((24, 5))), 3)
        assert [b.shape for b in blocks] == [(8, 5)] * 3

    @pytest.mark.parametrize("rows, k", [(7, 3), (6, 4), (6, 0)])
    def test_rows_not_divisible_rejected(self, rows, k):
        with pytest.raises(ValueError, match=f"{rows} weight rows do not split into {k} equal blocks"):
            ad.row_blocks(tensor(np.zeros((rows, 2))), k)

    def test_gradient_scatters_back(self):
        # the blocks' products sum to the product with the stacked inputs
        rng = np.random.default_rng(2)
        store = ParamStore()
        w = store.add("w", rng.normal(size=(6, 3)))
        parts = [tensor(rng.normal(size=(4, 2))) for _ in range(3)]
        stacked = tensor(np.hstack([p.data for p in parts]))

        def loss():
            blocks = ad.row_blocks(w, 3)
            acc = ad.matmul(parts[0], blocks[0])
            for p, b in zip(parts[1:], blocks[1:]):
                acc = ad.add(acc, ad.matmul(p, b))
            return ad.mean_all(ad.tanh(acc))

        assert np.allclose(loss().item(), ad.mean_all(ad.tanh(ad.matmul(stacked, w))).item(), rtol=0, atol=1e-15)
        assert np.allclose(tape_gradient(loss, w), fd_gradient(loss, w), atol=1e-8)


def segment_matrix(segment_ids, coefficients, num_segments):
    """(segments x entries) matrix whose product with messages is their weighted segment sum."""
    e = len(segment_ids)
    return sparse.csr_array((coefficients, (segment_ids, np.arange(e))), shape=(num_segments, e))


class TestSegmentWeightedSum:
    # out[s] = sum of coefficients[e] * messages[e] over entries e of segment s,
    # computed by sparse_matmul as the aggregation computes it
    def test_hand_sum(self):
        msgs = tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.sparse_matmul(segment_matrix([0, 0], [1.0, 1.0], 2), msgs)
        assert out.data.tolist() == [[4.0, 6.0], [0.0, 0.0]]

    def test_zero_coefficients(self):
        msgs = tensor(np.ones((3, 2)))
        out = ad.sparse_matmul(segment_matrix([0, 1, 1], [0.0, 0.0, 0.0], 2), msgs)
        assert not out.data.any()

    def test_single_edge_rescale(self):
        out = ad.sparse_matmul(segment_matrix([1], [1 / np.sqrt(2)], 3), tensor([[2.0, 0.0]]))
        assert out.data[1] == pytest.approx([np.sqrt(2), 0.0])
        assert not out.data[[0, 2]].any()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="sparse_matmul shape mismatch"):
            ad.sparse_matmul(segment_matrix([0, 1], [1.0, 1.0], 2), tensor(np.ones((3, 2))))

    def test_matches_dense_incidence_product(self):
        # dense oracle: out = C @ messages with C[s, e] = coeff[e] * [seg[e] == s]
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 64))
            e = int(rng.integers(0, 3 * n))
            seg = rng.integers(0, n, size=e)
            coeff = rng.normal(size=e)
            msgs = rng.normal(size=(e, 5))
            out = ad.sparse_matmul(segment_matrix(seg, coeff, n), tensor(msgs)).data
            dense_c = np.zeros((n, e))
            dense_c[seg, np.arange(e)] = coeff
            assert np.abs(out - dense_c @ msgs).max() < 1e-12

    def test_gradient_scatters_coefficients(self):
        store = ParamStore()
        msgs = store.add("m", np.random.default_rng(5).normal(size=(6, 3)))
        matrix = segment_matrix([0, 2, 2, 1, 0, 3], [0.5, -1.0, 2.0, 0.0, 1.5, 3.0], 5)
        loss = lambda: ad.mean_all(ad.tanh(ad.sparse_matmul(matrix, msgs)))
        assert np.allclose(tape_gradient(loss, msgs), fd_gradient(loss, msgs), atol=1e-8)


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        out = ad.layer_norm(tensor([[1.0, 1.0, 1.0]]), tensor(np.ones((1, 3))), tensor(np.zeros((1, 3))))
        assert np.allclose(out.data, 0.0)

    def test_unit_variance_row(self):
        out = ad.layer_norm(tensor([[1.0, -1.0]]), tensor(np.ones((1, 2))), tensor(np.zeros((1, 2))))
        assert np.allclose(out.data, [[1.0, -1.0]] / np.sqrt(1.0 + ad.LAYER_NORM_EPS), rtol=0, atol=1e-15)

    def test_zero_gain_yields_bias(self):
        bias = np.array([[3.0, -2.0]])
        out = ad.layer_norm(tensor(np.random.default_rng(6).normal(size=(4, 2))),
                            tensor(np.zeros((1, 2))), tensor(bias))
        assert np.allclose(out.data, np.repeat(bias, 4, axis=0))

    def test_normalized_row_statistics(self):
        rng = np.random.default_rng(7)
        x = tensor(rng.normal(size=(20, 16)))
        out = ad.layer_norm(x, tensor(np.ones((1, 16))), tensor(np.zeros((1, 16))))
        var = x.data.var(axis=1)
        assert np.abs(out.data.mean(axis=1)).max() < 1e-10
        assert np.abs(out.data.var(axis=1) - var / (var + ad.LAYER_NORM_EPS)).max() < 1e-12

    def test_gradients(self):
        rng = np.random.default_rng(8)
        store = ParamStore()
        x = store.add("x", rng.normal(size=(5, 6)))
        gain = store.add("gain", rng.normal(size=(1, 6)))
        bias = store.add("bias", rng.normal(size=(1, 6)))
        loss = lambda: ad.mean_all(ad.tanh(ad.layer_norm(x, gain, bias)))
        for p in (x, gain, bias):
            assert np.allclose(tape_gradient(loss, p), fd_gradient(loss, p), atol=1e-7)

    @pytest.mark.parametrize("cols", [8, 9])
    def test_matches_axis_mean_formulas(self, cols):
        # the row means are products against a ones column; numpy's axis=1
        # mean sums in another order, so the two agree to rounding only
        rng = np.random.default_rng(cols)
        x_data, gain_data, g = (rng.normal(size=(200, cols)) for _ in range(3))
        x = tensor(x_data, requires_grad=True)
        out = ad.layer_norm(x, tensor(gain_data[:1]), tensor(np.zeros((1, cols))))
        backward(ad.mean_all(ad.mul_const(out, g)))

        mean = x_data.mean(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(((x_data - mean) ** 2).mean(axis=1, keepdims=True) + ad.LAYER_NORM_EPS)
        xhat = (x_data - mean) * inv_std
        gh = g / g.size * gain_data[:1]
        dx = inv_std * (gh - gh.mean(axis=1, keepdims=True) - xhat * (gh * xhat).mean(axis=1, keepdims=True))
        assert np.abs(out.data - xhat * gain_data[:1]).max() <= 1e-13
        assert np.abs(x.grad - dx).max() <= 1e-13 * np.abs(dx).max()


class TestSoftmax:
    def test_symmetry(self):
        assert ad.softmax(np.array([[0.0, 0.0]])).tolist() == [[0.5, 0.5]]

    def test_stable_under_large_logits(self):
        out = ad.softmax(np.array([[1000.0, 0.0]]))
        assert abs(out[0, 0] - 1.0) < 1e-12 and out[0, 1] < 1e-12

    def test_hand_value(self):
        out = ad.softmax(np.array([[np.log(2.0), 0.0]]))
        assert np.allclose(out, [[2 / 3, 1 / 3]])

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 5)) * 10
        out = ad.softmax(x)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
        shifted = ad.softmax(x + 7.3)
        assert np.abs(out - shifted).max() < 1e-12


def softmax_axis1(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_axis1(x, labels):
    """Loss and gradient of a summed cross-entropy through numpy's axis=1 reductions."""
    picked = (np.arange(len(labels)), labels)
    shifted = x - x.max(axis=1, keepdims=True)
    loss = (np.log(np.exp(shifted).sum(axis=1)) - shifted[picked]).sum()
    grad = softmax_axis1(x)
    grad[picked] -= 1.0
    return loss, grad


class TestColumnFoldedReductions:
    # softmax and cross_entropy reduce each row by folding over its columns
    @pytest.mark.parametrize("seed", range(5))
    def test_two_classes_bit_equal_to_axis1_formulas(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(200, 2)) * 10.0 ** rng.integers(-3, 4, size=(200, 2))
        x[:5] = [[0.0, -0.0], [-0.0, 0.0], [1e-310, -1e-310], [700.0, -700.0], [3.0, 3.0]]
        labels = rng.integers(0, 2, size=200)
        assert np.array_equal(ad.softmax(x).view(np.int64), softmax_axis1(x).view(np.int64))
        logits = tensor(x, requires_grad=True)
        loss = ad.cross_entropy(logits, labels)
        backward(loss)
        ref_loss, ref_grad = cross_entropy_axis1(x, labels)
        assert loss.item() == ref_loss
        assert np.array_equal(logits.grad.view(np.int64), ref_grad.view(np.int64))

    def test_nine_classes_agree_to_1e15(self):
        # a sum over 8 or more columns rounds differently from numpy's pairwise sum
        rng = np.random.default_rng(5)
        x = rng.normal(size=(300, 9)) * 3.0
        labels = rng.integers(0, 9, size=300)
        assert np.allclose(ad.softmax(x), softmax_axis1(x), rtol=1e-15, atol=0)
        logits = tensor(x, requires_grad=True)
        loss = ad.cross_entropy(logits, labels)
        backward(loss)
        ref_loss, ref_grad = cross_entropy_axis1(x, labels)
        assert loss.item() == pytest.approx(ref_loss, rel=1e-15, abs=0)
        # entries lie in [-1, 1], so 1e-15 absolute is 1e-15 of the gradient's scale
        assert np.abs(logits.grad - ref_grad).max() <= 1e-15


class TestCrossEntropy:
    def test_hand_value(self):
        # softmax([log 3, 0]) = [0.75, 0.25]
        logits = tensor([[np.log(3.0), 0.0], [np.log(3.0), 0.0]])
        loss = ad.cross_entropy(logits, [0, 1])
        assert loss.item() == pytest.approx(-np.log(0.75) - np.log(0.25), rel=1e-14)

    def test_closed_form_gradient(self):
        x = tensor([[0.5, -1.0, 2.0], [0.0, 0.3, -0.2]], requires_grad=True)
        backward(ad.cross_entropy(x, [2, 0]))
        expected = ad.softmax(x.data) - np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert np.allclose(x.grad, expected, rtol=0, atol=1e-15)

    def test_finite_for_huge_logits(self):
        # row 0's true class has probability exp(-2e6), which is 0.0 in float64
        x = tensor([[1e6, -1e6], [-1e6, 1e6]], requires_grad=True)
        loss = ad.cross_entropy(x, [1, 1])
        backward(loss)
        assert loss.item() == 2e6
        assert x.grad.tolist() == [[1.0, -1.0], [0.0, 0.0]]

    def test_gradients(self):
        store = ParamStore()
        x = store.add("x", np.random.default_rng(10).normal(size=(5, 3)) * 3)
        labels = [0, 2, 1, 1, 2]
        loss = lambda: ad.cross_entropy(x, labels)
        assert np.allclose(tape_gradient(loss, x), fd_gradient(loss, x), atol=1e-8)

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 2, 0], [0, 1, 3], [-1, 0, 1]],
                             ids=["too-few", "too-many", "past-last-class", "negative"])
    def test_bad_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="class indices"):
            ad.cross_entropy(tensor(np.zeros((3, 3))), labels)


class TestScalarOps:
    def test_mean_all(self):
        assert ad.mean_all(tensor([[1.0, 3.0]])).item() == 2.0

    def test_mul_const_by_a_float_is_the_product_both_ways(self):
        x = tensor(np.random.default_rng(16).normal(size=(4, 3)), requires_grad=True)
        out = ad.mul_const(x, 0.1)
        g = np.random.default_rng(17).normal(size=(4, 3))
        backward(ad.mean_all(ad.mul_const(out, g)))
        assert np.array_equal(out.data, 0.1 * x.data)
        assert np.array_equal(x.grad, 0.1 * out.grad)

    def test_mul_const_rejects_a_constant_of_another_shape(self):
        with pytest.raises(ValueError, match="constant shape"):
            ad.mul_const(tensor(np.ones((4, 3))), np.ones((4, 1)))


class TestBackward:
    def test_linear_gradient_structure(self):
        # loss = mean(W @ x) over its 2 entries with x fixed: dW[i, j] = x[j] / 2 for every row i
        x = np.array([[2.0], [3.0]])
        store = ParamStore()
        w = store.add("w", np.random.default_rng(14).normal(size=(2, 2)))
        store.zero_grads()
        backward(ad.mean_all(ad.matmul(w, tensor(x))))
        assert np.allclose(w.grad, np.repeat(x.T, 2, axis=0) / 2)

    def test_unreachable_parameter_keeps_zero(self):
        store = ParamStore()
        used = store.add("used", np.ones((1, 1)))
        unused = store.add("unused", np.ones((1, 1)))
        store.zero_grads()
        backward(ad.mean_all(ad.mul_const(used, 2.0)))
        assert unused.grad == 0.0
        assert used.grad == 2.0

    def test_fanout_gradients_add(self):
        # loss = f(h) + g(h) with f = 2h, g = 3h
        store = ParamStore()
        h = store.add("h", np.array([[1.0]]))
        store.zero_grads()
        backward(ad.mean_all(ad.add(ad.mul_const(h, 2.0), ad.mul_const(h, 3.0))))
        assert h.grad[0, 0] == 5.0

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(tensor(np.zeros((2, 2))))

    def test_rank_limits(self):
        with pytest.raises(ValueError, match="rank-3"):
            tensor(np.zeros((2, 2, 2)))


class TestAccumulation:
    def test_same_tensor_twice_in_one_op(self):
        x = tensor([[1.0, -2.0]], requires_grad=True)
        backward(ad.mean_all(ad.add(x, x)))
        assert x.grad.tolist() == [[1.0, 1.0]]

    def test_one_tensor_feeding_two_ops(self):
        x = tensor([[0.3, -0.7]], requires_grad=True)
        backward(ad.mean_all(ad.add(ad.mul_const(x, 2.0), ad.tanh(x))))
        assert np.allclose(x.grad, (2.0 + 1.0 - np.tanh(x.data) ** 2) / 2, rtol=0, atol=1e-15)

    def test_leaf_gradients_are_not_shared(self):
        # add hands both inputs the same upstream array; each leaf must own its gradient
        a = tensor([[1.0, 2.0]], requires_grad=True)
        b = tensor([[3.0, 4.0]], requires_grad=True)
        out = ad.add(a, b)
        backward(ad.mean_all(out))
        a.grad[0, 0] = 99.0
        assert b.grad.tolist() == [[0.5, 0.5]]
        assert out.grad.tolist() == [[0.5, 0.5]]

    def test_constant_input_gets_no_gradient(self):
        x = tensor(np.random.default_rng(17).normal(size=(3, 2)))
        store = ParamStore()
        w = store.add("w", np.ones((2, 1)))
        store.zero_grads()
        backward(ad.mean_all(ad.matmul(x, w)))
        assert x.grad is None
        assert np.allclose(w.grad, x.data.mean(axis=0).reshape(2, 1))

    def test_second_backward_accumulates_without_zeroing(self):
        store = ParamStore()
        w = store.add("w", np.array([[0.5, -1.5]]))
        store.zero_grads()
        backward(ad.mean_all(ad.tanh(w)))
        once = w.grad.copy()
        backward(ad.mean_all(ad.tanh(w)))
        assert np.array_equal(w.grad, 2.0 * once)


class TestNoTape:
    def test_results_are_constants_with_the_same_values(self):
        store = ParamStore()
        w = store.add("w", np.array([[0.5, -1.5], [2.0, 0.25]]))
        x = tensor([[1.0, -2.0]])
        taped = ad.tanh(ad.matmul(x, w))
        with ad.no_tape():
            plain = ad.tanh(ad.matmul(x, w))
        assert np.array_equal(plain.data, taped.data)
        assert plain._parents == () and plain._rule is None
        assert taped._parents

    def test_recording_resumes_after_the_block_even_on_error(self):
        store = ParamStore()
        w = store.add("w", np.array([[0.5, -1.5]]))
        with pytest.raises(ValueError):
            with ad.no_tape():
                raise ValueError("inside")
        store.zero_grads()
        backward(ad.mean_all(ad.tanh(w)))
        assert np.allclose(w.grad, (1.0 - np.tanh(w.data) ** 2) / 2)


class TestGradCheck:
    def test_linear_model_is_exact(self):
        rng = np.random.default_rng(15)
        store = ParamStore()
        w = store.add("w", rng.normal(size=(4, 3)))
        b = store.add("b", rng.normal(size=(1, 3)))
        x = tensor(rng.normal(size=(6, 4)))
        errors = grad_check(lambda: ad.mean_all(ad.add_bias(ad.matmul(x, w), b)), store)
        assert max(errors.values()) < 1e-9

    def test_unused_parameter_reports_zero_error(self):
        store = ParamStore()
        used = store.add("used", np.ones((1, 1)))
        store.add("unused", np.ones((1, 1)))
        errors = grad_check(lambda: ad.mean_all(ad.mul_const(used, 3.0)), store)
        assert errors["unused"] == 0.0


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=6),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_composed_forward_matches_finite_differences(seed, rows, cols):
    # random smooth composition through most primitives
    rng = np.random.default_rng(seed)
    store = ParamStore()
    w1 = store.add("w1", rng.normal(size=(cols, cols)))
    b1 = store.add("b1", rng.normal(size=(1, cols)))
    w2 = store.add("w2", rng.normal(size=(2 * cols, 2 * cols)))
    gain = store.add("gain", rng.normal(size=(1, 2 * cols)))
    bias = store.add("bias", rng.normal(size=(1, 2 * cols)))
    x = tensor(rng.normal(size=(rows, cols)))
    idx = rng.integers(0, rows, size=rows + 2)
    seg = rng.integers(0, rows, size=rows + 2)
    coeff = rng.normal(size=rows + 2)
    segments = segment_matrix(seg, coeff, rows)
    selection = sparse.csr_array((np.ones(len(idx)), idx, np.arange(len(idx) + 1)), shape=(len(idx), rows))

    labels = rng.integers(0, 2 * cols, size=rows)

    def forward():
        hidden = ad.tanh(ad.add_bias(ad.matmul(x, w1), b1))
        gathered = ad.sparse_matmul(selection, hidden)
        summed = ad.sparse_matmul(segments, gathered)
        # w2 [hidden || hidden - summed], one product per row block of w2
        top, bottom = ad.row_blocks(w2, 2)
        mixed = ad.add(ad.matmul(hidden, top), ad.matmul(ad.sub(hidden, summed), bottom))
        normed = ad.layer_norm(mixed, gain, bias)
        return ad.cross_entropy(normed, labels)

    errors = grad_check(forward, store, probe=1e-5)
    # 1e-4 is the acceptance tolerance; central differences carry ~1e-5
    # noise through the layer_norm/cross-entropy chain for small gradients
    assert max(errors.values()) < 1e-4
