import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        loss = lambda: ad.sum_all(ad.tanh(ad.matmul(a, b)))
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
            backward(ad.sum_all(fn(x)))
            assert x.grad[0, 0] == slope

    def test_gradients(self):
        rng = np.random.default_rng(1)
        store = ParamStore()
        x = store.add("x", rng.normal(size=(4, 5)) + 0.1)  # keep entries off the kinks
        for fn in (ad.relu, ad.leaky_relu, ad.tanh):
            loss = lambda: ad.sum_all(fn(x))
            assert np.allclose(tape_gradient(loss, x), fd_gradient(loss, x), atol=1e-8)


class TestConcat:
    def test_flat_values(self):
        out = ad.concat_cols([tensor([[1.0]]), tensor([[2.0]]), tensor([[-1.0]])])
        assert out.data.tolist() == [[1.0, 2.0, -1.0]]

    def test_single_part_identity(self):
        x = tensor([[1.0, 2.0]])
        assert np.array_equal(ad.concat_cols([x]).data, x.data)

    def test_shape_arithmetic(self):
        out = ad.concat_cols([tensor(np.zeros((2, 3))), tensor(np.zeros((2, 5)))])
        assert out.shape == (2, 8)

    def test_row_mismatch(self):
        with pytest.raises(ValueError, match="row mismatch"):
            ad.concat_cols([tensor(np.zeros((2, 3))), tensor(np.zeros((3, 3)))])

    def test_gradient_slices_back(self):
        store = ParamStore()
        a = store.add("a", np.random.default_rng(2).normal(size=(3, 2)))
        b = store.add("b", np.random.default_rng(3).normal(size=(3, 4)))
        loss = lambda: ad.sum_all(ad.tanh(ad.concat_cols([a, b])))
        for p in (a, b):
            assert np.allclose(tape_gradient(loss, p), fd_gradient(loss, p), atol=1e-8)


class TestSegmentWeightedSum:
    def test_hand_sum(self):
        msgs = tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.segment_weighted_sum(msgs, [0, 0], [1.0, 1.0], 2)
        assert out.data.tolist() == [[4.0, 6.0], [0.0, 0.0]]

    def test_zero_coefficients(self):
        msgs = tensor(np.ones((3, 2)))
        out = ad.segment_weighted_sum(msgs, [0, 1, 1], [0.0, 0.0, 0.0], 2)
        assert not out.data.any()

    def test_single_edge_rescale(self):
        out = ad.segment_weighted_sum(tensor([[2.0, 0.0]]), [1], [1 / np.sqrt(2)], 3)
        assert out.data[1] == pytest.approx([np.sqrt(2), 0.0])
        assert not out.data[[0, 2]].any()

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="segment id out of range"):
            ad.segment_weighted_sum(tensor(np.ones((1, 2))), [5], [1.0], 2)

    def test_matches_dense_incidence_product(self):
        # dense oracle: out = C @ messages with C[s, e] = coeff[e] * [seg[e] == s]
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 64))
            e = int(rng.integers(0, 3 * n))
            seg = rng.integers(0, n, size=e)
            coeff = rng.normal(size=e)
            msgs = rng.normal(size=(e, 5))
            sparse = ad.segment_weighted_sum(tensor(msgs), seg, coeff, n).data
            dense_c = np.zeros((n, e))
            dense_c[seg, np.arange(e)] = coeff
            assert np.abs(sparse - dense_c @ msgs).max() < 1e-12

    def test_gradient_scatters_coefficients(self):
        store = ParamStore()
        msgs = store.add("m", np.random.default_rng(5).normal(size=(6, 3)))
        seg = np.array([0, 2, 2, 1, 0, 3])
        coeff = np.array([0.5, -1.0, 2.0, 0.0, 1.5, 3.0])
        loss = lambda: ad.sum_all(ad.tanh(ad.segment_weighted_sum(msgs, seg, coeff, 5)))
        assert np.allclose(tape_gradient(loss, msgs), fd_gradient(loss, msgs), atol=1e-8)


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        out = ad.layer_norm(tensor([[1.0, 1.0, 1.0]]), tensor(np.ones((1, 3))), tensor(np.zeros((1, 3))))
        assert np.allclose(out.data, 0.0)

    def test_unit_variance_row(self):
        out = ad.layer_norm(
            tensor([[1.0, -1.0]]), tensor(np.ones((1, 2))), tensor(np.zeros((1, 2))), eps=1e-12
        )
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_zero_gain_yields_bias(self):
        bias = np.array([[3.0, -2.0]])
        out = ad.layer_norm(tensor(np.random.default_rng(6).normal(size=(4, 2))),
                            tensor(np.zeros((1, 2))), tensor(bias))
        assert np.allclose(out.data, np.repeat(bias, 4, axis=0))

    def test_normalized_row_statistics(self):
        rng = np.random.default_rng(7)
        x = tensor(rng.normal(size=(20, 16)))
        out = ad.layer_norm(x, tensor(np.ones((1, 16))), tensor(np.zeros((1, 16))), eps=1e-8)
        assert np.abs(out.data.mean(axis=1)).max() < 1e-10
        assert np.abs(out.data.var(axis=1) - 1.0).max() < 1e-6

    def test_gradients(self):
        rng = np.random.default_rng(8)
        store = ParamStore()
        x = store.add("x", rng.normal(size=(5, 6)))
        gain = store.add("gain", rng.normal(size=(1, 6)))
        bias = store.add("bias", rng.normal(size=(1, 6)))
        loss = lambda: ad.sum_all(ad.tanh(ad.layer_norm(x, gain, bias)))
        for p in (x, gain, bias):
            assert np.allclose(tape_gradient(loss, p), fd_gradient(loss, p), atol=1e-7)


class TestSoftmax:
    def test_symmetry(self):
        assert ad.softmax_rows(tensor([[0.0, 0.0]])).data.tolist() == [[0.5, 0.5]]

    def test_stable_under_large_logits(self):
        out = ad.softmax_rows(tensor([[1000.0, 0.0]])).data
        assert abs(out[0, 0] - 1.0) < 1e-12 and out[0, 1] < 1e-12

    def test_hand_value(self):
        out = ad.softmax_rows(tensor([[np.log(2.0), 0.0]])).data
        assert np.allclose(out, [[2 / 3, 1 / 3]])

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 5)) * 10
        out = ad.softmax_rows(tensor(x)).data
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
        shifted = ad.softmax_rows(tensor(x + 7.3)).data
        assert np.abs(out - shifted).max() < 1e-12

    def test_gradients(self):
        store = ParamStore()
        x = store.add("x", np.random.default_rng(10).normal(size=(4, 3)))
        loss = lambda: ad.sum_all(ad.tanh(ad.softmax_rows(x)))
        assert np.allclose(tape_gradient(loss, x), fd_gradient(loss, x), atol=1e-8)


class TestDropout:
    def test_rate_zero_identity(self):
        x = tensor([[1.0, 2.0]])
        assert ad.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_eval_mode_identity(self):
        x = tensor([[1.0, 2.0]])
        assert ad.dropout(x, 0.1, training=False) is x

    def test_survival_statistics(self):
        rng = np.random.default_rng(11)
        x = tensor(np.ones((1000, 1000)))
        out = ad.dropout(x, 0.5, training=True, rng=rng).data
        surviving = (out != 0).mean()
        assert abs(surviving - 0.5) < 0.01
        assert abs(out.mean() - 1.0) < 0.01  # rescaling preserves the mean

    def test_gradient_uses_mask(self):
        store = ParamStore()
        x = store.add("x", np.random.default_rng(12).normal(size=(5, 4)))
        mask_rng_state = np.random.default_rng(13)
        out = ad.dropout(x, 0.5, training=True, rng=mask_rng_state)
        factor = out.data / np.where(x.data == 0, 1, x.data)  # recovers mask/(1-rate)
        x.grad = np.zeros_like(x.data)
        backward(ad.sum_all(out))
        assert np.allclose(x.grad, factor)


class TestScalarOps:
    def test_log_clamped_floor(self):
        out = ad.log_clamped(tensor([[1.0, 0.0]]), floor=1e-12)
        assert out.data[0, 0] == 0.0
        assert out.data[0, 1] == pytest.approx(np.log(1e-12))

    def test_log_clamped_gradient_zero_below_floor(self):
        x = tensor([[0.5, -1.0]], requires_grad=True)
        x.grad = np.zeros_like(x.data)
        backward(ad.sum_all(ad.log_clamped(x)))
        assert x.grad[0, 0] == pytest.approx(2.0)
        assert x.grad[0, 1] == 0.0

    def test_take_col(self):
        x = tensor([[1.0, 2.0], [3.0, 4.0]])
        assert ad.take_col(x, 1).data.tolist() == [[2.0], [4.0]]

    def test_mean_all(self):
        assert ad.mean_all(tensor([[1.0, 3.0]])).item() == 2.0


class TestBackward:
    def test_linear_gradient_structure(self):
        # loss = sum(W @ x) with x fixed: dW[i, j] = x[j] for every row i
        x = np.array([[2.0], [3.0]])
        store = ParamStore()
        w = store.add("w", np.random.default_rng(14).normal(size=(2, 2)))
        store.zero_grads()
        backward(ad.sum_all(ad.matmul(w, tensor(x))))
        assert np.allclose(w.grad, np.repeat(x.T, 2, axis=0))

    def test_unreachable_parameter_keeps_zero(self):
        store = ParamStore()
        used = store.add("used", np.ones((1, 1)))
        unused = store.add("unused", np.ones((1, 1)))
        store.zero_grads()
        backward(ad.sum_all(ad.scale(used, 2.0)))
        assert unused.grad == 0.0
        assert used.grad == 2.0

    def test_fanout_gradients_add(self):
        # loss = f(h) + g(h) with f = 2h, g = 3h
        store = ParamStore()
        h = store.add("h", np.array([[1.0]]))
        store.zero_grads()
        backward(ad.sum_all(ad.add(ad.scale(h, 2.0), ad.scale(h, 3.0))))
        assert h.grad[0, 0] == 5.0

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(tensor(np.zeros((2, 2))))

    def test_rank_limits(self):
        with pytest.raises(ValueError, match="rank-3"):
            tensor(np.zeros((2, 2, 2)))


class TestGradCheck:
    def test_linear_model_is_exact(self):
        rng = np.random.default_rng(15)
        store = ParamStore()
        w = store.add("w", rng.normal(size=(4, 3)))
        b = store.add("b", rng.normal(size=(1, 3)))
        x = tensor(rng.normal(size=(6, 4)))
        errors = grad_check(lambda: ad.sum_all(ad.add_bias(ad.matmul(x, w), b)), store)
        assert max(errors.values()) < 1e-9

    def test_unused_parameter_reports_zero_error(self):
        store = ParamStore()
        used = store.add("used", np.ones((1, 1)))
        store.add("unused", np.ones((1, 1)))
        errors = grad_check(lambda: ad.sum_all(ad.scale(used, 3.0)), store)
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
    gain = store.add("gain", rng.normal(size=(1, 2 * cols)))
    bias = store.add("bias", rng.normal(size=(1, 2 * cols)))
    x = tensor(rng.normal(size=(rows, cols)))
    idx = rng.integers(0, rows, size=rows + 2)
    seg = rng.integers(0, rows, size=rows + 2)
    coeff = rng.normal(size=rows + 2)

    weights = rng.normal(size=(rows, 2 * cols))  # keeps the reduced loss non-constant

    def forward():
        hidden = ad.tanh(ad.add_bias(ad.matmul(x, w1), b1))
        gathered = ad.gather_rows(hidden, idx)
        summed = ad.segment_weighted_sum(gathered, seg, coeff, rows)
        blocks = ad.concat_cols([hidden, ad.sub(hidden, summed)])
        normed = ad.layer_norm(blocks, gain, bias)
        return ad.mean_all(ad.mul_const(ad.softmax_rows(normed), weights))

    errors = grad_check(forward, store, probe=1e-5)
    # 1e-4 is the acceptance tolerance; central differences carry ~1e-5
    # noise through the layer_norm/softmax chain for small gradients
    assert max(errors.values()) < 1e-4
