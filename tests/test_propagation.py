import numpy as np
import pytest

import dualmp.autodiff as ad
from dualmp.autodiff import tensor
from dualmp.graphs import build_csr, partition_subgraphs
from dualmp.propagation import (
    channel_messages,
    frequency_fuse,
    rescale_coefficients,
    residual_aggregate,
)


def dense_channel_reference(h, filter_w, filter_b, gate_w, gate_b, mix, adj_bool, complement, filter_act="none"):
    """Brute-force dense twin of one channel: per-node messages, then C @ messages.

    adj_bool[u, v] is True when v is a neighbor of u; the coefficient matrix
    applies 1/sqrt(1 + d_u * d_v) edgewise.
    """
    filt = np.eye(filter_w.shape[0]) - filter_w if complement else filter_w
    pre = h @ filt + filter_b
    if complement:
        pre = np.maximum(pre, 0.0)
    elif filter_act == "relu":
        pre = np.maximum(pre, 0.0)
    gated = (mix * h + pre) @ gate_w + gate_b
    messages = np.where(gated >= 0, gated, 0.01 * gated)
    deg = adj_bool.sum(axis=1).astype(float)
    coeff = adj_bool / np.sqrt(1.0 + np.outer(deg, deg))
    return h + coeff @ messages


def make_channel_params(rng, d):
    return (
        rng.normal(size=(d, d)) * 0.5,
        np.zeros((1, d)) + rng.normal(size=(1, d)) * 0.1,
        rng.normal(size=(d, d)) * 0.5,
        rng.normal(size=(1, d)) * 0.1,
    )


class TestChannelMessages:
    def test_identity_chain_on_nonnegative(self):
        h = tensor([[1.0, 2.0], [0.5, 0.0]])
        out = channel_messages(
            h, tensor(np.eye(2)), tensor(np.eye(2)), tensor(np.zeros((1, 2))),
            tensor(np.zeros((1, 2))), residual_mix=0.0,
        )
        assert np.array_equal(out.data, h.data)

    def test_pure_residual(self):
        h = tensor([[2.0, -3.0]])
        out = channel_messages(
            h, tensor(np.zeros((2, 2))), tensor(np.eye(2)), tensor(np.zeros((1, 2))),
            tensor(np.zeros((1, 2))), residual_mix=1.0,
        )
        # filter contributes nothing; message is LeakyReLU(h)
        assert np.allclose(out.data, [[2.0, -0.03]])

    def test_smooth_hand_value(self):
        out = channel_messages(
            tensor([[2.0]]), tensor([[0.5]]), tensor([[1.0]]), tensor([[0.0]]),
            tensor([[0.0]]), residual_mix=0.5,
        )
        assert out.data.tolist() == [[2.0]]

    def test_contrast_hand_value(self):
        out = channel_messages(
            tensor([[2.0]]), tensor([[0.5]]), tensor([[1.0]]), tensor([[0.0]]),
            tensor([[0.0]]), residual_mix=0.5, complement=True,
        )
        assert out.data.tolist() == [[2.0]]

    def test_contrast_with_identity_filter_passes_only_bias(self):
        h = tensor(np.random.default_rng(0).normal(size=(3, 2)))
        b1 = np.array([[0.3, -0.2]])
        out = channel_messages(
            h, tensor(np.eye(2)), tensor(np.eye(2)), tensor(b1),
            tensor(np.zeros((1, 2))), residual_mix=0.0, complement=True,
        )
        expected = np.maximum(b1, 0.0) * np.ones((3, 1))
        leaky = np.where(expected >= 0, expected, 0.01 * expected)
        assert np.allclose(out.data, leaky)

    def test_contrast_with_zero_filter_is_identity_on_nonnegative(self):
        h = tensor([[1.0, 0.5]])
        out = channel_messages(
            h, tensor(np.zeros((2, 2))), tensor(np.eye(2)), tensor(np.zeros((1, 2))),
            tensor(np.zeros((1, 2))), residual_mix=0.0, complement=True,
        )
        assert np.array_equal(out.data, h.data)

    def test_filter_complementarity(self):
        # the two pre-bias transforms partition the identity: W h + (I - W) h = h
        rng = np.random.default_rng(1)
        h = tensor(rng.normal(size=(6, 4)))
        w = tensor(rng.normal(size=(4, 4)))
        eye = tensor(np.eye(4))
        smooth = ad.matmul(h, w)
        contrast = ad.matmul(h, ad.sub(eye, w))
        assert np.abs(smooth.data + contrast.data - h.data).max() < 1e-12


class TestResidualAggregate:
    def test_empty_subgraph_is_bitwise_identity(self):
        h = tensor(np.random.default_rng(2).normal(size=(4, 3)))
        messages = tensor(np.random.default_rng(3).normal(size=(4, 3)))
        empty = build_csr([], 4)
        out = residual_aggregate(h, messages, empty)
        assert np.array_equal(out.data, h.data)

    def test_isolated_node_keeps_own_embedding(self):
        h = tensor([[1.0, 1.0], [2.0, 2.0], [5.0, -1.0]])
        messages = tensor(np.ones((3, 2)))
        adj = build_csr([(0, 1), (1, 0)], 3)  # node 2 isolated
        out = residual_aggregate(h, messages, adj)
        assert np.array_equal(out.data[2], h.data[2])

    def test_single_edge_coefficient(self):
        h = tensor(np.zeros((2, 2)))
        messages = tensor([[0.0, 0.0], [3.0, 1.0]])
        adj = build_csr([(0, 1), (1, 0)], 2)  # both degrees 1
        out = residual_aggregate(h, messages, adj)
        assert np.allclose(out.data[0], np.array([3.0, 1.0]) / np.sqrt(2))

    def test_star_center_coefficients(self):
        k = 5
        edges = [(0, i) for i in range(1, k + 1)] + [(i, 0) for i in range(1, k + 1)]
        adj = build_csr(edges, k + 1)
        coeff = rescale_coefficients(adj)
        sources = adj.edge_sources()
        # eachedge from the center to a leaf carries 1/sqrt(1 + k*1)
        assert np.allclose(coeff[sources == 0], 1.0 / np.sqrt(1 + k))

    def test_coefficient_symmetry(self):
        rng = np.random.default_rng(4)
        pairs = rng.integers(0, 8, size=(30, 2))
        pairs = np.concatenate([pairs, pairs[:, ::-1]])  # ensure both directions exist
        adj = build_csr(pairs, 8)
        coeff = rescale_coefficients(adj)
        lookup = {(u, v): c for (u, v), c in zip(adj.edge_pairs().tolist(), coeff)}
        for (u, v), c in lookup.items():
            assert c == pytest.approx(lookup[(v, u)])

    def test_same_code_path_for_both_channels(self):
        h = tensor(np.random.default_rng(5).normal(size=(5, 3)))
        messages = tensor(np.random.default_rng(6).normal(size=(5, 3)))
        adj = build_csr([(0, 1), (1, 2), (2, 0), (3, 4)], 5)
        a = residual_aggregate(h, messages, adj)
        b = residual_aggregate(h, messages, adj)
        assert np.array_equal(a.data, b.data)


class TestDenseOracle:
    def test_sparse_equals_dense_per_channel(self):
        rng = np.random.default_rng(7)
        for trial in range(8):
            n = int(rng.integers(3, 64))
            d = int(rng.integers(2, 8))
            h_arr = rng.normal(size=(n, d))
            fw, fb, gw, gb = make_channel_params(rng, d)
            pairs = rng.integers(0, n, size=(max(1, 3 * n), 2))
            adj = build_csr(pairs, n)
            adj_bool = np.zeros((n, n), dtype=bool)
            for u, v in adj.edge_pairs():
                adj_bool[u, v] = True
            for complement in (False, True):
                h = tensor(h_arr)
                messages = channel_messages(
                    h, tensor(fw), tensor(gw), tensor(fb), tensor(gb),
                    residual_mix=0.5, complement=complement,
                )
                sparse = residual_aggregate(h, messages, adj).data
                dense = dense_channel_reference(
                    h_arr, fw, fb, gw, gb, 0.5, adj_bool, complement
                )
                assert np.abs(sparse - dense).max() < 1e-9


class TestPermutationEquivariance:
    def test_relabeling_permutes_outputs(self):
        rng = np.random.default_rng(8)
        n, d = 12, 4
        h_arr = rng.normal(size=(n, d))
        fw, fb, gw, gb = make_channel_params(rng, d)
        pairs = rng.integers(0, n, size=(40, 2))
        perm = rng.permutation(n)

        def run(h_values, edge_pairs):
            adj = build_csr(edge_pairs, n)
            h = tensor(h_values)
            messages = channel_messages(
                h, tensor(fw), tensor(gw), tensor(fb), tensor(gb), residual_mix=0.5
            )
            return residual_aggregate(h, messages, adj).data

        base = run(h_arr, pairs)
        permuted = run(h_arr[np.argsort(perm)], np.stack([perm[pairs[:, 0]], perm[pairs[:, 1]]], axis=1))
        # node u in the base graph is node perm[u] after relabeling
        assert np.abs(permuted[perm] - base).max() < 1e-9


class TestFrequencyFuse:
    def fuse_params(self, d, rng=None):
        rng = rng or np.random.default_rng(9)
        return (
            tensor(rng.normal(size=(3 * d, d))),
            tensor(np.zeros((1, d))),
            tensor(np.ones((1, d))),
            tensor(np.zeros((1, d))),
        )

    def test_difference_block_is_zero_for_equal_inputs(self):
        # weight that reads only the difference block must see exact zeros
        d = 3
        z = tensor(np.random.default_rng(10).normal(size=(5, d)))
        w = np.zeros((3 * d, d))
        w[2 * d :, :] = np.random.default_rng(11).normal(size=(d, d))
        out = frequency_fuse(
            z, z, tensor(w), tensor(np.zeros((1, d))), tensor(np.ones((1, d))), tensor(np.zeros((1, d)))
        )
        assert np.array_equal(out.data, np.zeros((5, d)))

    def test_zero_weight_makes_rows_identical(self):
        d = 4
        rng = np.random.default_rng(12)
        za, zb = tensor(rng.normal(size=(6, d))), tensor(rng.normal(size=(6, d)))
        out = frequency_fuse(
            za, zb, tensor(np.zeros((3 * d, d))), tensor(rng.normal(size=(1, d))),
            tensor(np.ones((1, d))), tensor(np.zeros((1, d))),
        )
        assert np.allclose(out.data, out.data[0])

    def test_hand_preactivation_and_composition(self):
        za, zb = tensor([[1.0]]), tensor([[0.0]])
        w = tensor([[1.0], [1.0], [1.0]])
        b = tensor([[0.0]])
        pre = ad.leaky_relu(ad.add_bias(ad.matmul(ad.concat_cols([za, zb, ad.sub(za, zb)]), w), b))
        assert pre.data.tolist() == [[2.0]]
        gain, bias = tensor(np.ones((1, 1))), tensor(np.zeros((1, 1)))
        fused = frequency_fuse(za, zb, w, b, gain, bias)
        assert np.array_equal(fused.data, ad.layer_norm(pre, gain, bias, eps=1e-5).data)


def test_full_channel_gradients():
    rng = np.random.default_rng(14)
    n, d = 7, 3
    store = ad.ParamStore()
    fw = store.add("filter_w", rng.normal(size=(d, d)))
    fb = store.add("filter_b", rng.normal(size=(1, d)) * 0.1)
    gw = store.add("gate_w", rng.normal(size=(d, d)))
    gb = store.add("gate_b", rng.normal(size=(1, d)) * 0.1)
    h_arr = rng.normal(size=(n, d))
    adj = build_csr(rng.integers(0, n, size=(20, 2)), n)
    weights = rng.normal(size=(n, d))

    def forward(complement):
        def inner():
            h = tensor(h_arr)
            messages = channel_messages(h, fw, gw, fb, gb, 0.5, complement=complement)
            z = residual_aggregate(h, messages, adj)
            return ad.sum_all(ad.mul_const(ad.tanh(z), weights))

        return inner

    for complement in (False, True):
        errors = ad.grad_check(forward(complement), store, probe=1e-5)
        assert max(errors.values()) < 1e-5
