import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import dualmp.autodiff as ad
from dualmp.autodiff import tensor
from dualmp.graphs import EdgePartition, build_csr, partition_subgraphs
from dualmp.propagation import (
    BatchAdjacency,
    channel_adjacencies,
    channel_messages,
    frequency_fuse,
    residual_aggregate,
)
from whole_graph import block_differences, reference_block, whole_graph_aggregate


def whole_relation_block(adj, rows):
    """The block the model cuts for ``rows`` of a relation it does not split (the ``sep`` ablation)."""
    unsplit = EdgePartition(np.zeros(adj.edge_count, dtype=bool), relation=adj)
    return channel_adjacencies(adj, unsplit, rows, ("smooth",))["smooth"]


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
        out = whole_graph_aggregate(h, messages, empty)
        assert np.array_equal(out.data, h.data)

    def test_isolated_node_keeps_own_embedding(self):
        h = tensor([[1.0, 1.0], [2.0, 2.0], [5.0, -1.0]])
        messages = tensor(np.ones((3, 2)))
        adj = build_csr([(0, 1), (1, 0)], 3)  # node 2 isolated
        out = whole_graph_aggregate(h, messages, adj)
        assert np.array_equal(out.data[2], h.data[2])

    def test_single_edge_coefficient(self):
        h = tensor(np.zeros((2, 2)))
        messages = tensor([[0.0, 0.0], [3.0, 1.0]])
        adj = build_csr([(0, 1), (1, 0)], 2)  # both degrees 1
        out = whole_graph_aggregate(h, messages, adj)
        assert np.allclose(out.data[0], np.array([3.0, 1.0]) / np.sqrt(2))

    def test_star_center_coefficients(self):
        k = 5
        edges = [(0, i) for i in range(1, k + 1)] + [(i, 0) for i in range(1, k + 1)]
        adj = build_csr(edges, k + 1)
        coeff = whole_relation_block(adj, np.arange(adj.num_nodes)).matrix.data  # storage order
        sources = adj.edge_sources
        # eachedge from the center to a leaf carries 1/sqrt(1 + k*1)
        assert np.allclose(coeff[sources == 0], 1.0 / np.sqrt(1 + k))

    def test_coefficient_symmetry(self):
        rng = np.random.default_rng(4)
        pairs = rng.integers(0, 8, size=(30, 2))
        pairs = np.concatenate([pairs, pairs[:, ::-1]])  # ensure both directions exist
        adj = build_csr(pairs, 8)
        coeff = whole_relation_block(adj, np.arange(adj.num_nodes)).matrix.data  # storage order
        lookup = {(u, v): c for (u, v), c in zip(adj.edge_pairs().tolist(), coeff)}
        for (u, v), c in lookup.items():
            assert c == pytest.approx(lookup[(v, u)])

    def test_same_code_path_for_both_channels(self):
        h = tensor(np.random.default_rng(5).normal(size=(5, 3)))
        messages = tensor(np.random.default_rng(6).normal(size=(5, 3)))
        adj = build_csr([(0, 1), (1, 2), (2, 0), (3, 4)], 5)
        a = whole_graph_aggregate(h, messages, adj)
        b = whole_graph_aggregate(h, messages, adj)
        assert np.array_equal(a.data, b.data)


class TestBatchRows:
    """A batch's rows of the aggregate match the dense oracle, and the whole-graph rows bit for bit.

    The batch is cut as the model cuts a relation it does not split, and its
    block is the reference block, byte for byte.
    """

    def check_rows(self, adj, rows, seed=15):
        rng = np.random.default_rng(seed)
        h = tensor(rng.normal(size=(adj.num_nodes, 3)))
        messages = tensor(rng.normal(size=(adj.num_nodes, 3)))
        batch = whole_relation_block(adj, rows)
        assert not block_differences(batch, reference_block(adj, rows))
        part = residual_aggregate(tensor(h.data[rows]), tensor(messages.data[batch.senders]), batch).data
        adj_bool = np.zeros((adj.num_nodes, adj.num_nodes), dtype=bool)
        for u, v in adj.edge_pairs():
            adj_bool[u, v] = True
        deg = adj_bool.sum(axis=1).astype(float)
        dense = h.data + (adj_bool / np.sqrt(1.0 + np.outer(deg, deg))) @ messages.data
        assert np.abs(part - dense[rows]).max() < 1e-12
        assert np.array_equal(part, whole_graph_aggregate(h, messages, adj).data[rows])
        return batch

    def test_unsorted_rows_with_isolated_nodes(self):
        rng = np.random.default_rng(16)
        adj = build_csr(rng.integers(0, 30, size=(90, 2)), 40)  # nodes 30..39 have no edges
        rows = np.array([35, 7, 22, 0, 39, 7, 13, 31])
        batch = self.check_rows(adj, rows)
        read = np.concatenate([adj.targets[adj.offsets[u]:adj.offsets[u + 1]] for u in rows])
        assert batch.senders.tolist() == sorted(set(read.tolist()))

    def test_rows_without_neighbors_keep_own_embedding(self):
        adj = build_csr([(0, 1), (1, 0)], 4)
        batch = self.check_rows(adj, [3, 2])
        assert batch.senders.size == 0

    def test_empty_view(self):
        batch = self.check_rows(build_csr([], 5), [4, 1, 2])
        assert batch.matrix.shape == (3, 0)

    def test_rows_out_of_range(self):
        adj = build_csr([(0, 1)], 3)
        for rows in ([3], [-1], [[0, 1]]):
            with pytest.raises(ValueError, match="batch rows"):
                whole_relation_block(adj, rows)


# a random CSR graph (nodes without edges, or no edges at all, are common)
# and a batch of its rows in any order, possibly repeated or empty
batch_cases = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
        st.lists(st.integers(0, n - 1), max_size=20),
    )
)


@given(batch_cases)
@example((5, [], [4, 1, 1]))  # empty view
@example((6, [(0, 1), (1, 0), (2, 1)], [5, 1, 3, 1, 0]))  # isolated rows, unsorted, repeated
@settings(max_examples=80, deadline=None)
def test_batch_senders_equal_unique_of_neighbors(case):
    n, edges, rows = case
    adj = build_csr(edges, n)
    batch = whole_relation_block(adj, rows)
    read = [adj.targets[adj.offsets[u]:adj.offsets[u + 1]] for u in rows]
    senders, columns = np.unique(np.concatenate([np.empty(0, np.int64), *read]), return_inverse=True)
    assert np.array_equal(batch.senders, senders)
    assert np.array_equal(batch.matrix.indices, columns)
    assert batch.matrix.shape == (len(rows), len(senders))


@given(batch_cases, st.sampled_from(["random", "all-homo", "all-hetero"]), st.integers(0, 2**32 - 1))
@example((5, [], [4, 1, 1]), "random", 0)  # no edges
@example((6, [(0, 1), (1, 0), (2, 1), (2, 3)], [5, 1, 3, 1, 0, 2]), "random", 3)  # isolated rows, unsorted, repeated
@example((4, [(0, 1), (1, 2)], []), "all-hetero", 0)  # no rows
@settings(max_examples=120, deadline=None)
def test_channel_blocks_equal_view_blocks(case, mode, seed):
    # the model's blocks, cut from the relation and its mask, are the reference
    # blocks of the eager views, which the dense oracle (A2) checks, bit for bit
    n, edges, rows = case
    adj = build_csr(edges, n)
    signs = {"random": np.random.default_rng(seed).uniform(-1, 1, size=adj.edge_count),
             "all-homo": -np.ones(adj.edge_count), "all-hetero": np.zeros(adj.edge_count)}[mode]
    part = partition_subgraphs(adj, signs)
    blocks = channel_adjacencies(adj, part, rows, ("smooth", "contrast"))
    for block, view in ((blocks["smooth"], part.homo), (blocks["contrast"], part.hetero)):
        assert not block_differences(block, reference_block(view, rows))


def test_block_comparison_catches_a_flipped_mask_entry_and_a_changed_coefficient():
    rng = np.random.default_rng(21)
    adj = build_csr(rng.integers(0, 12, size=(50, 2)), 12)
    part = partition_subgraphs(adj, rng.uniform(-1, 1, size=adj.edge_count))
    rows = np.arange(adj.num_nodes)
    views = {"smooth": part.homo, "contrast": part.hetero}
    flipped = part.hetero_mask.copy()
    flipped[adj.edge_count // 2] ^= True
    # one edge on the wrong side moves an entry between the two blocks' rows
    wrong = channel_adjacencies(adj, EdgePartition(flipped, relation=adj), rows, tuple(views))
    for side, view in views.items():
        assert "indptr" in block_differences(wrong[side], reference_block(view, rows))
    # one coefficient one ulp off, all else equal
    block = channel_adjacencies(adj, part, rows, ("smooth",))["smooth"]
    data = block.matrix.data.copy()
    data[len(data) // 2] = np.nextafter(data[len(data) // 2], 2.0)
    matrix = sparse.csr_array((data, block.matrix.indices, block.matrix.indptr), shape=block.matrix.shape)
    changed = BatchAdjacency(senders=block.senders, matrix=matrix)
    assert not block_differences(block, reference_block(part.homo, rows))
    assert block_differences(changed, reference_block(part.homo, rows)) == ["data"]


def test_channel_blocks_check_rows_first():
    adj = build_csr([(0, 1), (1, 0)], 3)
    part = partition_subgraphs(adj, [0.5, -0.5])
    for rows in ([3], [-1], [[0, 1]]):
        with pytest.raises(ValueError, match="batch rows"):
            channel_adjacencies(adj, part, rows, ("smooth", "contrast"))


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
                sparse = whole_graph_aggregate(h, messages, adj).data
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
            return whole_graph_aggregate(h, messages, adj).data

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
        za, zb = tensor([[1.0, 0.0]]), tensor([[0.0, 1.0]])
        w = tensor(np.vstack([np.eye(2), 2.0 * np.eye(2), -np.eye(2)]))
        b = tensor([[0.0, 1.0]])
        # W [za || zb || za - zb] + b = [1, 0] + [0, 2] - [1, -1] + [0, 1] = [0, 4]
        pre = ad.leaky_relu(tensor([[0.0, 4.0]]))
        gain, bias = tensor([[2.0, 3.0]]), tensor([[0.5, -0.5]])
        fused = frequency_fuse(za, zb, w, b, gain, bias)
        assert np.array_equal(fused.data, ad.layer_norm(pre, gain, bias, eps=1e-5).data)

    def test_matches_stacked_block_product(self):
        # z+ (W1 + W3) + z- (W2 - W3) is W [z+ || z- || z+ - z-] up to rounding
        rng = np.random.default_rng(15)
        d = 8
        za, zb = (rng.normal(size=(50, d)) for _ in range(2))
        w, b, gain, bias = (rng.normal(size=shape) for shape in ((3 * d, d), (1, d), (1, d), (1, d)))
        pre = np.hstack([za, zb, za - zb]) @ w + b
        pre = np.where(pre >= 0, pre, ad.LEAKY_SLOPE * pre)
        mean = pre.mean(axis=1, keepdims=True)
        var = ((pre - mean) ** 2).mean(axis=1, keepdims=True)
        expected = (pre - mean) / np.sqrt(var + 1e-5) * gain + bias
        fused = frequency_fuse(tensor(za), tensor(zb), tensor(w), tensor(b), tensor(gain), tensor(bias))
        assert np.abs(fused.data - expected).max() <= 1e-12

    def test_gradients(self):
        rng = np.random.default_rng(16)
        d = 4
        store = ad.ParamStore()
        za, zb = (store.add(name, rng.normal(size=(5, d))) for name in ("za", "zb"))
        w = store.add("fuse_w", rng.normal(size=(3 * d, d)))
        b, gain, bias = (store.add(name, rng.normal(size=(1, d))) for name in ("fuse_b", "gain", "bias"))
        weights = rng.normal(size=(5, d))
        errors = ad.grad_check(
            lambda: ad.mean_all(ad.mul_const(frequency_fuse(za, zb, w, b, gain, bias), weights)), store, probe=1e-5
        )
        # the acceptance tolerance, as in the composed autodiff check
        assert max(errors.values()) < 1e-4


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
            z = whole_graph_aggregate(h, messages, adj)
            return ad.mean_all(ad.mul_const(ad.tanh(z), weights))

        return inner

    for complement in (False, True):
        errors = ad.grad_check(forward(complement), store, probe=1e-5)
        assert max(errors.values()) < 1e-5
