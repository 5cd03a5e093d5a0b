import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmp.graphs import (
    GraphFormatError,
    build_csr,
    merge_relations,
    partition_subgraphs,
    symmetrize,
)


class TestBuildCsr:
    def test_groups_by_source_keeping_input_order(self):
        adj = build_csr([(0, 1), (1, 2), (1, 0)], 3)
        assert adj.offsets.tolist() == [0, 1, 3, 3]
        assert adj.targets.tolist() == [1, 2, 0]

    def test_empty_graph(self):
        adj = build_csr([], 2)
        assert adj.offsets.tolist() == [0, 0, 0]
        assert adj.targets.tolist() == []

    def test_drops_self_loops(self):
        adj = build_csr([(0, 0), (0, 1)], 2)
        assert adj.offsets.tolist() == [0, 1, 1]
        assert adj.targets.tolist() == [1]

    def test_deduplicates(self):
        adj = build_csr([(0, 1), (0, 1), (0, 1)], 2)
        assert adj.edge_count == 1

    def test_out_of_range_names_edge(self):
        with pytest.raises(GraphFormatError, match=r"\(0, 5\)"):
            build_csr([(0, 5)], 3)
        with pytest.raises(GraphFormatError):
            build_csr([(-1, 0)], 3)

    def test_edge_pairs_round_trip(self):
        pairs = [(2, 0), (0, 2), (0, 1), (2, 1)]
        adj = build_csr(pairs, 3)
        again = build_csr(adj.edge_pairs(), 3)
        assert np.array_equal(adj.offsets, again.offsets)
        assert np.array_equal(adj.targets, again.targets)


class TestSymmetrize:
    def test_adds_reverse(self):
        assert symmetrize([(0, 1)]).tolist() == [[0, 1], [1, 0]]

    def test_idempotent(self):
        assert symmetrize([(0, 1), (1, 0)]).tolist() == [[0, 1], [1, 0]]

    def test_empty(self):
        assert symmetrize([]).shape == (0, 2)


class TestDegrees:
    def test_from_offsets(self):
        adj = build_csr([(0, 1), (1, 2), (1, 0)], 3)
        assert adj.degrees().tolist() == [1, 2, 0]

    def test_empty(self):
        assert build_csr([], 2).degrees().tolist() == [0, 0]

    def test_two_out_edges(self):
        adj = build_csr([(0, 1), (0, 2)], 3)
        assert adj.degrees().tolist() == [2, 0, 0]


class TestPartition:
    def test_sign_rule(self):
        adj = build_csr([(0, 1), (1, 2)], 3)
        part = partition_subgraphs(adj, [-0.9, 0.8])
        assert part.hetero_mask.tolist() == [False, True]
        assert part.homo.edge_count == 1
        assert part.hetero.edge_count == 1

    def test_all_homophilic(self):
        adj = build_csr([(0, 1), (1, 2), (2, 0)], 3)
        part = partition_subgraphs(adj, [-1.0, -1.0, -1.0])
        assert part.hetero.edge_count == 0
        assert np.array_equal(part.homo_degrees, adj.degrees())

    def test_tie_goes_heterophilic(self):
        adj = build_csr([(0, 1)], 2)
        part = partition_subgraphs(adj, [0.0])
        assert part.hetero.edge_count == 1
        assert part.homo.edge_count == 0

    def test_score_count_mismatch(self):
        adj = build_csr([(0, 1)], 2)
        with pytest.raises(ValueError, match="edge signs"):
            partition_subgraphs(adj, [0.1, 0.2])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_rejects_non_finite_features(value):
    import dualmp as dm

    features = np.zeros((3, 2))
    features[2, 1] = value
    g = dm.MultiRelationGraph(
        features=features,
        labels=np.array([0, 1, 0]),
        relations=[build_csr([(0, 1)], 3, "a")],
        split=dm.NodeSplit(np.array([0, 1, 2]), np.array([], dtype=int), np.array([], dtype=int)),
    )
    with pytest.raises(dm.GraphFormatError, match="node 2"):
        g.validate()


def test_merge_relations_unions_edges():
    import dualmp as dm

    g = dm.MultiRelationGraph(
        features=np.zeros((3, 2)),
        labels=np.array([0, 1, 0]),
        relations=[build_csr([(0, 1)], 3, "a"), build_csr([(0, 1), (1, 2)], 3, "b")],
        split=dm.NodeSplit(np.array([0, 1, 2]), np.array([], dtype=int), np.array([], dtype=int)),
    )
    merged = merge_relations(g)
    assert merged.num_relations == 1
    assert merged.relations[0].edge_count == 2  # (0,1) deduplicated


edge_lists = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=0, max_size=40
        ),
    )
)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_partition_completeness_and_degree_conservation(case):
    n, edges = case
    adj = build_csr(edges, n)
    rng = np.random.default_rng(adj.edge_count)
    signs = rng.uniform(-1, 1, size=adj.edge_count)
    part = partition_subgraphs(adj, signs)

    assert part.homo.edge_count + part.hetero.edge_count == adj.edge_count
    combined = np.concatenate([part.homo.edge_pairs(), part.hetero.edge_pairs()])
    original = adj.edge_pairs()
    key = lambda arr: sorted(map(tuple, arr.tolist()))
    assert key(combined) == key(original)
    assert np.array_equal(part.homo_degrees + part.hetero_degrees, adj.degrees())


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_csr_flatten_rebuild_round_trip(case):
    n, edges = case
    adj = build_csr(edges, n)
    again = build_csr(adj.edge_pairs(), n)
    assert np.array_equal(adj.offsets, again.offsets)
    assert np.array_equal(adj.targets, again.targets)


@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_symmetrize_closure(case):
    n, edges = case
    out = symmetrize([e for e in edges if e[0] != e[1]])
    pairs = set(map(tuple, out.tolist()))
    for u, v in pairs:
        assert (v, u) in pairs
