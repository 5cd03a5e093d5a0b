import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmp.data import DatasetError, load_dataset
from dualmp.graphs import (
    EdgePartition,
    GraphFormatError,
    RelationAdjacency,
    build_csr,
    distinct_nodes,
    merge_relations,
    node_index,
    partition_subgraphs,
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

    def test_edge_sources_built_once_and_read_only(self):
        adj = build_csr([(2, 0), (0, 2), (0, 1), (2, 1)], 4)
        expected = np.repeat(np.arange(4), adj.degrees())
        assert np.array_equal(adj.edge_sources, expected)
        assert adj.edge_sources is adj.edge_sources
        with pytest.raises(ValueError, match="read-only"):
            adj.edge_sources[0] = 3


def load_symmetrized(folder, n, edges):
    """Write a one-relation dataset with "symmetrize true" and load it."""
    (folder / "edges.csv").write_text("".join(f"{u},{v}\n" for u, v in edges))
    (folder / "features.csv").write_text("0.0\n" * n)
    (folder / "labels.csv").write_text("0\n" * n)
    manifest = folder / "manifest.txt"
    manifest.write_text(
        f"num_nodes {n}\nfeature_dim 1\nfeatures features.csv\nlabels labels.csv\n"
        "symmetrize true\nrelation net edges.csv\n"
    )
    return load_dataset(manifest)


class TestSymmetrize:
    # the loader's "symmetrize true" passes the file's pairs, then their reverses, to build_csr
    def test_adds_reverse(self, tmp_path):
        (rel,) = load_symmetrized(tmp_path, 2, [(0, 1)]).relations
        assert rel.edge_pairs().tolist() == [[0, 1], [1, 0]]

    def test_idempotent(self, tmp_path):
        (rel,) = load_symmetrized(tmp_path, 2, [(0, 1), (1, 0)]).relations
        assert rel.edge_pairs().tolist() == [[0, 1], [1, 0]]

    def test_empty(self, tmp_path):
        (rel,) = load_symmetrized(tmp_path, 3, []).relations
        assert rel.edge_pairs().shape == (0, 2)
        assert rel.offsets.tolist() == [0, 0, 0, 0]

    def test_negative_endpoint_drops_no_pair(self, tmp_path):
        # (1, -2) is neither dropped nor reported as its reverse: the file's pair is named
        with pytest.raises(DatasetError, match=r"edges\.csv: edge \(1, -2\) out of range for 5 nodes$"):
            load_symmetrized(tmp_path, 5, [(0, 1), (0, 2), (1, -2)])


class TestNodeIndex:
    def test_integers_become_int64(self):
        for values in ([2, 0, 2], np.array([2, 0, 2], dtype=np.int32), np.array([2, 0, 2], dtype=np.uint8)):
            index = node_index(values, 3)
            assert index.dtype == np.int64 and index.tolist() == [2, 0, 2]

    def test_empty_of_any_dtype(self):
        for values in ([], np.array([]), np.empty(0, dtype=bool), np.empty((0, 2))):
            index = node_index(values, 3)
            assert index.dtype == np.int64 and index.shape == (0,)

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.array([True, False, True]), "integer node numbers, got bool"),
            (np.array([1.0, 0.0]), "integer node numbers, got float64"),
            ([[0, 1], [2, 0]], r"integer node numbers, got int64 of shape \(2, 2\)"),
            (np.int64(1), r"integer node numbers, got int64 of shape \(\)"),
            ([0, -1, 5], "node -1, outside 0..2"),
            ([0, 3, -1], "node 3, outside 0..2"),
        ],
        ids=["boolean-mask", "floats", "two-dimensional", "scalar", "negative", "past-the-end"],
    )
    def test_refused(self, values, message):
        with pytest.raises(GraphFormatError, match=message):
            node_index(values, 3)


def test_distinct_nodes_are_sorted_and_each_set_reads_its_places():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        sets = [rng.integers(0, n, size=int(rng.integers(0, 40))) for _ in range(int(rng.integers(1, 4)))]
        distinct, places = distinct_nodes(sets, n)
        assert np.array_equal(distinct, np.unique(np.concatenate(sets)))
        assert len(places) == len(sets)
        for nodes, at in zip(sets, places):
            assert at.dtype == np.int64 and np.array_equal(distinct[at], nodes)


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

    def test_views_are_built_per_read_and_stored_nowhere(self):
        adj = build_csr([(0, 1), (1, 2), (2, 0)], 3)
        part = partition_subgraphs(adj, [-1.0, 0.5, 0.0])
        before = dict(vars(part))
        assert part.hetero_degrees.tolist() == [0, 1, 1]
        assert part.homo_degrees.tolist() == [1, 0, 0]
        assert (part.homo.name, part.hetero.name) == ("relation:homo", "relation:hetero")
        assert part.hetero.targets.tolist() == [2, 0] and part.hetero is not part.hetero
        # reading the views leaves the partition as it was, holding no view
        assert vars(part).keys() == before.keys() and all(vars(part)[k] is v for k, v in before.items())

    def test_keyword_constructor_takes_explicit_views(self):
        adj = build_csr([(0, 1), (1, 2), (1, 0)], 3)
        eager = partition_subgraphs(adj, [0.3, -0.2, 0.7])
        homo, hetero = eager.homo, eager.hetero
        # the views given win, swapped or not
        part = EdgePartition(hetero_mask=eager.hetero_mask, homo=hetero, hetero=homo)
        assert part.homo is hetero and part.hetero is homo
        assert np.array_equal(part.homo_degrees, hetero.degrees())
        assert np.array_equal(part.hetero_degrees, homo.degrees())
        with pytest.raises(ValueError, match="both views or the relation"):
            EdgePartition(hetero_mask=eager.hetero_mask, homo=homo)

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
def test_partition_views_equal_csr_of_masked_edges(case):
    n, edges = case
    adj = build_csr(edges, n)
    rng = np.random.default_rng(adj.edge_count)
    part = partition_subgraphs(adj, rng.uniform(-1, 1, size=adj.edge_count))
    for view, keep in ((part.homo, ~part.hetero_mask), (part.hetero, part.hetero_mask)):
        rebuilt = build_csr(adj.edge_pairs()[keep], n)
        assert np.array_equal(view.offsets, rebuilt.offsets)
        assert np.array_equal(view.targets, rebuilt.targets)


@given(edge_lists, st.sampled_from(["random", "all-homo", "all-hetero"]))
@settings(max_examples=60, deadline=None)
def test_lazy_views_equal_eager_construction(case, mode):
    # the eager construction: each view's targets copied out by the mask, its
    # offsets the running count of the mask read at the relation's offsets
    n, edges = case
    adj = build_csr(edges, n, name="r")
    signs = {"random": np.random.default_rng(adj.edge_count).uniform(-1, 1, size=adj.edge_count),
             "all-homo": -np.ones(adj.edge_count), "all-hetero": np.zeros(adj.edge_count)}[mode]
    part = partition_subgraphs(adj, signs)
    mask = signs >= 0
    running = np.concatenate([[0], np.cumsum(mask)])
    hetero_offsets = running[adj.offsets]
    eager = (RelationAdjacency("r:homo", adj.offsets - hetero_offsets, adj.targets[~mask]),
             RelationAdjacency("r:hetero", hetero_offsets, adj.targets[mask]))
    for lazy, view in zip((part.homo, part.hetero), eager):
        assert lazy.name == view.name
        assert np.array_equal(lazy.offsets, view.offsets) and lazy.offsets.dtype == view.offsets.dtype
        assert np.array_equal(lazy.targets, view.targets) and lazy.targets.dtype == view.targets.dtype


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
def test_symmetrize_closure(tmp_path_factory, case):
    n, edges = case
    (rel,) = load_symmetrized(tmp_path_factory.mktemp("closure"), n, edges).relations
    pairs = set(map(tuple, rel.edge_pairs().tolist()))
    for u, v in pairs:
        assert (v, u) in pairs


def reference_csr(edges, n):
    """build_csr in plain Python: the first occurrence of each pair in input order, grouped stably by source."""
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) out of range for {n} nodes")
    kept = list(dict.fromkeys((u, v) for u, v in edges if u != v))
    targets = [v for node in range(n) for u, v in kept if u == node]
    degrees = [sum(u == node for u, _ in kept) for node in range(n)]
    return np.array([0, *np.cumsum(degrees)], dtype=np.int64), np.array(targets, dtype=np.int64)


# endpoints mostly in range, sometimes just outside it
wild_edge_lists = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(*[st.one_of(st.integers(0, n - 1), st.integers(-2, n + 1))] * 2), min_size=0, max_size=40
        ),
    )
)


@given(wild_edge_lists)
@settings(max_examples=300, deadline=None)
def test_build_csr_equals_plain_reference(case):
    n, edges = case
    try:
        offsets, targets = reference_csr(edges, n)
    except GraphFormatError as expected:
        with pytest.raises(GraphFormatError) as err:
            build_csr(edges, n)
        assert str(err.value) == str(expected)
        return
    adj = build_csr(edges, n)
    assert adj.offsets.tobytes() == offsets.tobytes()
    assert adj.targets.tobytes() == targets.tobytes()


@given(wild_edge_lists)
@settings(max_examples=150, deadline=None)
def test_symmetrize_equals_plain_reference(tmp_path_factory, case):
    # the loader's one build_csr call over the file's pairs, then their reverses,
    # gives the relation and the error of the pairs deduplicated in that order
    n, edges = case
    folder = tmp_path_factory.mktemp("symmetrized")
    both = list(dict.fromkeys([*edges, *((v, u) for u, v in edges)]))
    try:
        expected = build_csr(both, n, name="net")
    except GraphFormatError as err:
        with pytest.raises(DatasetError) as got:
            load_symmetrized(folder, n, edges)
        assert str(got.value) == f"{folder / 'edges.csv'}: {err}"
        return
    (rel,) = load_symmetrized(folder, n, edges).relations
    assert rel.offsets.tobytes() == expected.offsets.tobytes()
    assert rel.targets.tobytes() == expected.targets.tobytes()
