import os
import shutil
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kergnn.graphs
from kergnn.errors import ConfigError, DatasetError
from kergnn.graphs import (
    Dataset,
    Graph,
    dataset_stats,
    extract_subgraph,
    load_tudataset,
    read_graph_file,
    save_tudataset,
    stack_subgraphs,
    write_graph_file,
)

from conftest import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    hexagon,
    path_graph,
    random_graph,
    write_tudataset,
)


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------


def test_graph_rejects_asymmetric_adjacency():
    adj = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        Graph(2, adj, np.ones((2, 1)))


def test_graph_rejects_self_loops():
    adj = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        Graph(2, adj, np.ones((2, 1)))


def test_graph_rejects_bad_attribute_rows():
    with pytest.raises(ValueError):
        Graph(2, np.zeros((2, 2)), np.ones((3, 1)))


def test_graph_arrays_are_immutable():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 5.0


def test_graph_owns_its_arrays():
    # a graph built from views of its caller's arrays changed when they were
    # written, past the symmetry and diagonal checks and under the caches its
    # dataset keeps; and a caller's own float64 array was made read-only
    adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    attr = np.asfortranarray(np.arange(6.0).reshape(3, 2))
    labels = np.array([0, 1, 0])
    g = Graph(3, adj[:], attr[:], 1, labels[:])
    adj[0, 0] = adj[0, 2] = 7.0
    attr[:] = -1.0
    labels[:] = 5
    assert np.array_equal(g.adjacency, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert np.array_equal(g.attributes, np.arange(6.0).reshape(3, 2))
    assert np.array_equal(g.node_labels, [0, 1, 0])
    assert all(a.flags.writeable for a in (adj, attr, labels))
    assert all(a.flags.c_contiguous and not a.flags.writeable
               for a in (g.adjacency, g.attributes, g.node_labels))


# ---------------------------------------------------------------------------
# TUDataset loading
# ---------------------------------------------------------------------------


def test_load_degree_attributes_single_edge(tmp_path):
    # one 2-node, 1-edge graph and no node files: attributes are degrees
    adj = np.array([[0, 1], [1, 0]])
    write_tudataset(tmp_path, "tiny", [adj], [1])
    ds = load_tudataset(str(tmp_path), "tiny")
    assert len(ds) == 1
    assert ds.attr_dim == 1
    assert np.array_equal(ds.graphs[0].attributes, [[1.0], [1.0]])


def test_load_one_hot_node_labels(tmp_path):
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    write_tudataset(tmp_path, "lab", [adj], [0], node_labels=[5, 9, 5])
    ds = load_tudataset(str(tmp_path), "lab")
    # labels {5, 9} remap to {0, 1}; attributes are their one-hots
    assert ds.attr_dim == 2
    assert np.array_equal(ds.graphs[0].attributes, [[1, 0], [0, 1], [1, 0]])
    assert np.array_equal(ds.graphs[0].node_labels, [0, 1, 0])


def test_load_concatenates_labels_and_attributes(tmp_path):
    adj = np.array([[0, 1], [1, 0]])
    write_tudataset(tmp_path, "both", [adj], [2], node_labels=[1, 2],
                    node_attributes=[[0.5, -1.0], [2.0, 3.0]])
    ds = load_tudataset(str(tmp_path), "both")
    assert ds.attr_dim == 4  # 2 one-hot + 2 continuous
    assert np.array_equal(ds.graphs[0].attributes, [[1, 0, 0.5, -1.0], [0, 1, 2.0, 3.0]])


def test_load_remaps_graph_labels_contiguously(tmp_path):
    adj = np.array([[0, 1], [1, 0]])
    write_tudataset(tmp_path, "maps", [adj, adj, adj], [7, -1, 7])
    ds = load_tudataset(str(tmp_path), "maps")
    assert ds.num_classes == 2
    assert [g.graph_label for g in ds.graphs] == [1, 0, 1]


def test_load_missing_file_names_it(tmp_path):
    adj = np.array([[0, 1], [1, 0]])
    write_tudataset(tmp_path, "part", [adj], [1])
    (tmp_path / "part_graph_labels.txt").unlink()
    with pytest.raises(DatasetError, match="part_graph_labels.txt"):
        load_tudataset(str(tmp_path), "part")


def test_load_graph_ids_must_cover_range(tmp_path):
    adj = np.array([[0, 1], [1, 0]])
    # a gap, and an id so large that listing 1..id would exhaust memory
    for ids in ("1\n3\n", "1\n99999999999999999999\n"):
        write_tudataset(tmp_path, "ids", [adj], [1])
        (tmp_path / "ids_graph_indicator.txt").write_text(ids)
        with pytest.raises(DatasetError, match="graph ids must cover"):
            load_tudataset(str(tmp_path), "ids")


def test_load_out_of_range_edge_reports_line(tmp_path):
    adj = np.array([[0, 1], [1, 0]])
    write_tudataset(tmp_path, "oor", [adj], [1])
    with open(tmp_path / "oor_A.txt", "a") as fh:
        fh.write("1, 99\n")
    with pytest.raises(DatasetError, match=r"oor_A.txt:3"):
        load_tudataset(str(tmp_path), "oor")


def test_load_asymmetric_edges_rejected(tmp_path):
    (tmp_path / "asym_A.txt").write_text("1, 2\n")
    (tmp_path / "asym_graph_indicator.txt").write_text("1\n1\n")
    (tmp_path / "asym_graph_labels.txt").write_text("0\n")
    with pytest.raises(DatasetError, match="reverse"):
        load_tudataset(str(tmp_path), "asym")


def test_load_rejects_cross_graph_edges(tmp_path):
    (tmp_path / "x_A.txt").write_text("1, 3\n3, 1\n")
    (tmp_path / "x_graph_indicator.txt").write_text("1\n1\n2\n2\n")
    (tmp_path / "x_graph_labels.txt").write_text("0\n1\n")
    with pytest.raises(DatasetError, match="cross"):
        load_tudataset(str(tmp_path), "x")


def test_roundtrip_degree_dataset(tmp_path):
    rng = np.random.default_rng(3)
    adjs = [random_graph(rng, n, 0.5).adjacency for n in (4, 6, 5)]
    write_tudataset(tmp_path / "in", "rt", adjs, [1, 2, 1])
    ds = load_tudataset(str(tmp_path / "in"), "rt")
    save_tudataset(ds, str(tmp_path / "out"))
    ds2 = load_tudataset(str(tmp_path / "out"), "rt")
    assert ds2.num_classes == ds.num_classes
    for g1, g2 in zip(ds.graphs, ds2.graphs):
        assert np.array_equal(g1.adjacency, g2.adjacency)
        assert np.array_equal(g1.attributes, g2.attributes)
        assert g1.graph_label == g2.graph_label


def test_roundtrip_labels_and_attributes(tmp_path):
    rng = np.random.default_rng(4)
    adjs = [random_graph(rng, 5, 0.5).adjacency for _ in range(3)]
    labels = list(rng.integers(0, 3, size=15))
    attrs = rng.normal(size=(15, 2)).tolist()
    write_tudataset(tmp_path / "in", "rt2", adjs, [0, 1, 0], node_labels=labels,
                    node_attributes=attrs)
    ds = load_tudataset(str(tmp_path / "in"), "rt2")
    save_tudataset(ds, str(tmp_path / "out"))
    ds2 = load_tudataset(str(tmp_path / "out"), "rt2")
    for g1, g2 in zip(ds.graphs, ds2.graphs):
        assert np.array_equal(g1.adjacency, g2.adjacency)
        assert np.array_equal(g1.attributes, g2.attributes)
        assert np.array_equal(g1.node_labels, g2.node_labels)


def test_saved_files_are_pinned_byte_for_byte(tmp_path):
    # edges are written in row-major order of the adjacency: a TUDataset lists
    # both directions, a graph file lists i < j once
    path = np.zeros((3, 3))
    path[[0, 1, 1, 2], [1, 0, 2, 1]] = 1.0
    tri = np.ones((3, 3)) - np.eye(3)
    one_hot = np.eye(2)[[0, 1, 0, 1, 1, 0]]
    attrs = np.hstack([one_hot, [[0.5], [-1.25], [3.0], [0.1], [2.0], [1e-3]]])
    ds = Dataset("pin", [Graph(3, path, attrs[:3], 0, [0, 1, 0]),
                         Graph(3, tri, attrs[3:], 1, [1, 1, 0])], 2, 3)
    save_tudataset(ds, str(tmp_path))
    expected = {
        "A": "1, 2\n2, 1\n2, 3\n3, 2\n4, 5\n4, 6\n5, 4\n5, 6\n6, 4\n6, 5\n",
        "graph_indicator": "1\n1\n1\n2\n2\n2\n",
        "graph_labels": "0\n1\n",
        "node_labels": "0\n1\n0\n1\n1\n0\n",
        "node_attributes": "0.5\n-1.25\n3.0\n0.1\n2.0\n0.001\n",
    }
    for suffix, text in expected.items():
        assert (tmp_path / f"pin_{suffix}.txt").read_text() == text

    adj = np.zeros((4, 4))
    for i, j in [(0, 2), (0, 3), (1, 2)]:
        adj[i, j] = adj[j, i] = 1.0
    g = Graph(4, adj, [[0.5, 1.0], [-2.0, 0.0], [1e-3, 3.0], [7.0, -0.25]])
    write_graph_file(g, str(tmp_path / "g.graph"))
    assert (tmp_path / "g.graph").read_text() == (
        "4 2\n0.5 1.0\n-2.0 0.0\n0.001 3.0\n7.0 -0.25\n0 2\n0 3\n1 2\n")


def test_writers_refuse_what_the_files_cannot_hold(tmp_path):
    # the files hold unweighted edges: weights -0.5 and 2.0 would reload as 1.0
    adj = np.array([[0, -0.5, 0], [-0.5, 0, 2.0], [0, 2.0, 0]])
    weighted = Graph(3, adj, np.ones((3, 1)), 0)
    with pytest.raises(ConfigError, match="graph 0 has edge weights other than 0 and 1"):
        save_tudataset(Dataset("W", [weighted], 1, 1), str(tmp_path / "w"))
    with pytest.raises(ConfigError, match="the graph has edge weights other than 0 and 1"):
        write_graph_file(weighted, str(tmp_path / "w.graph"))
    # node labels keep only the one-hot block the loader rebuilds from them:
    # attributes that do not begin with it would reload as it
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    labels = [0, 1, 0]
    for attrs in (np.hstack([[[0.5], [0.25], [2.0]], np.eye(2)[labels]]),  # continuous first
                  np.array([[1.0], [0.0], [1.0]]),  # narrower than the block
                  np.eye(3)[[0, 2, 0]]):  # labels 0 and 2 code as 0 and 1, a block of 2
        graph = Graph(3, path, attrs, 0, [0, 2, 0] if attrs.shape[1] == 3 else labels)
        with pytest.raises(ConfigError, match="graph 0: its attributes do not begin with the one-hot"):
            save_tudataset(Dataset("L", [graph], 1, attrs.shape[1]), str(tmp_path / "l"))
    # node labels on one graph of two, and zero-width attributes, which would reload as degrees
    pair = [Graph(3, path, np.eye(2)[labels], 0, labels), Graph(3, path, np.eye(2)[labels], 0)]
    with pytest.raises(ConfigError, match="only some graphs have node labels"):
        save_tudataset(Dataset("M", pair, 1, 2), str(tmp_path / "m"))
    with pytest.raises(ConfigError, match="zero-width attributes"):
        save_tudataset(Dataset("Z", [Graph(3, path, np.zeros((3, 0)), 0)], 1, 0), str(tmp_path / "z"))
    assert sorted(os.listdir(tmp_path)) == []
    # labels 1 and 3 code as 0 and 1: a block of 2, then the continuous column
    coded = Graph(3, path, np.hstack([np.eye(2)[labels], [[0.5], [0.25], [2.0]]]), 0, [1, 3, 1])
    save_tudataset(Dataset("C", [coded], 1, 3), str(tmp_path / "c"))
    loaded = load_tudataset(str(tmp_path / "c"), "C").graphs[0]
    assert loaded.attributes.tobytes() == coded.attributes.tobytes()
    assert loaded.node_labels.tolist() == labels


@st.composite
def loaded_datasets(draw):
    """Datasets in the form load_tudataset returns them: graph and node labels
    coded 0..k-1 with every code used, attributes of one of the four kinds.
    Each starts with a one-node graph and an edgeless three-node graph."""
    kind = draw(st.sampled_from(["labels", "attributes", "labels+attributes", "degrees"]))
    sizes = [1, 3] + draw(st.lists(st.integers(1, 6), min_size=0, max_size=4))
    width = draw(st.integers(1, 2))
    reals = st.floats(allow_nan=False, allow_infinity=False)

    def codes(raw):
        return np.unique(raw, return_inverse=True)[1].reshape(-1)

    graph_labels = codes(draw(st.lists(st.integers(0, 2), min_size=len(sizes),
                                       max_size=len(sizes))))
    node_labels = codes(draw(st.lists(st.integers(0, 3), min_size=sum(sizes),
                                      max_size=sum(sizes))))
    one_hot = np.eye(node_labels.max() + 1)[node_labels]
    graphs, offset = [], 0
    for gid, n in enumerate(sizes):
        upper = np.zeros((n, n))
        if gid != 1:
            upper[np.triu_indices(n, 1)] = draw(st.lists(
                st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        adj = upper + upper.T
        blocks = []
        if "labels" in kind:
            blocks.append(one_hot[offset:offset + n])
        if "attributes" in kind:
            blocks.append(np.array(draw(st.lists(st.lists(reals, min_size=width, max_size=width),
                                                 min_size=n, max_size=n))))
        attrs = np.hstack(blocks) if blocks else adj.sum(axis=1, keepdims=True)
        labels = node_labels[offset:offset + n] if "labels" in kind else None
        graphs.append(Graph(n, adj, attrs, int(graph_labels[gid]), labels))
        offset += n
    return Dataset("RT", graphs, int(graph_labels.max()) + 1, graphs[0].attr_dim)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ds=loaded_datasets())
# a one-wide attribute column equal to the degrees in value but not in bytes
# is payload: it is written, not rebuilt as +0.0 degrees
@example(ds=Dataset("nz", [Graph(1, np.zeros((1, 1)), [[-0.0]], 0)], 1, 1))
def test_load_of_saved_dataset_is_byte_identical(ds):
    with tempfile.TemporaryDirectory() as tmp:
        save_tudataset(ds, tmp)
        loaded = load_tudataset(tmp, ds.name)
    assert (loaded.num_classes, loaded.attr_dim, len(loaded)) == (ds.num_classes, ds.attr_dim, len(ds))
    for g, h in zip(ds.graphs, loaded.graphs):
        assert h.adjacency.tobytes() == g.adjacency.tobytes()
        assert h.attributes.shape == g.attributes.shape
        assert h.attributes.tobytes() == g.attributes.tobytes()
        if g.node_labels is None:
            assert h.node_labels is None
        else:
            assert h.node_labels.tobytes() == g.node_labels.tobytes()
        assert h.graph_label == g.graph_label


# ---------------------------------------------------------------------------
# Subgraph extraction
# ---------------------------------------------------------------------------


def _induced_adjacency(g, nodes):
    # independent enumeration: check every node pair against the parent graph
    n = len(nodes)
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            out[a, b] = g.adjacency[nodes[a], nodes[b]]
    return out


def test_subgraph_isolated_node():
    g = Graph(3, np.zeros((3, 3)), np.arange(6.0).reshape(3, 2))
    sub = extract_subgraph(g, 1, hops=1, k_max=5)
    assert sub.size == 1
    assert np.array_equal(sub.adjacency, np.zeros((5, 5)))
    assert np.array_equal(sub.attributes[0], g.attributes[1])
    assert np.array_equal(sub.attributes[1:], np.zeros((4, 2)))


def test_subgraph_hexagon_center_is_path3():
    # 1-hop neighborhood of a 6-cycle node: the two neighbors are not adjacent
    sub = extract_subgraph(hexagon(), 0, hops=1, k_max=10)
    assert sub.size == 3
    assert sub.node_ids == (0, 1, 5)
    expected = _induced_adjacency(hexagon(), [0, 1, 5])
    assert np.array_equal(sub.adjacency[:3, :3], expected)
    assert expected.sum() == 4  # path on 3 nodes: 2 undirected edges
    assert expected[1, 2] == 0


def test_subgraph_triangle_is_complete():
    sub = extract_subgraph(complete_graph(3), 0, hops=1, k_max=10)
    assert sub.size == 3
    expected = _induced_adjacency(complete_graph(3), [0, 1, 2])
    assert np.array_equal(sub.adjacency[:3, :3], expected)
    assert expected.sum() == 6  # K3: 3 undirected edges


def test_subgraph_ordering_and_truncation():
    # star with center 3: neighbors 0,1,2,4; hop ordering then id ordering
    adj = np.zeros((5, 5))
    for v in (0, 1, 2, 4):
        adj[3, v] = adj[v, 3] = 1.0
    g = Graph(5, adj, np.arange(5.0).reshape(5, 1))
    sub = extract_subgraph(g, 3, hops=1, k_max=3)
    assert sub.node_ids == (3, 0, 1)  # center first, nearest kept, ids ascending
    assert sub.size == 3


def test_subgraph_two_hops():
    g = cycle_graph(6)
    sub = extract_subgraph(g, 0, hops=2, k_max=10)
    assert sub.node_ids == (0, 1, 5, 2, 4)
    assert sub.size == 5


def test_subgraph_deterministic_and_padded():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 8, 0.4, d=3)
    s1 = extract_subgraph(g, 2, hops=2, k_max=6)
    s2 = extract_subgraph(g, 2, hops=2, k_max=6)
    assert s1.node_ids == s2.node_ids
    assert np.array_equal(s1.adjacency, s2.adjacency)
    # padding must be exactly zero
    k = s1.size
    assert np.all(s1.adjacency[k:, :] == 0.0)
    assert np.all(s1.adjacency[:, k:] == 0.0)
    assert np.all(s1.attributes[k:] == 0.0)


def test_subgraph_no_truncation_when_capacity_suffices():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng, 7, 0.5)
        v = int(rng.integers(0, 7))
        deg = int(g.degrees()[v])
        sub = extract_subgraph(g, v, hops=1, k_max=deg + 1)
        assert sub.size == deg + 1


def test_subgraph_argument_errors():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        extract_subgraph(g, 4, 1, 5)
    with pytest.raises(ValueError):
        extract_subgraph(g, 0, 0, 5)
    with pytest.raises(ValueError):
        extract_subgraph(g, 0, 1, 0)


# ---------------------------------------------------------------------------
# Stacked extraction: per node equal to extract_subgraph
# ---------------------------------------------------------------------------


def assert_stack_matches_extract(g, hops, k_max):
    stack = stack_subgraphs(g, hops, k_max)
    layout = stack.layout
    assert stack.nodes.dtype == np.int64
    assert len(stack.nodes) == len(layout.real) == len(layout.slots)
    assert len(layout.starts) == g.num_nodes
    assert stack.adjacency.shape == (g.num_nodes, k_max, k_max)
    assert stack.offsets.tolist() == [0, g.num_nodes] and stack.sizes.dtype == np.int64
    x_sub = stack.gather(g.attributes)
    start = 0
    for v in range(g.num_nodes):
        sub = extract_subgraph(g, v, hops, k_max)
        run = slice(start, start + sub.size)
        # subgraph v's run of real slots: its first sub.size slots, holding its nodes
        assert stack.sizes[v] == sub.size and layout.starts[v] == start
        assert tuple(stack.nodes[run]) == sub.node_ids
        assert list(layout.real[run]) == list(v * k_max + np.arange(sub.size))
        assert list(layout.slots[run]) == list(range(sub.size))
        # byte equality: the same values, signs of zeros and padding
        assert x_sub[v].tobytes() == sub.attributes.tobytes()
        assert stack.adjacency[v].tobytes() == sub.adjacency.tobytes()
        start += sub.size
    assert start == len(stack.nodes)


@st.composite
def symmetric_graphs(draw, max_nodes=40):
    """Random symmetric graphs from empty to dense, binary or weighted
    (weights of both signs, so reachability must not sum them). Each node's
    attribute is its own negative value, so a gather from the wrong node or a
    -0.0 in the padding shows."""
    n = draw(st.integers(0, max_nodes))
    density = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 0.7, 1.0]))
    weighted = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, k=1).astype(np.float64)
    if weighted:
        upper *= rng.choice([-1.0, 1.0, 0.5], p=[0.45, 0.45, 0.1], size=(n, n))
    return Graph(n, upper + upper.T, -1.0 - np.arange(n, dtype=np.float64)[:, None])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(g=symmetric_graphs(), hops=st.integers(1, 4), extra=st.integers(0, 43))
def test_stack_subgraphs_equals_extract_subgraph(g, hops, extra):
    k_max = 1 + extra % (g.num_nodes + 3)  # 1 .. n + 3
    assert_stack_matches_extract(g, hops, k_max)


def test_stack_subgraphs_weights_do_not_cancel():
    # node 3 is two hops from 0 through edges of weight 1 and -1
    adj = np.zeros((4, 4))
    for i, j, w in [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, -1.0)]:
        adj[i, j] = adj[j, i] = w
    g = Graph(4, adj, np.ones((4, 1)))
    stack = stack_subgraphs(g, 2, 4)
    assert list(stack.nodes[:stack.layout.starts[1]]) == [0, 1, 2, 3]
    assert_stack_matches_extract(g, 2, 4)


def test_stack_subgraphs_across_row_chunks(monkeypatch):
    # chunks of 3 rows: 11 nodes end on a partial chunk, and each chunk must
    # still see the whole graph's columns
    monkeypatch.setattr(kergnn.graphs, "_ROW_CHUNK", 3)
    rng = np.random.default_rng(12)
    g = disjoint_union(random_graph(rng, 7, 0.4), cycle_graph(4))
    for hops, k_max in [(1, 3), (2, 6), (3, 14)]:
        assert_stack_matches_extract(g, hops, k_max)


def test_stack_subgraphs_huge_hops_stop_at_the_diameter():
    class CountingAdjacency(np.ndarray):
        """An adjacency whose arrays count the matrix products taken with them."""

        products = 0

        def __matmul__(self, other):
            CountingAdjacency.products += 1
            return super().__matmul__(other)

        def __rmatmul__(self, other):
            CountingAdjacency.products += 1
            return super().__rmatmul__(other)

    g = path_graph(60)
    object.__setattr__(g, "adjacency", g.adjacency.view(CountingAdjacency))
    assert_stack_matches_extract(g, 10**6, 64)
    # one product for each hop 2..59 (the diameter), then one that reaches
    # nothing new; a walk without the early stop takes 10**6 - 1
    assert CountingAdjacency.products == 59


@pytest.mark.parametrize("n", [0, 4])
def test_stack_subgraphs_argument_errors(n):
    # a zero-node graph returned an empty stack for any hops and k_max
    g = cycle_graph(n) if n else Graph(0, np.zeros((0, 0)), np.zeros((0, 1)))
    with pytest.raises(ValueError, match="hops must be >= 1"):
        stack_subgraphs(g, 0, 5)
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        stack_subgraphs(g, 1, 0)
    with pytest.raises(ValueError, match="hops must be >= 1"):
        stack_subgraphs(g, 0, 0)


# ---------------------------------------------------------------------------
# Subsets
# ---------------------------------------------------------------------------


def four_graphs():
    return Dataset("four", [path_graph(n, label=n % 2) for n in (2, 3, 4, 5)], 2, 1)


@pytest.mark.parametrize("indices", [
    [-1],  # counted from the end
    [4],  # past the end
    [True, False],  # graphs 1 and 0, or as a numpy index a mask
    np.array([True, False, True, False]),
    [1.5],  # a bare TypeError
    np.array([1.0, 2.0]),
    [[0, 1]],  # 2-D
    np.int64(2),  # a scalar
    "01",
    [0, "1"],
    [2**70],  # an object array
    [[0], [1, 2]],  # ragged
])
def test_subset_rejects_anything_but_integers_in_range(indices):
    with pytest.raises(ConfigError, match="subset indices"):
        four_graphs().subset(indices)


def test_subset_composes_indices_into_its_root():
    # a subset keeps its root's caches and its graphs' positions in the root
    ds = four_graphs()
    outer = ds.subset(np.array([3, 1, 2], dtype=np.uint8), name="outer")
    inner = outer.subset(range(3)[::-1]).subset([0, 0, 2])
    assert outer.name == inner.name == "outer"
    assert [g.num_nodes for g in inner.graphs] == [4, 4, 5]
    assert inner.index.tolist() == [2, 2, 3] and inner.index.dtype == np.int64
    assert inner.packed is outer.packed is ds.packed
    assert not inner.index.flags.writeable
    assert len(ds.subset([])) == 0 and ds.subset(np.zeros(0)).index.dtype == np.int64
    # a dataset made from a subset's graphs is a root of its own
    again = Dataset("again", inner.graphs, 2, 1)
    assert again.packed is not ds.packed and again.index.tolist() == [0, 1, 2]


# ---------------------------------------------------------------------------
# Stats and standalone files
# ---------------------------------------------------------------------------


def test_dataset_stats_single_graph(tmp_path):
    write_tudataset(tmp_path, "one", [np.zeros((3, 3), dtype=int)], [0])
    ds = load_tudataset(str(tmp_path), "one")
    stats = dataset_stats(ds)
    assert stats.graphs == 1
    assert stats.avg_nodes == 3.0


def test_dataset_stats_empty_rejected():
    from kergnn.graphs import Dataset

    with pytest.raises(ValueError):
        dataset_stats(Dataset("empty", [], 0, 0))


def test_graph_file_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "g.graph"
    edge = np.array([[0.0, 1.0], [1.0, 0.0]])
    # zero-width attributes were written as blank lines, which reading skips
    for g in (random_graph(rng, 6, 0.5, d=3), Graph(2, edge, np.zeros((2, 0))),
              Graph(0, np.zeros((0, 0)), np.zeros((0, 2)))):
        write_graph_file(g, str(path))
        g2 = read_graph_file(str(path))
        assert np.array_equal(g.adjacency, g2.adjacency)
        assert np.array_equal(g.attributes, g2.attributes)
        assert g2.attributes.shape == g.attributes.shape
    assert path.read_text() == "0 2\n"
    path.write_text("2 0\n0 1\n")
    assert np.array_equal(read_graph_file(str(path)).adjacency, edge)


def test_graph_file_errors(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("2 1\n1.0\n")
    with pytest.raises(DatasetError):
        read_graph_file(str(bad))
    with pytest.raises(DatasetError, match="missing"):
        read_graph_file(str(tmp_path / "nope.graph"))
    for header in ("-1 2", "2 -1", "0 99999999999999999999"):
        bad.write_text(header + "\n")
        with pytest.raises(DatasetError, match=r"bad\.graph:1: "):
            read_graph_file(str(bad))
    # zero-width rows take no lines, so no line count bounds n
    for n in ("99999999999", "99999999999999999999"):
        bad.write_text(f"{n} 0\n")
        with pytest.raises(DatasetError, match="does not fit in memory"):
            read_graph_file(str(bad))
    bad.write_bytes(b"1 1\n\xff\n")
    with pytest.raises(DatasetError, match="not UTF-8"):
        read_graph_file(str(bad))
    for value in ("nan", "inf", "-inf", "1e999"):
        bad.write_text(f"2 1\n1.0\n{value}\n0 1\n")
        with pytest.raises(DatasetError, match=r"bad\.graph:3: .*finite"):
            read_graph_file(str(bad))


def test_graph_file_error_names_the_real_line(tmp_path):
    # the comment and the blank line count: the bad attribute is on line 5
    bad = tmp_path / "bad.graph"
    bad.write_text("# two nodes\n\n2 1\n1.0\nx\n")
    with pytest.raises(DatasetError, match=r"bad\.graph:5: "):
        read_graph_file(str(bad))


def test_load_edge_errors_count_blank_lines(tmp_path):
    adj = np.array([[0, 1], [1, 0]])
    write_tudataset(tmp_path, "gap", [adj], [1])
    (tmp_path / "gap_A.txt").write_text("\n1, 2\n\n2, 1\n\n1, x\n")
    with pytest.raises(DatasetError, match=r"gap_A\.txt:6: "):
        load_tudataset(str(tmp_path), "gap")
    (tmp_path / "gap_A.txt").write_text("\n\n2, 1\n")
    with pytest.raises(DatasetError, match=r"gap_A\.txt:3: .*reverse"):
        load_tudataset(str(tmp_path), "gap")


@pytest.fixture(params=["scan", "lines"])
def reader(request, monkeypatch):
    """Loads through the array scan of plain integer blocks ("scan"), or with
    every block left to the line parser ("lines")."""
    if request.param == "lines":
        monkeypatch.setattr(kergnn.graphs, "_scan_block", lambda *args: None)
    return request.param


def test_load_spellings_equal_the_plain_twin(tmp_path, reader):
    # CRLF ends, tabs, "i,j" without a space, '+' signs, trailing blanks and
    # blank lines, and graph labels -1 and 20 digits long, which code as the
    # plain twin's 0 and 1
    adjs = [np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]]), np.array([[0, 1], [1, 0]]),
            np.array([[0, 1], [1, 0]])]
    write_tudataset(tmp_path / "plain", "T", adjs, [0, 1, 0], node_labels=[4, 2, 2, 4, 9, 2, 2])
    twin = load_tudataset(str(tmp_path / "plain"), "T")
    spelled = tmp_path / "spelled"
    spelled.mkdir()
    pairs = [line.split(", ") for line in (tmp_path / "plain" / "T_A.txt").read_text().splitlines()]
    rows = [f"{i},{j}" if k % 3 == 0 else f"\t+{i}\t{j} \t" if k % 3 == 1 else f" {i} ,{j}  "
            for k, (i, j) in enumerate(pairs)]
    edges = "\r\n".join(rows + ["", " \t", ""]).encode()
    (spelled / "T_A.txt").write_bytes(edges)
    (spelled / "T_graph_indicator.txt").write_bytes(b"1\r\n1\r\n1\r\n2\r\n2\r\n3\r\n3\r\n")
    (spelled / "T_graph_labels.txt").write_bytes(b"-1\r\n99999999999999999999\r\n\t-1 ")
    (spelled / "T_node_labels.txt").write_bytes(b"4\t\n+2\n\n2\n4\n9\n2\n2")
    if reader == "scan":  # the edges are plain: the scan reads them itself
        assert kergnn.graphs._scan_block(np.frombuffer(edges, dtype=np.uint8), 2, True) is not None
    loaded = load_tudataset(str(spelled), "T")
    assert (loaded.num_classes, loaded.attr_dim, len(loaded)) == (twin.num_classes, twin.attr_dim, 3)
    for g, h in zip(twin.graphs, loaded.graphs):
        assert h.adjacency.tobytes() == g.adjacency.tobytes()
        assert h.attributes.tobytes() == g.attributes.tobytes()
        assert h.node_labels.tobytes() == g.node_labels.tobytes()
        assert h.graph_label == g.graph_label


def test_load_errors_name_the_same_line_either_way(tmp_path, reader):
    adj = np.array([[0, 1], [1, 0]])
    write_tudataset(tmp_path, "ids", [adj], [1])
    (tmp_path / "ids_graph_indicator.txt").write_text("1\n99999999999999999999\n")
    with pytest.raises(DatasetError, match=r"graph ids must cover 1\.\.99999999999999999999$"):
        load_tudataset(str(tmp_path), "ids")
    write_tudataset(tmp_path, "oor", [adj], [1])
    (tmp_path / "oor_A.txt").write_bytes(b"1, 2\r\n2, 1\r\n1, 99\r\n")
    with pytest.raises(DatasetError, match=r"oor_A\.txt:3: invalid edge \(1, 99\)"):
        load_tudataset(str(tmp_path), "oor")
    write_tudataset(tmp_path, "gap", [adj], [1])
    (tmp_path / "gap_A.txt").write_text("\n1, 2\n\n2, 1\n\n1, x\n")
    with pytest.raises(DatasetError, match=r"gap_A\.txt:6: "):
        load_tudataset(str(tmp_path), "gap")
    (tmp_path / "gap_A.txt").write_text("\n\n2\t1\n")
    with pytest.raises(DatasetError, match=r"gap_A\.txt:3: no reverse of edge 2, 1"):
        load_tudataset(str(tmp_path), "gap")


def _row_of(width):
    """The line parser's reading of a line of `width` integers."""
    def parse(fields):
        if len(fields) != width:
            raise ValueError(f"expected {width} integers")
        return [int(x) for x in fields]
    return parse


def _read(path, width, commas, scan=True):
    """_read_rows of a file of `width` integers a line, as (values, dtype,
    line numbers), or the DatasetError message; scan=False leaves every block
    to the line parser."""
    with mock.patch.object(kergnn.graphs, "_scan_block",
                           kergnn.graphs._scan_block if scan else lambda *args: None):
        try:
            values, lines = kergnn.graphs._read_rows(str(path), _row_of(width), width, commas=commas)
        except DatasetError as exc:
            return str(exc)
    assert values.shape == (len(lines), width) and lines.dtype == np.int64
    return values.tolist(), values.dtype, lines.tolist()


def _blocks(path):
    with open(path, "rb") as fh:
        return [np.frombuffer(block, dtype=np.uint8) for block in kergnn.graphs._line_blocks(fh)]


# block sizes that cut short files before, inside and after line ends, and the default
SCAN_BLOCKS = [1, 2, 3, 7, 64, kergnn.graphs._SCAN_BLOCK]


@pytest.mark.parametrize("data,width,commas", [
    (b"", 1, False),
    (b"\n \t\r\n\n", 1, False),
    (b"7\n-0\n+12\r\n007\n123456789012345678\n-123456789012345678", 1, False),
    (b"1 2\r\n\r\n \t\r\n3,4 ,\n,5\t6", 2, True),
], ids=["empty", "blank", "integers", "edges"])
def test_scan_of_a_plain_file_equals_the_line_parser(tmp_path, monkeypatch, data, width, commas):
    path = tmp_path / "ints.txt"
    path.write_bytes(data)
    parsed = _read(path, width, commas, scan=False)
    assert parsed[1] == np.int64
    for block in SCAN_BLOCKS:
        monkeypatch.setattr(kergnn.graphs, "_SCAN_BLOCK", block)
        assert all(kergnn.graphs._scan_block(buf, width, commas) is not None for buf in _blocks(path))
        assert _read(path, width, commas) == parsed


@pytest.mark.parametrize("data,width,commas", [
    (b"1\r2\n", 1, False),  # str.splitlines breaks a line at a lone '\r'
    (b"1\n2\r", 1, False),
    (b"1_0\n", 1, False),  # int() reads 10
    (b"\xd9\xa3\n", 1, False),  # int() reads an Arabic-Indic 3
    (b"1\xc2\xa0\n", 1, False),  # str.split() splits at a no-break space
    (b"\x0b1\n", 1, False),  # and str.splitlines at a vertical tab: 1 is on line 2
    (b"+-1\n", 1, False),
    (b"1-\n", 1, False),
    (b"-\n", 1, False),
    (b"1234567890123456789\n", 1, False),  # 19 digits
    (b"1 2\n", 1, False),  # two fields on a line of one
    (b"1, 2\n3\n", 2, True),
    (b"1, 2\n ,\n", 2, True),  # a data line of a comma alone
    (b"1,2\n", 1, False),  # a comma outside _A.txt
], ids=["cr", "trailing-cr", "underscore", "arabic-digit", "nbsp", "vtab", "two-signs",
        "sign-last", "sign-alone", "19-digits", "extra-field", "short-line", "comma-line",
        "comma"])
def test_scan_leaves_a_file_it_cannot_read_plainly_to_the_line_parser(tmp_path, monkeypatch, data,
                                                                      width, commas):
    path = tmp_path / "ints.txt"
    path.write_bytes(data)
    assert kergnn.graphs._scan_block(np.frombuffer(data, dtype=np.uint8), width, commas) is None
    parsed = _read(path, width, commas, scan=False)
    for block in SCAN_BLOCKS:
        monkeypatch.setattr(kergnn.graphs, "_SCAN_BLOCK", block)
        assert any(kergnn.graphs._scan_block(buf, width, commas) is None for buf in _blocks(path))
        assert _read(path, width, commas) == parsed


@st.composite
def integer_files(draw):
    """(bytes, width, commas): lines of `width` signed integers split by spaces,
    tabs, or commas when `commas`, blank lines among them, '\n' or '\r\n' ends,
    with or without a final one. Most have up to three edits, so a file cut
    into blocks holds plain blocks and blocks that are not: a lone '\r', a
    comma, a sign, a digit, a field, a 19- or 20-digit one, a no-break space,
    an 'x' or a byte that is not UTF-8."""
    width, commas = draw(st.integers(1, 3)), draw(st.booleans())
    number = st.builds(lambda sign, value: sign + str(value), st.sampled_from(["", "+", "-"]),
                       st.integers(0, 10**18 - 1))
    gap = st.sampled_from([" ", "\t", " \t "] + ([", ", ","] if commas else []))
    text = ""
    for _ in range(draw(st.integers(0, 8))):
        count = draw(st.sampled_from([0, width, width]))
        text += "".join(draw(gap) + draw(number) for _ in range(count))
        text += draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from(["\n", "\r\n"]))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    data = text.encode()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from([b"\r", b",", b"-", b"7", b" 7", b" 1234567890123456789",
                                     b" 99999999999999999999", b"\xc2\xa0", b"x", b"\xff"]))
        data = data[:at] + edit + data[at:]
    return data, width, commas


@settings(max_examples=200, deadline=None, derandomize=True)
@given(file=integer_files())
def test_scan_is_the_same_at_every_block_size(file):
    # at every block size the read equals the line parser's at that size: the
    # same values and line numbers, or the same error; a file that reads
    # reads the same at every size
    data, width, commas = file
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ints.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        whole = _read(path, width, commas, scan=False)
        for block in SCAN_BLOCKS:
            with mock.patch.object(kergnn.graphs, "_SCAN_BLOCK", block):
                scanned, parsed = _read(path, width, commas), _read(path, width, commas, scan=False)
            assert scanned == parsed
            if not isinstance(whole, str):
                assert scanned == whole


def test_of_two_faults_in_different_blocks_the_first_is_named(tmp_path, monkeypatch):
    # a bad line before a bad UTF-8 byte in a later block, and a ragged
    # attribute row in a file of the wrong count of rows, are the ones named
    adj = np.array([[0, 1], [1, 0]])
    write_tudataset(tmp_path, "two", [adj], [0], node_attributes=[[0.5, 1.0], [1.5, 2.0]])
    attributes = tmp_path / "two_node_attributes.txt"
    monkeypatch.setattr(kergnn.graphs, "_SCAN_BLOCK", 8)
    attributes.write_bytes(b"0.5, 1.0\nx, 2.0\n\xff\n")
    with pytest.raises(DatasetError, match=r"two_node_attributes\.txt:2: could not convert"):
        load_tudataset(str(tmp_path), "two")
    attributes.write_bytes(b"0.5, 1.0\n1.5\n2.5, 3.0\n")
    with pytest.raises(DatasetError, match=r"two_node_attributes\.txt:2: inconsistent attribute width"):
        load_tudataset(str(tmp_path), "two")
    # a bad byte in a later block is named by its offset in the file
    attributes.write_bytes(b"0.5, 1.0\n1.5, 2.0\n\xff\n")
    with pytest.raises(DatasetError, match=r"not UTF-8 text \(invalid start byte at byte 18\)"):
        load_tudataset(str(tmp_path), "two")
    # in one block the UTF-8 check still comes first
    monkeypatch.setattr(kergnn.graphs, "_SCAN_BLOCK", 64)
    attributes.write_bytes(b"0.5, 1.0\nx, 2.0\n\xff\n")
    with pytest.raises(DatasetError, match=r"not UTF-8 text \(invalid start byte at byte 16\)"):
        load_tudataset(str(tmp_path), "two")


def _write_imdb_shaped(directory, name, count, seed, attributes=0):
    """`count` dense ego-networks of about 20 nodes, as in IMDB-BINARY: ~190
    edge lines a graph, degrees as the attributes, or `attributes` random
    reals a node."""
    rng = np.random.default_rng(seed)
    adjs = [random_graph(rng, int(12 + rng.poisson(8)), 0.5).adjacency for _ in range(count)]
    rows = rng.normal(size=(sum(map(len, adjs)), attributes)) if attributes else None
    write_tudataset(directory, name, adjs, rng.integers(0, 2, size=count), node_attributes=rows)


def test_load_is_the_same_at_a_small_block(tmp_path, monkeypatch):
    _write_imdb_shaped(tmp_path, "I", 12, seed=5)
    whole = load_tudataset(str(tmp_path), "I")
    monkeypatch.setattr(kergnn.graphs, "_SCAN_BLOCK", 7)
    blocked = load_tudataset(str(tmp_path), "I")
    assert (blocked.num_classes, blocked.attr_dim, len(blocked)) == (whole.num_classes, whole.attr_dim, 12)
    for g, h in zip(whole.graphs, blocked.graphs):
        assert h.adjacency.tobytes() == g.adjacency.tobytes()
        assert h.attributes.tobytes() == g.attributes.tobytes()
        assert h.graph_label == g.graph_label


@pytest.fixture(scope="module")
def imdb_shaped(tmp_path_factory):
    """An IMDB-BINARY-sized dataset: 1000 graphs, an edge file of ~2.2 MB."""
    directory = tmp_path_factory.mktemp("imdb")
    _write_imdb_shaped(directory, "I", 1000, seed=6)
    return str(directory)


def _traced(fn):
    """fn(), and the bytes it still holds and its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


def test_scan_peaks_near_what_it_returns(imdb_shaped):
    # the transient of a block scan is a few times _SCAN_BLOCK; joining the
    # blocks' results doubles them for a moment
    path = os.path.join(imdb_shaped, "I_A.txt")
    (values, lines), _, peak = _traced(lambda: kergnn.graphs._read_rows(path, _row_of(2), 2, commas=True))
    returned = values.nbytes + lines.nbytes
    assert returned > 2**21 and peak <= 2.5 * returned


def test_load_peaks_near_what_it_keeps(imdb_shaped):
    ds, kept, peak = _traced(lambda: load_tudataset(imdb_shaped, "I"))
    assert len(ds) == 1000 and peak <= 3 * kept


def test_load_of_an_odd_byte_peaks_as_its_plain_twin(imdb_shaped, tmp_path):
    # one no-break space sends one block of the edge file, not the whole file,
    # to the line parser
    odd_dir = shutil.copytree(imdb_shaped, tmp_path / "odd")
    edges = odd_dir / "I_A.txt"
    edges.write_bytes(edges.read_bytes().replace(b", ", b",\xc2\xa0", 1))
    plain, _, plain_peak = _traced(lambda: load_tudataset(imdb_shaped, "I"))
    odd, _, odd_peak = _traced(lambda: load_tudataset(str(odd_dir), "I"))
    assert [g.adjacency.tobytes() for g in odd.graphs] == [g.adjacency.tobytes() for g in plain.graphs]
    assert odd_peak <= 1.5 * plain_peak


def test_load_of_wide_attributes_peaks_near_what_it_keeps(tmp_path):
    # 18 reals a node, as in ENZYMES: the attribute file is read block by block
    _write_imdb_shaped(tmp_path, "W", 1000, seed=7, attributes=18)
    assert os.path.getsize(tmp_path / "W_node_attributes.txt") > 4 * kergnn.graphs._SCAN_BLOCK
    ds, kept, peak = _traced(lambda: load_tudataset(str(tmp_path), "W"))
    assert ds.attr_dim == 18 and peak <= 3 * kept


def test_load_rejects_non_finite_attributes(tmp_path):
    adj = np.array([[0, 1], [1, 0]])
    for value in ("nan", "inf"):
        write_tudataset(tmp_path, "nf", [adj], [0], node_attributes=[[0.5], [1.0]])
        (tmp_path / "nf_node_attributes.txt").write_text(f"0.5\n{value}\n")
        with pytest.raises(DatasetError, match=r"nf_node_attributes\.txt:2: .*finite"):
            load_tudataset(str(tmp_path), "nf")


@pytest.mark.parametrize("name,expected", [
    ("IMDB-MULTI", dict(graphs=1500, classes=3, avg_nodes=13.0)),
    ("DD", dict(graphs=1178, classes=2, avg_nodes=284.0)),
    ("IMDB-BINARY", dict(graphs=1000, classes=2, avg_nodes=20.0)),
])
def test_dataset_stats_real_rows(name, expected):
    # checked against the published dataset summary rows; needs local data
    from conftest import require_dataset

    directory = require_dataset(name)
    stats = dataset_stats(load_tudataset(directory, name))
    assert stats.graphs == expected["graphs"]
    assert stats.classes == expected["classes"]
    assert abs(stats.avg_nodes - expected["avg_nodes"]) < 1.0
