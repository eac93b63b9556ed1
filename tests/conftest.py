"""Shared graph builders and helpers for the test suite."""

import itertools
import os

import numpy as np
import pytest

from kergnn.graphs import Graph
from kergnn.model import named_parameters


def cycle_graph(n, d=1, label=None):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return Graph(n, adj, np.ones((n, d)), graph_label=label)


def path_graph(n, d=1, label=None):
    adj = np.zeros((n, n))
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    return Graph(n, adj, np.ones((n, d)), graph_label=label)


def complete_graph(n, d=1, label=None):
    adj = np.ones((n, n)) - np.eye(n)
    return Graph(n, adj, np.ones((n, d)), graph_label=label)


def disjoint_union(g1, g2, label=None):
    n = g1.num_nodes + g2.num_nodes
    adj = np.zeros((n, n))
    adj[: g1.num_nodes, : g1.num_nodes] = g1.adjacency
    adj[g1.num_nodes:, g1.num_nodes:] = g2.adjacency
    attrs = np.vstack([g1.attributes, g2.attributes])
    return Graph(n, adj, attrs, graph_label=label)


def hexagon():
    return cycle_graph(6)


def two_triangles():
    return disjoint_union(complete_graph(3), complete_graph(3))


def random_graph(rng, n, p=0.4, d=1, label=None, labeled_nodes=False):
    upper = np.triu(rng.random((n, n)) < p, k=1).astype(float)
    adj = upper + upper.T
    attrs = rng.normal(size=(n, d))
    node_labels = rng.integers(0, 3, size=n) if labeled_nodes else None
    return Graph(n, adj, attrs, graph_label=label, node_labels=node_labels)


def random_filter(rng, n, d):
    from kergnn.model import GraphFilter

    adj = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    vals = rng.random(len(iu[0]))
    adj[iu] = vals
    adj[(iu[1], iu[0])] = vals
    return GraphFilter(n, adj, rng.normal(size=(n, d)))


def random_subgraph(rng, size, k_max, d):
    """Padded subgraph with `size` real slots and random topology/attributes."""
    from kergnn.graphs import Subgraph

    upper = np.triu(rng.random((size, size)) < 0.5, k=1).astype(float)
    adj = np.zeros((k_max, k_max))
    adj[:size, :size] = upper + upper.T
    attrs = np.zeros((k_max, d))
    attrs[:size] = rng.normal(size=(size, d))
    return Subgraph(center=0, node_ids=tuple(range(size)), adjacency=adj,
                    attributes=attrs, size=size)


def with_attributes(sub, feats):
    """`sub` with the same topology and attribute rows gathered from `feats` by node id."""
    from kergnn.graphs import Subgraph

    feats = np.asarray(feats, dtype=np.float64)
    attr = np.zeros((sub.capacity, feats.shape[1]))
    attr[: sub.size] = feats[list(sub.node_ids)]
    return Subgraph(sub.center, sub.node_ids, sub.adjacency, attr, sub.size)


def assert_tensors_tile_flat(params):
    """Every named tensor, and the model's own tensor of that name, is the
    slice of params.flat at the running offset, and the slices tile it."""
    own = dict(zip(("input_map.weight", "input_map.bias"), params.input_map or ()))
    for l, layer in enumerate(params.layers):
        own[f"layers.{l}.adjacency"] = layer.adjacency
        own[f"layers.{l}.attributes"] = layer.attributes
        if layer.deep_weights is not None:
            own[f"layers.{l}.deep_weights"] = layer.deep_weights
    for j, (w, b) in enumerate(params.mlp):
        own[f"mlp.{j}.weight"], own[f"mlp.{j}.bias"] = w, b
    named = named_parameters(params)
    assert [name for name, _ in named] == list(own)
    base, offset = params.flat.__array_interface__["data"][0], 0
    for name, view in named:
        for arr in (view, own[name]):
            assert arr.shape == view.shape and arr.flags.c_contiguous, name
            assert arr.__array_interface__["data"][0] == base + 8 * offset, name
        offset += view.size
    assert params.flat.ndim == 1 and offset == params.flat.size
    for layer in params.layers:
        for filt in layer.filters:
            assert np.shares_memory(filt.adjacency, params.flat)
            assert np.shares_memory(filt.attributes, params.flat)


@pytest.fixture
def stack_builds(monkeypatch):
    """Every (graph, hops, k_max) passed to stack_subgraphs, in call order."""
    import kergnn.model

    builds = []
    build = kergnn.model.stack_subgraphs

    def counting(g, hops, k_max):
        builds.append((g, hops, k_max))
        return build(g, hops, k_max)

    monkeypatch.setattr(kergnn.model, "stack_subgraphs", counting)
    return builds


@pytest.fixture
def filter_builds(monkeypatch):
    """The filter attributes of every filter side the kernel builds, in call
    order: each kernels.filter_side call, the model's once per batch and a
    kernel call's own when it was given none, goes through
    kernels._filter_arrays."""
    import kergnn.kernels

    builds = []
    build = kergnn.kernels._filter_arrays

    def counting(attr_h, *args, **kwargs):
        builds.append(attr_h)
        return build(attr_h, *args, **kwargs)

    monkeypatch.setattr(kergnn.kernels, "_filter_arrays", counting)
    return builds


def brute_force_isomorphic(g1, g2):
    """Permutation search over <= 8 node graphs, respecting node labels."""
    if g1.num_nodes != g2.num_nodes:
        return False
    n = g1.num_nodes
    l1 = g1.node_labels if g1.node_labels is not None else np.zeros(n, dtype=int)
    l2 = g2.node_labels if g2.node_labels is not None else np.zeros(n, dtype=int)
    for perm in itertools.permutations(range(n)):
        perm = np.array(perm)
        if not np.array_equal(l1, l2[perm]):
            continue
        if np.array_equal(g1.adjacency, g2.adjacency[np.ix_(perm, perm)]):
            return True
    return False


def write_tudataset(directory, name, graphs, raw_graph_labels, node_labels=None,
                    node_attributes=None):
    """Write TUDataset files from adjacency matrices.

    graphs: list of (n, n) adjacency arrays; node_labels/node_attributes are
    flat lists over all nodes in graph order.
    """
    os.makedirs(directory, exist_ok=True)
    prefix = os.path.join(directory, name)
    edge_lines, indicator = [], []
    offset = 0
    for gid, adj in enumerate(graphs, start=1):
        n = adj.shape[0]
        for i in range(n):
            indicator.append(str(gid))
            for j in range(n):
                if adj[i, j]:
                    edge_lines.append(f"{offset + i + 1}, {offset + j + 1}")
        offset += n

    def dump(suffix, lines):
        with open(prefix + suffix, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    dump("_A.txt", edge_lines)
    dump("_graph_indicator.txt", indicator)
    dump("_graph_labels.txt", [str(x) for x in raw_graph_labels])
    if node_labels is not None:
        dump("_node_labels.txt", [str(x) for x in node_labels])
    if node_attributes is not None:
        dump("_node_attributes.txt", [", ".join(str(v) for v in row) for row in node_attributes])


def dataset_dir():
    """Directory holding real TUDataset folders, if the user provided one."""
    return os.environ.get("KERGNN_DATA_DIR", os.path.join(os.path.dirname(__file__), "data"))


def require_dataset(name):
    base = os.path.join(dataset_dir(), name)
    marker = os.path.join(base, f"{name}_A.txt")
    if not os.path.isfile(marker):
        pytest.skip(
            f"dataset {name} not available: place the TUDataset files under {base} "
            "or point KERGNN_DATA_DIR at a directory containing them"
        )
    return dataset_dir()
