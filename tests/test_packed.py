"""The packed view of a dataset (graphs.PackedGraphs) against per-graph references.

A batch is an index array into the root dataset's view. Its subgraph stack is
a gather from the one stack over all graphs, its summed Gram map rows a fancy
index, and its chunk bounds a cut of the cumulative cost; each must equal what
the graphs give one by one: SubgraphStack.concatenate of their own stacks,
gram_maps(...).sum(0) of each, and the greedy loop kept below as the
reference. Datasets, subsets of subsets and orders are random.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kergnn.model
from kergnn.graphs import Dataset, Graph, SubgraphStack, stack_subgraphs
from kergnn.kernels import gram_maps
from kergnn.model import LayerSpec, ModelConfig, init_params, packed_chunks


@st.composite
def datasets_and_batches(draw):
    """A dataset of 1-9 graphs of 0-9 nodes (weights of both signs, so a
    -0.0 or a wrong gather shows), and an index batch into it taken through
    two nested subsets in shuffled order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    graphs = []
    for _ in range(rng.integers(1, 10)):
        n = int(rng.integers(0, 10))
        upper = np.triu(rng.random((n, n)) < rng.random(), k=1)
        upper = upper * rng.choice([-1.0, 0.5, 1.0], size=(n, n))
        graphs.append(Graph(n, upper + upper.T, rng.normal(size=(n, d)), graph_label=0))
    ds = Dataset("random", graphs, 1, d)
    outer = ds.subset(rng.permutation(len(ds))[:rng.integers(1, len(ds) + 1)])
    inner = outer.subset(rng.integers(0, len(outer), size=rng.integers(0, 2 * len(outer) + 1)))
    return ds, inner, draw(st.integers(1, 3)), draw(st.integers(1, 7))


def layer_of(d, hops, k_max, walk_length=2):
    cfg = ModelConfig(attr_dim=d, num_classes=2, layers=(LayerSpec(2, 3, k_max, hops),),
                      walk_length=walk_length)
    return init_params(cfg, np.random.default_rng(0)).layers[0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=datasets_and_batches())
def test_batch_stack_equals_the_concatenated_graph_stacks(case):
    ds, batch, hops, k_max = case
    want = SubgraphStack.concatenate([stack_subgraphs(g, hops, k_max) for g in batch.graphs], k_max)
    got = kergnn.model._packed_stack(ds.packed, layer_of(ds.attr_dim, hops, k_max)).take(batch.index)
    def arrays(s):
        return {"nodes": s.nodes, "adjacency": s.adjacency, "sizes": s.sizes, "offsets": s.offsets,
                "real_offsets": s.real_offsets, "real": s.layout.real, "starts": s.layout.starts,
                "slots": s.layout.slots}

    for (name, a), b in zip(arrays(got).items(), arrays(want).values()):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=datasets_and_batches(), walk_length=st.integers(0, 3))
def test_summed_rows_equal_each_graphs_own_maps(case, walk_length):
    ds, batch, hops, k_max = case
    layer = layer_of(ds.attr_dim, hops, k_max, walk_length)
    rows = kergnn.model._summed_maps(ds.packed, layer)[batch.index]
    assert rows.shape == (len(batch), walk_length + 1, ds.attr_dim ** 2)
    for row, g in zip(rows, batch.graphs):
        stack = stack_subgraphs(g, hops, k_max)
        want = gram_maps(stack.gather(g.attributes), stack.adjacency, walk_length).sum(axis=0)
        assert row.tobytes() == want.tobytes()
    assert ds.packed.attr_sums[batch.index].tobytes() == np.array(
        [np.add.reduceat(g.attributes, [0])[0] if g.num_nodes else np.zeros(ds.attr_dim)
         for g in batch.graphs]).reshape(len(batch), ds.attr_dim).tobytes()


def greedy_chunks(graphs, params, bound):
    """The reference: one graph at a time, a new chunk at the first graph
    that brings the running count of entries to the bound."""
    per_graph, per_node, per_real = kergnn.model._chunk_costs(params, kergnn.model._layer_forms(params))
    chunks, start, entries = [], 0, 0
    for i, g in enumerate(graphs):
        added = per_graph + g.num_nodes * per_node
        for layer, cost in per_real:
            added += cost * len(stack_subgraphs(g, layer.hops, layer.k_max).nodes)
        if i > start and entries + added >= bound:
            chunks.append((start, i))
            start, entries = i, 0
        entries += added
    if start < len(graphs):
        chunks.append((start, len(graphs)))
    return chunks


# a lone "summed" layer, a "gram" and a "hadamard" layer, and the deep variant
CHUNK_MODELS = {
    "summed": dict(layers=(LayerSpec(2, 3, 4, 1),)),
    "gram-hadamard": dict(layers=(LayerSpec(8, 2, 4, 1), LayerSpec(2, 2, 4, 2))),
    "deep": dict(layers=(LayerSpec(2, 3, 5, 2),), kernel_variant="deep"),
}


@pytest.mark.parametrize("model", sorted(CHUNK_MODELS))
def test_chunks_equal_the_greedy_loop(monkeypatch, model):
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=datasets_and_batches(), bound=st.integers(0, 4000))
    def check(case, bound):
        ds, batch, _, _ = case
        cfg = ModelConfig(attr_dim=ds.attr_dim, num_classes=2, **CHUNK_MODELS[model])
        params = init_params(cfg, np.random.default_rng(1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kergnn.model, "_CHUNK_ENTRIES", bound)
            want = greedy_chunks(batch.graphs, params, bound)
            assert packed_chunks(batch, params) == want
            assert packed_chunks(list(batch.graphs), params) == want

    check()
