import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kergnn.errors import CheckpointError, ConfigError
from kergnn.graphs import Graph, extract_subgraph
from kergnn.kernels import RWKernelConfig, rw_kernel, rw_kernel_oracle, uses_gram_form
import kergnn.model
from kergnn.model import (
    GraphFilter,
    KerGNNLayer,
    LayerSpec,
    ModelConfig,
    backward_batch,
    export_filters,
    forward_batch,
    init_params,
    layer_forward,
    load_checkpoint,
    model_forward,
    named_parameters,
    packed_chunks,
    predict_logits,
    save_checkpoint,
)
from kergnn.training import TrainConfig, _batch_step, softmax_cross_entropy

from conftest import (assert_tensors_tile_flat, hexagon, random_filter, random_graph, two_triangles,
                      with_attributes)


def small_config(**over):
    base = dict(
        attr_dim=2,
        num_classes=2,
        layers=(LayerSpec(num_filters=3, filter_nodes=3, k_max=6, hops=1),),
        walk_length=2,
        mlp_hidden=(4,),
    )
    base.update(over)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# Layer forward
# ---------------------------------------------------------------------------


def test_layer_forward_zero_features_give_zero():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 6, 0.5, d=2)
    params = init_params(small_config(), rng)
    out = layer_forward(g, np.zeros((6, 2)), params.layers[0])
    assert np.array_equal(out, np.zeros((6, 3)))


def test_layer_forward_single_node_p0_is_squared_dot():
    g = Graph(1, np.zeros((1, 1)), np.array([[2.0, -1.0]]))
    filt = GraphFilter(1, np.zeros((1, 1)), np.array([[0.5, 3.0]]))
    layer = KerGNNLayer([filt], RWKernelConfig(0), hops=1, k_max=1)
    out = layer_forward(g, g.attributes, layer)
    assert out[0, 0] == pytest.approx(np.dot([2.0, -1.0], [0.5, 3.0]) ** 2)


def test_layer_forward_separates_hexagon_from_triangles():
    # every hexagon subgraph is a 3-path, every two-triangles subgraph a
    # 3-clique; one random filter suffices to tell them apart
    rng = np.random.default_rng(1)
    filt = random_filter(rng, 3, 1)
    layer = KerGNNLayer([filt], RWKernelConfig(2), hops=1, k_max=10)
    out_hex = layer_forward(hexagon(), hexagon().attributes, layer)
    out_tri = layer_forward(two_triangles(), two_triangles().attributes, layer)
    assert abs(out_hex[0, 0] - out_tri[0, 0]) > 1e-6
    # node outputs agree with the direct-product oracle on the subgraphs
    sub_hex = extract_subgraph(hexagon(), 0, 1, 10)
    ref = rw_kernel_oracle(
        (filt.adjacency, filt.attributes),
        (sub_hex.adjacency[:3, :3], sub_hex.attributes[:3]),
        RWKernelConfig(2),
    )
    assert out_hex[0, 0] == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("variant", ["plain", "deep"])
def test_layer_forward_matches_scalar_kernel(variant):
    rng = np.random.default_rng(2)
    g = random_graph(rng, 7, 0.5, d=3)
    cfg = small_config(attr_dim=3, kernel_variant=variant, walk_length=3)
    params = init_params(cfg, rng)
    layer = params.layers[0]
    feats = rng.normal(size=(7, 3))
    out = layer_forward(g, feats, layer)
    for v in range(7):
        sub = with_attributes(extract_subgraph(g, v, layer.hops, layer.k_max), feats)
        for i, filt in enumerate(layer.filters):
            w = layer.deep_weights[i] if layer.kernel_cfg.is_deep else None
            assert out[v, i] == pytest.approx(rw_kernel(sub, filt, layer.kernel_cfg, w), rel=1e-9)


def test_layer_forward_width_mismatch():
    # any feature shape but (nodes, input width) is rejected: extra rows were
    # silently ignored, too few rows or a 1-D array raised IndexError
    rng = np.random.default_rng(3)
    g = random_graph(rng, 5, 0.5, d=2)
    params = init_params(small_config(), rng)
    for shape in [(5, 7), (4, 2), (6, 2), (5,)]:
        with pytest.raises(ValueError, match=re.escape(f"{shape} does not match (5, 2)")):
            layer_forward(g, np.zeros(shape), params.layers[0])


# ---------------------------------------------------------------------------
# Model forward
# ---------------------------------------------------------------------------


def test_model_without_layers_reads_out_attribute_sum():
    rng = np.random.default_rng(4)
    cfg = ModelConfig(attr_dim=1, num_classes=2, layers=(), mlp_hidden=(3,))
    params = init_params(cfg, rng)
    g = Graph(3, np.zeros((3, 3)), np.ones((3, 1)))
    logits, feats = model_forward(g, params)
    assert len(feats) == 1
    assert feats[0].sum(axis=0) == pytest.approx([3.0])
    assert logits.shape == (2,)


def test_model_forward_deterministic():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 6, 0.5, d=2)
    params = init_params(small_config(), np.random.default_rng(77))
    l1, _ = model_forward(g, params)
    l2, _ = model_forward(g, params)
    assert np.array_equal(l1, l2)


def test_new_graph_never_gets_a_freed_graphs_stacks():
    # a cache keyed on id(g) alone served a freed graph's stacks to the next
    # graph allocated at its address: same shapes, silently wrong logits.
    # Stacks live on the graph, so a new graph matches a fresh copy of it
    params = init_params(small_config(), np.random.default_rng(3))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model_forward(random_graph(rng, 8, 0.2, d=2), params)  # dropped at once
        dense = random_graph(rng, 8, 0.9, d=2)
        fresh = Graph(dense.num_nodes, dense.adjacency, dense.attributes)
        assert np.array_equal(model_forward(dense, params)[0], model_forward(fresh, params)[0])


def test_same_seed_same_parameters():
    p1 = init_params(small_config(), np.random.default_rng(123))
    p2 = init_params(small_config(), np.random.default_rng(123))
    for (n1, a1), (n2, a2) in zip(named_parameters(p1), named_parameters(p2)):
        assert n1 == n2
        assert np.array_equal(a1, a2)


def test_permutation_invariance_of_logits():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(4, 9))
        g = random_graph(rng, n, 0.5, d=2)
        cfg = small_config(layers=(LayerSpec(3, 3, k_max=n, hops=1),))
        params = init_params(cfg, rng)
        base, _ = model_forward(g, params)
        for _ in range(20):
            perm = rng.permutation(n)
            permuted, _ = model_forward(g.relabeled(perm), params)
            assert np.max(np.abs(permuted - base)) <= 1e-10


def test_zero_input_collapse():
    rng = np.random.default_rng(7)
    g = Graph(5, random_graph(rng, 5, 0.6).adjacency, np.zeros((5, 2)))
    params = init_params(small_config(), rng)
    logits, feats = model_forward(g, params)
    for f in feats[1:]:
        assert np.array_equal(f, np.zeros_like(f))
    # forwarding a zero readout through the MLP by hand: only biases matter
    h = np.zeros(params.mlp[0][0].shape[0])
    for j, (w, b) in enumerate(params.mlp):
        h = h @ w + b
        if j < len(params.mlp) - 1:
            h = np.maximum(h, 0.0)
    assert logits == pytest.approx(h, abs=1e-15)


def test_readout_width_matches_config():
    rng = np.random.default_rng(8)
    cfg = ModelConfig(
        attr_dim=3, num_classes=4,
        layers=(LayerSpec(5, 3, 6, 1), LayerSpec(2, 4, 6, 1)),
        input_map_dim=7, mlp_hidden=(6, 5),
    )
    params = init_params(cfg, rng)
    g = random_graph(rng, 6, 0.5, d=3)
    logits, feats = model_forward(g, params)
    assert [f.shape[1] for f in feats] == [7, 5, 2]
    assert cfg.readout_dim() == 7 + 5 + 2
    assert params.mlp[0][0].shape[0] == cfg.readout_dim()
    assert logits.shape == (4,)


def test_attribute_width_mismatch_rejected():
    rng = np.random.default_rng(9)
    params = init_params(small_config(), rng)
    g = random_graph(rng, 4, 0.5, d=5)
    with pytest.raises(ValueError):
        model_forward(g, params)


def test_post_relu_clamps_layer_outputs():
    rng = np.random.default_rng(10)
    g = random_graph(rng, 6, 0.5, d=2)
    params = init_params(small_config(), np.random.default_rng(11))
    relu_params = init_params(small_config(post_relu=True), np.random.default_rng(11))
    _, feats = model_forward(g, params)
    _, feats_relu = model_forward(g, relu_params)
    assert np.array_equal(feats_relu[1], np.maximum(feats[1], 0.0))


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ModelConfig(attr_dim=0, num_classes=2, layers=())
    with pytest.raises(ConfigError):
        small_config(dropout=1.0)
    with pytest.raises(ConfigError):
        small_config(layers=(LayerSpec(0, 3, 6, 1),))


@pytest.mark.parametrize("over", [
    {"mlp_hidden": (7.9,)}, {"mlp_hidden": (True,)},
    {"layers": (LayerSpec(2.5, 3, 6, 1),)}, {"layers": (LayerSpec(3, 3, 6.0, 1),)},
])
def test_config_sizes_must_be_integers(over):
    # mlp_hidden (7.9,) used to become (7,); a 2.5-filter layer failed in numpy
    with pytest.raises(ConfigError, match="integers"):
        small_config(**over)


@pytest.mark.parametrize("over", [{"num_filters": [2.5]}, {"filter_nodes": ["3"]}, {"mlp_hidden": 7.9}])
def test_train_config_model_config_sizes_must_be_integers(over):
    # model_config is called by library code without validate(); [2.5] used to
    # build a 2-filter layer there
    with pytest.raises(ConfigError, match="integers"):
        TrainConfig(**over).model_config(attr_dim=2, num_classes=2)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_named_parameters_are_the_stacked_layer_tensors():
    cfg = small_config(kernel_variant="deep", input_map_dim=3,
                       layers=(LayerSpec(3, 4, 6, 1), LayerSpec(2, 3, 6, 1)))
    params = init_params(cfg, np.random.default_rng(19))
    names = [name for name, _ in named_parameters(params)]
    assert names == ["input_map.weight", "input_map.bias",
                     "layers.0.adjacency", "layers.0.attributes", "layers.0.deep_weights",
                     "layers.1.adjacency", "layers.1.attributes", "layers.1.deep_weights",
                     "mlp.0.weight", "mlp.0.bias", "mlp.1.weight", "mlp.1.bias"]
    layer = params.layers[0]
    assert layer.adjacency.shape == (3, 4, 4)
    assert layer.attributes.shape == (3, 4, 3)
    assert layer.deep_weights.shape == (3, 4, 6)


def test_every_tensor_is_a_view_of_the_flat_vector(tmp_path):
    # a tensor rebound instead of written in place would drop out of the
    # optimizer and the checkpoint without an error
    cfg = small_config(kernel_variant="deep", input_map_dim=3,
                       layers=(LayerSpec(3, 4, 6, 1), LayerSpec(2, 3, 5, 2)))
    params = init_params(cfg, np.random.default_rng(24))
    assert_tensors_tile_flat(params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), params, seed=0)
    loaded, _, _ = load_checkpoint(str(path))
    assert_tensors_tile_flat(loaded)
    assert loaded.flat.tobytes() == params.flat.tobytes()
    # a gradient vector is named by views of that vector in the same layout
    grad = np.arange(params.flat.size, dtype=np.float64)
    views = named_parameters(params, grad)
    assert all(np.shares_memory(view, grad) for _, view in views)
    assert np.concatenate([view.ravel() for _, view in views]).tobytes() == grad.tobytes()


def test_filters_are_views_of_the_layer_tensors():
    params = init_params(small_config(), np.random.default_rng(20))
    layer = params.layers[0]
    filt = layer.filters[1]
    assert filt.n_nodes == 3
    filt.adjacency[0, 2] = filt.adjacency[2, 0] = 0.25
    filt.attributes[1] = 7.0
    assert layer.adjacency[1, 0, 2] == layer.adjacency[1, 2, 0] == 0.25
    assert np.array_equal(layer.attributes[1, 1], [7.0, 7.0])


def test_layer_copies_filters_into_stacked_tensors():
    rng = np.random.default_rng(21)
    filters = [random_filter(rng, 4, 2) for _ in range(3)]
    layer = KerGNNLayer(filters, RWKernelConfig(2), hops=1, k_max=5)
    for i, filt in enumerate(filters):
        assert np.array_equal(layer.adjacency[i], filt.adjacency)
        assert np.array_equal(layer.attributes[i], filt.attributes)
    assert (layer.out_dim, layer.in_dim) == (3, 2)
    layer.validate()


def test_layer_validate_rejects_bad_filters():
    rng = np.random.default_rng(22)
    layer = KerGNNLayer([random_filter(rng, 3, 2) for _ in range(2)], RWKernelConfig(1),
                        hops=1, k_max=4)
    layer.adjacency[1, 0, 1] += 1.0
    with pytest.raises(ConfigError, match="symmetric"):
        layer.validate()
    layer.adjacency[1, 0, 1] -= 1.0
    layer.adjacency[0, 2, 2] = 0.5
    with pytest.raises(ConfigError, match="diagonal"):
        layer.validate()
    deep = KerGNNLayer([random_filter(rng, 3, 2)], RWKernelConfig(1, variant="deep"),
                       hops=1, k_max=4, deep_weights=[np.ones((3, 5))])
    with pytest.raises(ConfigError, match="deep weights"):
        deep.validate()


def test_init_shapes_and_ranges():
    rng = np.random.default_rng(12)
    cfg = ModelConfig(attr_dim=32, num_classes=2,
                      layers=(LayerSpec(num_filters=4, filter_nodes=8, k_max=10, hops=1),),
                      kernel_variant="deep")
    params = init_params(cfg, rng)
    for filt in params.layers[0].filters:
        assert filt.attributes.shape == (8, 32)
        assert np.array_equal(filt.adjacency, filt.adjacency.T)
        assert np.all(np.diag(filt.adjacency) == 0.0)
        off_diag = filt.adjacency[np.triu_indices(8, 1)]
        assert np.all(off_diag >= 0.0) and np.all(off_diag < 1.0)
    for w in params.layers[0].deep_weights:
        assert np.array_equal(w, np.ones((8, 10)))


# ---------------------------------------------------------------------------
# End-to-end gradients
# ---------------------------------------------------------------------------


def micro_dataset(rng):
    # attributes scaled down so two stacked kernel layers keep logits in a
    # range where the softmax is not saturated (FD needs visible gradients)
    g0 = random_graph(rng, 5, 0.5, d=2, label=0)
    g1 = random_graph(rng, 6, 0.6, d=2, label=1)
    return [
        Graph(g.num_nodes, g.adjacency, 0.1 * g.attributes, graph_label=g.graph_label)
        for g in (g0, g1)
    ]


FD_CASES = {
    variant: dict(kernel_variant=variant, input_map_dim=3,
                  layers=(LayerSpec(2, 3, 6, 1), LayerSpec(2, 2, 6, 1)))
    for variant in ("plain", "deep")
}
FD_CASES["summed"] = dict(layers=(LayerSpec(2, 3, 6, 1),))  # one plain layer on the raw attributes


@pytest.mark.parametrize("case", sorted(FD_CASES))
def test_end_to_end_gradients_match_finite_differences(case):
    rng = np.random.default_rng(13)
    graphs = micro_dataset(rng)
    params = init_params(small_config(**FD_CASES[case]), rng)
    assert (kergnn.model._layer_forms(params) == ["summed"]) == (case == "summed")

    labels = np.array([g.graph_label for g in graphs])

    def loss_only():
        return softmax_cross_entropy(forward_batch(graphs, params).logits, labels)[0].mean()

    fwd = forward_batch(graphs, params)
    dlogits = softmax_cross_entropy(fwd.logits, labels)[1] / len(graphs)
    grads = dict(named_parameters(params, backward_batch(fwd, dlogits, params)))
    h = 1e-6
    worst = 0.0
    for name, arr in named_parameters(params):
        symmetric = name.endswith("adjacency")
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            # adjacency tensors are (filters, n, n): mirror over the last two axes
            if symmetric and idx[-2] >= idx[-1]:
                continue
            orig = arr[idx]
            if symmetric:
                mirror = idx[:-2] + (idx[-1], idx[-2])
                arr[idx] = arr[mirror] = orig + h
                up = loss_only()
                arr[idx] = arr[mirror] = orig - h
                down = loss_only()
                arr[idx] = arr[mirror] = orig
                analytic = grads[name][idx] + grads[name][mirror]
            else:
                arr[idx] = orig + h
                up = loss_only()
                arr[idx] = orig - h
                down = loss_only()
                arr[idx] = orig
                analytic = grads[name][idx]
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6))
    assert worst <= 1e-3


# ---------------------------------------------------------------------------
# Packed batches
# ---------------------------------------------------------------------------


def empty_graph(d, label=None):
    return Graph(0, np.zeros((0, 0)), np.zeros((0, d)), graph_label=label)


def test_zero_node_graph_reads_out_zero():
    # a 0-node graph used to fail in a numpy reshape; packed, np.add.reduceat
    # would have given it its neighbour's first feature row
    rng = np.random.default_rng(21)
    cfg = small_config(input_map_dim=3, layers=(LayerSpec(3, 3, 6, 1), LayerSpec(2, 2, 6, 2)))
    params = init_params(cfg, rng)
    empty = empty_graph(2)
    others = [random_graph(rng, n, 0.5, d=2) for n in (4, 6)]

    alone, feats = model_forward(empty, params)
    assert [f.shape for f in feats] == [(0, 3), (0, 3), (0, 2)]
    assert layer_forward(empty, np.zeros((0, 3)), params.layers[0]).shape == (0, 3)

    batch = [empty, others[0], empty, others[1], empty]
    fwd = forward_batch(batch, params)
    assert np.array_equal(fwd.mlp_inputs[0][[0, 2, 4]], np.zeros((3, cfg.readout_dim())))
    for b in (0, 2, 4):
        assert np.allclose(fwd.logits[b], alone, rtol=1e-12, atol=0)
    assert np.allclose(fwd.logits[[1, 3]], predict_logits(others, params), rtol=1e-12, atol=0)


@pytest.mark.parametrize("case", ["gram", "hadamard", "deep"])
def test_empty_batch_gives_no_logits(case):
    # both raised numpy's "need at least one array to concatenate"
    cfg = small_config(num_classes=3, **BATCH_CASES[case])
    params = init_params(cfg, np.random.default_rng(0))
    assert predict_logits([], params).shape == (0, 3)
    fwd = forward_batch([], params)
    assert fwd.logits.shape == (0, 3)
    grads = dict(named_parameters(params, backward_batch(fwd, np.zeros((0, 3)), params)))
    for name, arr in named_parameters(params):
        assert np.array_equal(grads[name], np.zeros_like(arr)), name


def _stack_path_forms(params):
    """_layer_forms without the "summed" form: every layer on its subgraph stack."""
    return [kergnn.model._stack_form(layer) for layer in params.layers]


def test_cached_maps_equal_the_stack_path(monkeypatch):
    # a lone layer's cached summed Gram maps against the stack path on copies
    # of the same graphs: 0-node graphs in the batch, P slices of the maps of
    # a longer walk, and lambdas that differ from those of the first forward.
    # The "summed" form sums its maps over each graph's nodes before the
    # filters read them, where the stack path sums the node values after:
    # another summation order, so logits and gradients agree to 1e-12 relative
    rng = np.random.default_rng(12)
    graphs = [random_graph(rng, n, 0.5, d=2, label=int(rng.integers(2))) for n in (5, 0, 7, 3, 0)]
    graphs.insert(0, empty_graph(2, label=0))
    cfgs = [small_config(walk_length=3),
            small_config(walk_length=1),
            small_config(walk_length=2, lambdas=(0.5, 0.25, 2.0)),
            small_config(walk_length=3, lambdas=(1.0, 0.1, 0.01, 0.001))]
    labels = np.array([g.graph_label for g in graphs])
    for cfg in cfgs:
        params = init_params(cfg, np.random.default_rng(cfg.walk_length))
        assert kergnn.model._layer_forms(params) == ["summed"]
        copies = [dataclasses.replace(g) for g in graphs]
        results = []
        for batch in (graphs, copies):
            fwd = forward_batch(batch, params)
            dlogits = softmax_cross_entropy(fwd.logits, labels)[1]
            results.append((fwd.logits, backward_batch(fwd, dlogits, params)))
            monkeypatch.setattr(kergnn.model, "_layer_forms", _stack_path_forms)
        monkeypatch.undo()
        (got, got_grad), (want, want_grad) = results
        assert _rel(got, want, np.max(np.abs(want))) <= 1e-12
        for (name, g), (_, w) in zip(named_parameters(params, got_grad),
                                     named_parameters(params, want_grad)):
            assert _rel(g, w, np.max(np.abs(w))) <= 1e-12, name
        assert not any(c.gram_maps for c in copies)
    # the first forward, P = 3, set the steps: one summed (P+1, d^2) entry
    assert all(g.gram_maps[(1, 6)].shape == (4, 4) for g in graphs)


def test_summed_layer_keeps_per_node_values_for_introspection():
    # the packed forward of a lone layer reads out <sum_v phi_G(v), phi_H>;
    # model_forward still returns each node's value, from the stack path
    rng = np.random.default_rng(8)
    g = random_graph(rng, 7, 0.5, d=2)
    params = init_params(small_config(), rng)
    assert kergnn.model._layer_forms(params) == ["summed"]
    fwd = forward_batch([g], params)
    assert fwd.feats[1].shape == (1, 3) and fwd.stacks == [None]
    logits, feats = model_forward(g, params)
    assert logits.tobytes() == fwd.logits[0].tobytes()
    assert np.array_equal(feats[1], layer_forward(g, g.attributes, params.layers[0]))
    assert _rel(feats[1].sum(axis=0), fwd.feats[1][0], np.max(np.abs(fwd.feats[1]))) <= 1e-12


def test_summed_layer_packs_whole_batches(monkeypatch):
    # a "summed" layer costs its (P+1) d^2 map row per graph, whatever the
    # graph's size: ten graphs the "gram" form puts in a chunk each are one
    # chunk, until the bound is ten rows
    rng = np.random.default_rng(22)
    graphs = [random_graph(rng, 8, 0.4, d=2, label=0) for _ in range(10)]
    lone = init_params(small_config(), rng)
    relu = init_params(small_config(post_relu=True), rng)  # a clamped layer is not linear in its maps
    assert kergnn.model._layer_forms(lone) == ["summed"]
    assert kergnn.model._layer_forms(relu) == ["gram"]
    row = 3 * 2 * 2  # (P+1) d^2
    monkeypatch.setattr(kergnn.model, "_CHUNK_ENTRIES", 10 * row + 1)
    assert list(packed_chunks(graphs, lone)) == [(0, 10)]
    assert list(packed_chunks(graphs, relu)) == [(i, i + 1) for i in range(10)]
    monkeypatch.setattr(kergnn.model, "_CHUNK_ENTRIES", 10 * row)
    assert list(packed_chunks(graphs, lone)) == [(0, 9), (9, 10)]


def _rel(got, want, scale):
    return float(np.max(np.abs(got - want), initial=0.0)) / max(scale, 1e-300)


# the three ways a layer can run: plain Gram form, plain Hadamard form (one-hot
# features wider than the filters), and the deep variant
BATCH_CASES = {
    "gram": dict(attr_dim=2, layers=(LayerSpec(3, 3, 5, 1), LayerSpec(3, 3, 5, 1))),
    "hadamard": dict(attr_dim=8, layers=(LayerSpec(2, 2, 4, 1),)),
    "deep": dict(attr_dim=2, layers=(LayerSpec(2, 3, 5, 2), LayerSpec(2, 2, 5, 1)),
                 kernel_variant="deep", input_map_dim=3),
}


@st.composite
def labeled_graph_lists(draw, d, one_hot):
    """1-5 labeled graphs of 0-7 nodes; one-hot or small normal attributes."""
    graphs = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 7))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        upper = np.triu(rng.random((n, n)) < 0.5, k=1).astype(float)
        attrs = np.eye(d)[rng.integers(0, d, n)] if one_hot else 0.5 * rng.normal(size=(n, d))
        graphs.append(Graph(n, upper + upper.T, attrs, graph_label=int(rng.integers(0, 3))))
    return graphs


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_packed_batch_equals_batches_of_one(case):
    spec = BATCH_CASES[case]
    for layer in init_params(small_config(**spec), np.random.default_rng(0)).layers:
        f, n, d = layer.attributes.shape
        assert uses_gram_form(layer.kernel_cfg, f, n, d, layer.k_max) == (case == "gram")

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(graphs=labeled_graph_lists(spec["attr_dim"], case == "hadamard"),
           seed=st.integers(0, 2**32 - 1), post_relu=st.booleans())
    def check(graphs, seed, post_relu):
        cfg = small_config(num_classes=3, dropout=0.25, post_relu=post_relu, **spec)
        params = init_params(cfg, np.random.default_rng(seed))
        singles = np.array([model_forward(g, params)[0] for g in graphs])

        # the dropout seeds _batch_step draws, one per graph, fix each graph's masks
        drop_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=len(graphs))
        single_grads = []
        single_correct = 0
        for g, s in zip(graphs, drop_seeds):
            fwd = forward_batch([g], params, [np.random.default_rng(s)])
            dlogits = softmax_cross_entropy(fwd.logits, np.array([g.graph_label]))[1]
            single_grads.append(dict(named_parameters(params, backward_batch(fwd, dlogits, params))))
            single_correct += int(np.argmax(fwd.logits[0]) == g.graph_label)

        def packed():
            _, grad, correct = _batch_step(graphs, params, np.random.default_rng(seed))
            assert correct == single_correct
            return predict_logits(graphs, params), dict(named_parameters(params, grad))

        with pytest.MonkeyPatch.context() as mp:
            assert list(packed_chunks(graphs, params)) == [(0, len(graphs))]
            results = [packed()]
            mp.setattr(kergnn.model, "_CHUNK_ENTRIES", 0)  # every graph a chunk of its own
            assert list(packed_chunks(graphs, params)) == [(i, i + 1) for i in range(len(graphs))]
            results.append(packed())

        for logits, grads in results:
            assert _rel(logits, singles, np.max(np.abs(singles))) <= 1e-12
            for name, _ in named_parameters(params):
                terms = np.array([gi[name] for gi in single_grads])
                assert _rel(grads[name], terms.mean(axis=0), np.max(np.abs(terms))) <= 1e-12, name

    check()


@pytest.mark.parametrize("variant", ["plain", "deep"])
def test_chunks_keep_real_slot_entries_under_the_bound(monkeypatch, variant):
    # a chunk of several graphs holds under _CHUNK_ENTRIES float64 entries:
    # the (R, f n) tensors its Hadamard layers keep, 2 f n per real slot, plus
    # (P+1)(d^2 + k d) + k^2 per node of a Gram layer; one more graph would
    # reach the bound, so padded slots are not counted
    monkeypatch.setattr(kergnn.model, "_CHUNK_ENTRIES", 3000)
    rng = np.random.default_rng(21)
    graphs = [random_graph(rng, n, 0.3, d=2, label=0) for n in rng.integers(0, 9, size=40)]
    cfg = small_config(kernel_variant=variant, layers=(LayerSpec(8, 2, 4, 1), LayerSpec(2, 2, 4, 2)))
    params = init_params(cfg, rng)
    forms = kergnn.model._layer_forms(params)
    assert forms == (["gram", "hadamard"] if variant == "plain" else ["hadamard", "hadamard"])

    def entries(batch):
        fwd = forward_batch(batch, params)
        total = 0
        for layer, form, stack, (cache, _) in zip(params.layers, forms, fwd.stacks, fwd.layer_caches):
            f, n, d = layer.attributes.shape
            if form == "hadamard":
                assert cache.s.shape == cache.msum.shape == (len(stack.nodes), f * n)
                total += cache.s.size + cache.msum.size
            else:
                k, steps = layer.k_max, layer.kernel_cfg.P + 1
                total += fwd.offsets[-1] * (steps * (d * d + k * d) + k * k)
        return total

    chunks = list(packed_chunks(graphs, params))
    assert [start for start, _ in chunks] == [0] + [stop for _, stop in chunks[:-1]]
    assert chunks[-1][1] == len(graphs)
    assert sum(stop - start > 1 for start, stop in chunks) > 1
    for start, stop in chunks:
        if stop - start > 1:
            assert entries(graphs[start:stop]) < kergnn.model._CHUNK_ENTRIES
        if stop < len(graphs):
            assert entries(graphs[start:stop + 1]) >= kergnn.model._CHUNK_ENTRIES


# ---------------------------------------------------------------------------
# Filter export and checkpoints
# ---------------------------------------------------------------------------


def test_export_prunes_negative_adjacency(tmp_path):
    rng = np.random.default_rng(14)
    params = init_params(small_config(layers=(LayerSpec(1, 3, 6, 1),)), rng)
    params.layers[0].filters[0].adjacency[:] = -np.ones((3, 3)) + np.eye(3)
    written = export_filters(params, str(tmp_path))
    assert len(written) == 1
    text = (tmp_path / "layer1_filter0.dot").read_text()
    assert "--" not in text
    assert text.count("[width=") == 3


def test_export_writes_positive_edges(tmp_path):
    rng = np.random.default_rng(15)
    params = init_params(small_config(layers=(LayerSpec(1, 3, 6, 1),)), rng)
    filt = params.layers[0].filters[0]
    filt.adjacency[:] = 0.0
    filt.adjacency[0, 1] = filt.adjacency[1, 0] = 0.7
    export_filters(params, str(tmp_path))
    text = (tmp_path / "layer1_filter0.dot").read_text()
    edge_lines = [ln for ln in text.splitlines() if "--" in ln]
    assert edge_lines == ["  0 -- 1 [weight=0.7];"]


def test_export_one_file_per_filter_per_layer(tmp_path):
    rng = np.random.default_rng(16)
    cfg = small_config(layers=(LayerSpec(2, 3, 6, 1), LayerSpec(3, 2, 6, 1)))
    params = init_params(cfg, rng)
    written = export_filters(params, str(tmp_path))
    assert len(written) == 5


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    cfg = small_config(kernel_variant="deep", input_map_dim=4)
    params = init_params(cfg, rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), params, seed=42, extra={"note": "test"})
    loaded, seed, extra = load_checkpoint(str(path))
    assert seed == 42
    assert extra == {"note": "test"}
    assert loaded.config == params.config
    for (n1, a1), (n2, a2) in zip(named_parameters(params), named_parameters(loaded)):
        assert n1 == n2
        assert np.array_equal(a1, a2)
    g = random_graph(np.random.default_rng(0), 5, 0.5, d=2)
    assert np.array_equal(model_forward(g, params)[0], model_forward(g, loaded)[0])


def test_checkpoint_bytes_match_json_dump(tmp_path):
    # save_checkpoint writes json.dumps' text; json.dump, its former writer,
    # streams the same payload through another encoder
    params = init_params(small_config(kernel_variant="deep", input_map_dim=4), np.random.default_rng(19))
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), params, seed=3, extra={"fold": 1, "val_acc": 0.75})
    payload = {
        "format_version": kergnn.model.CHECKPOINT_VERSION,
        "kind": "kergnn-checkpoint",
        "config": dataclasses.asdict(params.config),
        "seed": 3,
        "extra": {"fold": 1, "val_acc": 0.75},
        "tensors": {name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                    for name, arr in named_parameters(params)},
    }
    reference = tmp_path / "reference.ckpt"
    with open(reference, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    assert path.read_bytes() == reference.read_bytes()


def test_checkpoint_version_mismatch(tmp_path):
    rng = np.random.default_rng(18)
    params = init_params(small_config(), rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), params, seed=0)
    payload = json.loads(path.read_text())
    payload["format_version"] = 999
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("name,index,value,message", [
    ("layers.0.adjacency", 1, 5.0, "symmetric"),  # entry (0, 0, 1); (0, 1, 0) keeps its value
    ("layers.0.adjacency", 0, 0.5, "diagonal"),  # entry (0, 0, 0)
    ("layers.0.attributes", 0, float("nan"), "non-finite"),
    ("mlp.0.bias", 0, float("inf"), "non-finite"),
])
def test_checkpoint_rejects_invalid_tensors(tmp_path, name, index, value, message):
    params = init_params(small_config(), np.random.default_rng(23))
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), params, seed=0)
    payload = json.loads(path.read_text())
    payload["tensors"][name]["data"][index] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(str(path))


def test_checkpoint_corrupted(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("{not json")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
    path.write_text('{"kind": "something-else"}')
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
