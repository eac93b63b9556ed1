import dataclasses
from collections import Counter

import numpy as np
import pytest

import kergnn.model
import kergnn.training
from kergnn.errors import ConfigError, TrainingError
from kergnn.graphs import Dataset, Graph, stack_subgraphs
from kergnn.kernels import gram_maps
from kergnn.model import (LayerSpec, ModelConfig, forward_batch, init_params, layer_forward, model_forward,
                          named_parameters, predict_logits)
from kergnn.training import (
    Adam,
    TrainConfig,
    cross_validate,
    evaluate,
    grid_search,
    learning_rate_at,
    softmax_cross_entropy,
    stratified_kfold,
    stratified_split,
    train_fold,
    _batch_step,
    _clip_grads,
)

from conftest import assert_tensors_tile_flat, complete_graph, path_graph, random_graph


def micro_pair():
    tri = complete_graph(3, label=0)
    path = path_graph(3, label=1)
    return Dataset("micro", [tri, path], 2, 1)


def cone_graph(neighbor_edges, label, attr=1.0):
    # center 0 adjacent to 1..4 plus two edges among the neighbors; the two
    # variants below have identical subgraph sizes and edge counts (so walk
    # statistics up to length 1 agree for every filter) but different
    # two-step structure
    adj = np.zeros((5, 5))
    for v in range(1, 5):
        adj[0, v] = adj[v, 0] = 1.0
    for a, b in neighbor_edges:
        adj[a, b] = adj[b, a] = 1.0
    return Graph(5, adj, np.full((5, 1), attr), graph_label=label)


def cone_pair(attr=1.0):
    ga = cone_graph([(1, 2), (3, 4)], 0, attr)
    gb = cone_graph([(1, 2), (2, 3)], 1, attr)
    return ga, gb


def cone_dataset():
    # several attribute scales so optimization has footholds at multiple
    # magnitudes; each pair is still exactly degenerate at walk length 1
    graphs = []
    for c in (0.10, 0.15, 0.20, 0.25):
        graphs.extend(cone_pair(c))
    return Dataset("cones", graphs, 2, 1)


def tiny_cfg(**over):
    base = dict(lr=0.02, epochs=30, batch_size=4, seed=0, num_layers=1,
                num_filters=4, filter_nodes=3, k_max=5, hops=1, walk_length=2,
                mlp_hidden=(8,), dropout=0.0)
    base.update(over)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------


def test_adam_constant_gradient_hand_computed():
    # with g = 1 every step reduces the parameter by lr/(1 + eps) exactly:
    # m_hat = 1 and v_hat = 1 at every step after bias correction
    cfg = ModelConfig(attr_dim=1, num_classes=1, layers=(), mlp_hidden=())
    params = init_params(cfg, np.random.default_rng(0))
    (name, arr) = named_parameters(params)[0]  # mlp.0.weight, shape (1, 1)
    arr[:] = 1.0
    opt = Adam(params, beta1=0.9, beta2=0.999, eps=1e-8)
    grad = np.ones_like(params.flat)
    opt.step(grad, lr=0.1)
    assert arr[0, 0] == pytest.approx(1.0 - 0.1 / (1 + 1e-8), abs=1e-15)
    opt.step(grad, lr=0.1)
    assert arr[0, 0] == pytest.approx(1.0 - 2 * (0.1 / (1 + 1e-8)), abs=1e-12)


def deep_mapped_params(seed):
    cfg = ModelConfig(attr_dim=2, num_classes=3, kernel_variant="deep", input_map_dim=3,
                      layers=(LayerSpec(3, 4, 5, 1), LayerSpec(2, 3, 5, 2)), mlp_hidden=(4,))
    return init_params(cfg, np.random.default_rng(seed))


def test_adam_step_equals_the_per_tensor_update():
    # the per-tensor loop Adam ran before its state became two vectors: the
    # same elementwise operations, so the same bytes
    rng = np.random.default_rng(6)
    params = deep_mapped_params(6)
    beta1, beta2, eps = 0.8, 0.99, 1e-6
    ref = {name: arr.copy() for name, arr in named_parameters(params)}
    m = {name: np.zeros_like(arr) for name, arr in ref.items()}
    v = {name: np.zeros_like(arr) for name, arr in ref.items()}
    opt = Adam(params, beta1, beta2, eps)
    for t in range(1, 4):
        grad = rng.normal(size=params.flat.shape) * 10.0 ** rng.integers(-4, 4, size=params.flat.shape)
        lr = 0.01 * t
        opt.step(grad, lr)
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for name, g in named_parameters(params, grad):
            m[name] *= beta1
            m[name] += (1 - beta1) * g
            v[name] *= beta2
            v[name] += (1 - beta2) * g * g
            ref[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        for name, arr in named_parameters(params):
            assert arr.tobytes() == ref[name].tobytes(), (t, name)
    assert_tensors_tile_flat(params)


def test_adam_step_moves_the_layer_filters():
    params = deep_mapped_params(7)
    filt = params.layers[0].filters[1]
    before = filt.adjacency.copy()
    Adam(params).step(np.ones_like(params.flat), lr=0.1)
    assert np.allclose(filt.adjacency, before - 0.1, rtol=0, atol=1e-8)


def test_clip_rescales_a_gradient_whose_square_overflows():
    # 1e200 squared is inf: a norm of the raw entries zeroed the whole gradient
    grad = np.array([1e200, -1e200, 3.0])
    _clip_grads(grad, 1.0)
    want = np.array([1.0, -1.0, 3e-200]) / np.sqrt(2.0)
    assert np.allclose(grad, want, rtol=1e-12, atol=0)
    assert np.linalg.norm(grad) == pytest.approx(1.0, rel=1e-12)


def test_clip_leaves_a_gradient_under_the_bound_unchanged():
    grad = np.random.default_rng(8).normal(size=50)
    before = grad.tobytes()
    _clip_grads(grad, 1.01 * np.linalg.norm(grad))
    assert grad.tobytes() == before
    zero = np.zeros(4)
    _clip_grads(zero, 1.0)
    assert zero.tobytes() == np.zeros(4).tobytes()


def test_learning_rate_halves_every_50_epochs():
    cfg = TrainConfig(lr=0.01, lr_half_every=50)
    assert learning_rate_at(cfg, 0) == 0.01
    assert learning_rate_at(cfg, 49) == 0.01
    assert learning_rate_at(cfg, 50) == 0.005
    assert learning_rate_at(cfg, 99) == 0.005
    assert learning_rate_at(cfg, 100) == 0.0025


def test_softmax_cross_entropy_gradient():
    logits = np.array([[2.0, -1.0, 0.5], [0.0, 3.0, -2.0], [1000.0, 0.0, -1000.0]])
    labels = np.array([0, 2, 1])
    losses, dlogits = softmax_cross_entropy(logits, labels)
    assert losses.shape == (3,) and dlogits.shape == (3, 3)
    for b in range(3):
        probs = np.exp(logits[b] - logits[b].max())
        probs /= probs.sum()
        assert losses[b] == pytest.approx(-np.log(max(probs[labels[b]], 1e-300)))
        assert dlogits[b] == pytest.approx(probs - np.eye(3)[labels[b]])
    # a lone class is always right: zero loss and zero gradient
    losses, dlogits = softmax_cross_entropy(np.array([[-4.0], [7.5]]), np.array([0, 0]))
    assert np.array_equal(losses, [0.0, 0.0])
    assert np.array_equal(dlogits, np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# train_fold
# ---------------------------------------------------------------------------


def test_micro_dataset_reaches_perfect_training_accuracy():
    ds = micro_pair()
    cfg = tiny_cfg(epochs=50)
    params, history = train_fold(ds, ds, cfg, rng=0)
    assert history["train_acc"][-1] == 1.0
    assert evaluate(params, ds) == 1.0
    assert history["train_loss"][49] < history["train_loss"][0]


def test_train_fold_deterministic():
    ds = micro_pair()
    cfg = tiny_cfg(epochs=5)
    p1, h1 = train_fold(ds, ds, cfg, rng=7)
    p2, h2 = train_fold(ds, ds, cfg, rng=7)
    assert h1["train_loss"] == h2["train_loss"]
    for (n1, a1), (n2, a2) in zip(named_parameters(p1), named_parameters(p2)):
        assert np.array_equal(a1, a2), n1


def test_train_fold_returns_best_epoch_params():
    ds = micro_pair()
    cfg = tiny_cfg(epochs=10)
    params, history = train_fold(ds, ds, cfg, rng=0)
    best = history["best_epoch"]
    assert history["val_acc"][best] == max(history["val_acc"])
    # ties broken toward the earliest epoch
    first_best = history["val_acc"].index(max(history["val_acc"]))
    assert best == first_best


def test_train_fold_params_alias_their_vector_after_the_restore():
    # the best epoch is restored by one vector copy into params.flat, which
    # the model's tensors must still read
    ds = micro_pair()
    cfg = tiny_cfg(epochs=6, num_layers=2, kernel_variant="deep", input_map_dim=2, grad_clip=0.5)
    params, history = train_fold(ds, ds, cfg, rng=1)
    assert_tensors_tile_flat(params)
    assert evaluate(params, ds) == history["best_val_acc"]


def test_train_fold_rejects_bad_inputs():
    ds = micro_pair()
    with pytest.raises(ValueError):
        train_fold(Dataset("e", [], 2, 1), ds, tiny_cfg(), rng=0)
    with pytest.raises(ConfigError):
        train_fold(ds, ds, tiny_cfg(epochs=0), rng=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_fold_raises_on_divergence():
    ds = micro_pair()
    cfg = tiny_cfg(lr=1e160, epochs=5)
    with pytest.raises(TrainingError, match="epoch"):
        train_fold(ds, ds, cfg, rng=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_error_names_the_first_nonfinite_layer():
    # attributes of 1e200 overflow the first kernel layer (S = X_H X_G^T alone
    # reaches 1e200, its product with the walk sum inf); the second layer and
    # the logits are non-finite too, but the error names where it started
    ds = micro_pair()
    huge = Dataset("huge", [dataclasses.replace(g, attributes=g.attributes * 1e200) for g in ds.graphs],
                   ds.num_classes, ds.attr_dim)
    with pytest.raises(TrainingError, match=r"epoch 0, batch 0: layers\.0 features are the first"):
        train_fold(huge, huge, tiny_cfg(num_layers=2, epochs=1), rng=0)
    # a lone layer reads out graph sums; its per-node values are named
    with pytest.raises(TrainingError, match=r"epoch 0, batch 0: layers\.0 features are the first"):
        train_fold(huge, huge, tiny_cfg(epochs=1), rng=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_chunk_gets_no_backward_and_ends_the_forwards(monkeypatch):
    # one graph per chunk, the whole set in one batch; one graph's 1e200
    # attributes overflow layer 0. The chunks before it run forward and
    # backward, its own only forward, and nothing is forwarded after it:
    # neither the rest of the batch nor a re-run to find where it started
    tri, path = micro_pair().graphs
    huge = dataclasses.replace(tri, attributes=tri.attributes * 1e200)
    ds = Dataset("mixed", [tri, path, huge, path, tri], 2, 1)
    cfg = tiny_cfg(num_layers=2, epochs=1, batch_size=len(ds))
    monkeypatch.setattr(kergnn.model, "_CHUNK_ENTRIES", 1)
    params = init_params(cfg.model_config(1, 2), np.random.default_rng(0))
    assert len(list(kergnn.model.packed_chunks(ds.graphs, params))) == len(ds)

    calls = []

    def recorded(name, fn):
        def wrapper(first, *args, **kwargs):
            calls.append((name, first))
            return fn(first, *args, **kwargs)
        return wrapper

    forward = recorded("forward", kergnn.model.forward_batch)
    for module in (kergnn.model, kergnn.training):
        monkeypatch.setattr(module, "forward_batch", forward)
    monkeypatch.setattr(kergnn.training, "backward_batch", recorded("backward", kergnn.model.backward_batch))
    with pytest.raises(TrainingError, match=r"epoch 0, batch 0: layers\.0 features are the first"):
        train_fold(ds, micro_pair(), cfg, rng=0)
    names = [name for name, _ in calls]
    assert names == ["forward", "backward"] * names.count("backward") + ["forward"]
    # the last forward is the diverged chunk's, and no other forward held it
    forwarded = [graphs for name, graphs in calls if name == "forward"]
    assert forwarded[-1] == [huge]
    assert not any(g is huge for graphs in forwarded[:-1] for g in graphs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tensor,where", [("input_map", "input_map features"),
                                          ("mlp", "the MLP logits")])
def test_divergence_error_names_the_input_map_and_the_mlp_logits(tensor, where):
    # an infinite bias makes its own output the first non-finite tensor: the
    # input map's features (and every layer after them), or the logits alone
    ds = micro_pair()
    params = init_params(tiny_cfg(input_map_dim=2).model_config(1, 2), np.random.default_rng(0))
    bias = params.input_map[1] if tensor == "input_map" else params.mlp[-1][1]
    bias[0] = np.inf
    with pytest.raises(TrainingError, match=f"^{where} are the first non-finite tensor$"):
        _batch_step(list(ds.graphs), params, np.random.default_rng(0))


def mixed_prediction_dataset():
    # 3-wide normal attributes on graphs of 2-8 nodes: the model train_fold
    # initialises from rng=2 predicts both classes on it (19 vs 5 graphs)
    rng = np.random.default_rng(0)
    graphs = [random_graph(rng, int(rng.integers(2, 9)), 0.5, d=3, label=i % 2) for i in range(24)]
    return Dataset("mixed", graphs, 2, 3)


@pytest.mark.parametrize("variant", ["plain", "deep"])
def test_train_acc_counts_the_epochs_own_forwards(monkeypatch, variant):
    # with the parameters frozen and no dropout, the minibatch forwards of an
    # epoch see the same model as an eval pass over the training set after it
    monkeypatch.setattr(Adam, "step", lambda self, grads, lr: None)
    ds = mixed_prediction_dataset()
    cfg = tiny_cfg(epochs=3, kernel_variant=variant)
    params, history = train_fold(ds, ds.subset(range(6)), cfg, rng=2)
    predicted = np.argmax(predict_logits(list(ds.graphs), params), axis=1)
    assert len(np.unique(predicted)) == 2
    assert history["train_acc"] == [evaluate(params, ds)] * cfg.epochs


def test_train_fold_forwards_each_graph_once_per_epoch(monkeypatch):
    # one training forward per training graph and one eval forward per
    # validation graph each epoch; no separate pass over the training set
    import kergnn.model
    import kergnn.training

    forwarded = []
    forward = kergnn.model.forward_batch

    def counting(graphs, *args, **kwargs):
        forwarded.append(len(graphs))
        return forward(graphs, *args, **kwargs)

    monkeypatch.setattr(kergnn.model, "forward_batch", counting)
    monkeypatch.setattr(kergnn.training, "forward_batch", counting)
    ds = mixed_prediction_dataset()
    train, val = ds.subset(range(18)), ds.subset(range(18, 24))
    cfg = tiny_cfg(epochs=3)
    train_fold(train, val, cfg, rng=0)
    assert sum(forwarded) == cfg.epochs * (len(train) + len(val))


def test_dropout_training_still_runs():
    ds = micro_pair()
    cfg = tiny_cfg(epochs=3, dropout=0.5)
    params, history = train_fold(ds, ds, cfg, rng=0)
    assert len(history["train_loss"]) == 3


# ---------------------------------------------------------------------------
# Stratified splitting
# ---------------------------------------------------------------------------


def test_stratified_kfold_proportions_and_cover():
    rng = np.random.default_rng(0)
    labels = np.array([0] * 25 + [1] * 14 + [2] * 11)
    folds = stratified_kfold(labels, 10, rng)
    assert len(folds) == 10
    all_idx = np.concatenate(folds)
    assert sorted(all_idx.tolist()) == list(range(50))  # disjoint cover
    for fold in folds:
        counts = np.bincount(labels[fold], minlength=3)
        for cls, total in ((0, 25), (1, 14), (2, 11)):
            assert abs(counts[cls] - total / 10) <= 1.0


def test_stratified_split_keeps_classes():
    rng = np.random.default_rng(1)
    labels = np.array([0] * 18 + [1] * 2)
    train, hold = stratified_split(labels, 0.1, rng)
    assert sorted(np.concatenate([train, hold]).tolist()) == list(range(20))
    assert np.intersect1d(train, hold).size == 0
    assert set(labels[hold]) == {0, 1}


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def test_grid_of_one_returns_it():
    ds = micro_pair()
    cfg = tiny_cfg(epochs=2)
    assert grid_search(ds, ds, [cfg], rng=0) == cfg


def test_grid_search_filters_invalid_configs():
    ds = micro_pair()
    good = tiny_cfg(epochs=2)
    bad = tiny_cfg(epochs=0)
    assert grid_search(ds, ds, [bad, good], rng=0) == good
    with pytest.raises(ValueError):
        grid_search(ds, ds, [bad], rng=0)
    with pytest.raises(ValueError):
        grid_search(ds, ds, [], rng=0)


def test_grid_search_skips_candidate_with_wrong_lambda_count():
    ds = micro_pair()
    good = tiny_cfg(epochs=2)
    bad = tiny_cfg(epochs=2, walk_length=2, lambdas=(1.0, 0.5))  # needs P+1 = 3
    assert grid_search(ds, ds, [bad, good], rng=0) == good


def test_cone_pair_is_degenerate_at_walk_length_one():
    # structural half of the grid-search story: any P=1 model gives the two
    # cone graphs identical outputs, so no training can tell them apart
    ga, gb = cone_pair()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cfg1 = tiny_cfg(walk_length=1).model_config(1, 2)
        params = init_params(cfg1, rng)
        la, _ = model_forward(ga, params)
        lb, _ = model_forward(gb, params)
        assert np.max(np.abs(la - lb)) < 1e-10


def test_grid_search_selects_walk_length_that_separates():
    # P=1 models are stuck at 50% on the cone pairs while P=2 sees the
    # differing two-step structure and fits them
    ds = cone_dataset()
    grid = [tiny_cfg(walk_length=1, epochs=100, num_filters=2),
            tiny_cfg(walk_length=2, epochs=100, num_filters=2)]
    best = grid_search(ds, ds, grid, rng=0)
    assert best.walk_length == 2


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


def constant_label_dataset(n=30):
    rng = np.random.default_rng(5)
    graphs = [random_graph(rng, int(rng.integers(3, 7)), 0.5, d=1, label=0) for _ in range(n)]
    return Dataset("const", graphs, 1, 1)


def two_class_dataset(n_per_class=12, seed=9):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(n_per_class):
        graphs.append(random_graph(rng, 5, 0.2, d=1, label=0))
        graphs.append(random_graph(rng, 5, 0.8, d=1, label=1))
    return Dataset("two", graphs, 2, 1)


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


def test_cross_validate_builds_each_stack_once(stack_builds):
    ds = two_class_dataset()
    # the second candidate's two layers share one (hops, k_max). The first
    # candidate's lone layer drops its stack once its summed Gram maps exist,
    # so the second candidate builds it once more; later folds build none
    grid = [tiny_cfg(epochs=2, walk_length=1), tiny_cfg(epochs=2, walk_length=2, num_layers=2)]
    cross_validate(ds, grid, seed=5, n_folds=3)
    builds = Counter((id(g), hops, k_max) for g, hops, k_max in stack_builds)
    assert max(builds.values()) <= len({cfg.walk_length for cfg in grid})
    assert {key[0] for key in builds} == {id(g) for g in ds.graphs}


def test_second_evaluate_builds_no_stacks(stack_builds):
    ds = two_class_dataset()
    params = init_params(tiny_cfg().model_config(ds.attr_dim, ds.num_classes),
                         np.random.default_rng(0))
    first = evaluate(params, ds)
    assert len(stack_builds) == len(ds)
    assert evaluate(params, ds) == first
    assert len(stack_builds) == len(ds)


def test_second_cross_validate_builds_no_stacks(stack_builds):
    ds = two_class_dataset()
    first = cross_validate(ds, tiny_cfg(epochs=2), seed=5, n_folds=3)
    assert len(stack_builds) == len(ds)
    second = cross_validate(ds, tiny_cfg(epochs=2), seed=5, n_folds=3)
    assert len(stack_builds) == len(ds)
    # reused stacks change no number
    assert second.fold_accuracies == first.fold_accuracies
    assert second.histories == first.histories


def test_relabeled_graph_builds_its_own_stacks(stack_builds):
    # a lone layer keeps its maps summed over the nodes, and no stack
    rng = np.random.default_rng(2)
    g = random_graph(rng, 6, 0.5, d=1, label=0)
    params = init_params(tiny_cfg().model_config(1, 2), np.random.default_rng(0))
    forward_batch([g], params)
    assert list(g.gram_maps) == [(1, 5)] and not g.stacks
    moved = g.relabeled(rng.permutation(6))
    copied = dataclasses.replace(g, graph_label=1)
    assert not moved.gram_maps and not copied.gram_maps
    assert not moved.stacks and not copied.stacks
    forward_batch([moved], params)
    assert [b[0] for b in stack_builds] == [g, moved]
    own = stack_subgraphs(moved, 1, 5)
    assert moved.gram_maps[(1, 5)].tobytes() == gram_maps(own.gather(moved.attributes),
                                                          own.adjacency, 2).sum(axis=0).tobytes()


def test_longer_walk_extends_the_maps(stack_builds):
    # maps are built from the stack, which is then dropped; a longer walk
    # builds the stack again and extends the maps, a shorter one reads a slice
    rng = np.random.default_rng(6)
    g = random_graph(rng, 7, 0.5, d=2, label=0)
    forward = {p: init_params(tiny_cfg(walk_length=p).model_config(2, 2), np.random.default_rng(p))
               for p in (1, 2)}
    forward_batch([g], forward[1])
    short = g.gram_maps[(1, 5)]
    assert short.shape == (2, 4) and not g.stacks
    forward_batch([g], forward[2])
    assert g.gram_maps[(1, 5)].shape == (3, 4) and not g.stacks
    assert g.gram_maps[(1, 5)][:2].tobytes() == short.tobytes()
    assert stack_builds == [(g, 1, 5)] * 2
    longer = g.gram_maps[(1, 5)]
    forward_batch([g], forward[1])
    assert g.gram_maps[(1, 5)] is longer and len(stack_builds) == 2


def test_stack_kept_while_another_layer_shares_its_key(stack_builds):
    # a two-layer plain model runs layer 1 on its stack as well: it keeps no
    # Gram maps and builds one stack per graph, which both layers read
    rng = np.random.default_rng(7)
    graphs = [random_graph(rng, n, 0.5, d=1, label=0) for n in (7, 4)]
    params = init_params(tiny_cfg(num_layers=2).model_config(1, 2), np.random.default_rng(0))
    for _ in range(2):
        fwd = forward_batch(graphs, params)
    assert fwd.forms == ["gram", "gram"] and fwd.stacks[0] is fwd.stacks[1]
    assert stack_builds == [(h, 1, 5) for h in graphs]
    assert all(list(h.stacks) == [(1, 5)] and not h.gram_maps for h in graphs)
    # a model with an input map runs layer 1 on the stack and keeps no maps
    moved = graphs[0].relabeled(np.arange(7))
    mapped = init_params(tiny_cfg(input_map_dim=2).model_config(1, 2), np.random.default_rng(0))
    model_forward(moved, mapped)
    assert list(moved.stacks) == [(1, 5)] and not moved.gram_maps


def test_layer_forward_second_call_builds_nothing(stack_builds):
    # layer_forward takes its stack from g.stacks like the packed forward does
    rng = np.random.default_rng(4)
    g = random_graph(rng, 6, 0.5, d=1)
    layer = init_params(tiny_cfg().model_config(1, 2), rng).layers[0]
    first = layer_forward(g, g.attributes, layer)
    assert np.array_equal(layer_forward(g, g.attributes, layer), first)
    assert stack_builds == [(g, layer.hops, layer.k_max)]
    assert list(g.stacks) == [(layer.hops, layer.k_max)]


def test_unlabeled_graphs_are_rejected():
    # evaluate counted an unlabeled graph as misclassified and train_fold
    # failed with a TypeError from max()
    ds = two_class_dataset()
    unlabeled = Graph(3, np.zeros((3, 3)), np.ones((3, 1)))
    graphs = [ds.graphs[0], unlabeled, ds.graphs[1]]
    params = init_params(tiny_cfg().model_config(1, 2), np.random.default_rng(0))
    with pytest.raises(ValueError, match="graph 1 has no graph_label"):
        evaluate(params, graphs)
    with pytest.raises(ValueError, match="graph 1 has no graph_label"):
        train_fold(graphs, list(ds.graphs), tiny_cfg(epochs=1), 0)
    with pytest.raises(ValueError, match="graph 0 has no graph_label"):
        train_fold(list(ds.graphs), [unlabeled], tiny_cfg(epochs=1), 0)


def test_cross_validate_constant_labels_is_perfect():
    ds = constant_label_dataset()
    cfg = tiny_cfg(epochs=2)
    result = cross_validate(ds, cfg, seed=0, n_folds=10)
    assert result.fold_accuracies == [1.0] * 10
    assert result.mean == 1.0
    assert result.std == 0.0


def test_cross_validate_shapes_and_stats():
    ds = two_class_dataset()
    cfg = tiny_cfg(epochs=2, num_filters=2, mlp_hidden=(4,))
    result = cross_validate(ds, cfg, seed=1, n_folds=10)
    assert len(result.fold_accuracies) == 10
    assert result.mean == pytest.approx(float(np.mean(result.fold_accuracies)), abs=1e-12)
    assert result.std == pytest.approx(float(np.std(result.fold_accuracies)), abs=1e-12)
    assert len(result.selected_configs) == 10


def test_cross_validate_reproducible():
    ds = two_class_dataset()
    cfg = tiny_cfg(epochs=2, num_filters=2)
    r1 = cross_validate(ds, cfg, seed=11, n_folds=3)
    r2 = cross_validate(ds, cfg, seed=11, n_folds=3)
    assert r1.fold_accuracies == r2.fold_accuracies
    assert r1.to_dict() == r2.to_dict()


def test_cross_validate_single_fold_holdout():
    ds = two_class_dataset()
    cfg = tiny_cfg(epochs=2, num_filters=2)
    result = cross_validate(ds, cfg, seed=2, n_folds=1)
    assert len(result.fold_accuracies) == 1


def test_cross_validate_rejects_thin_classes():
    ds = two_class_dataset(n_per_class=4)
    with pytest.raises(ValueError, match="stratification"):
        cross_validate(ds, tiny_cfg(epochs=1), seed=0, n_folds=10)


def test_cross_validate_accepts_explicit_splits():
    ds = two_class_dataset()
    cfg = tiny_cfg(epochs=2, num_filters=2)
    n = len(ds)
    splits = [(np.arange(n - 4), np.arange(n - 4, n))]
    result = cross_validate(ds, cfg, seed=3, splits=splits)
    assert len(result.fold_accuracies) == 1


@pytest.mark.parametrize("train,test,message", [
    ([0, 1, 2], [-1], r"\[0, "),  # -1 would wrap to the last graph
    ([0, 1, 2], [99], r"\[0, "),
    ([0, 1, 2, 3], [3, 4], "overlap"),
])
def test_cross_validate_rejects_bad_explicit_splits(train, test, message):
    ds = two_class_dataset()
    splits = [(np.array(train), np.array(test))]
    with pytest.raises(ConfigError, match=message):
        cross_validate(ds, tiny_cfg(epochs=1), seed=0, splits=splits)


def test_load_splits_file(tmp_path):
    import json

    from kergnn.training import load_splits

    path = tmp_path / "splits.json"
    path.write_text(json.dumps([
        {"train": [0, 1, 2, 3], "test": [4, 5]},
        {"train": [2, 3, 4, 5], "test": [0, 1]},
    ]))
    splits = load_splits(str(path))
    assert len(splits) == 2
    assert splits[0][1].tolist() == [4, 5]

    path.write_text(json.dumps([{"train": [0, 1], "test": [1, 2]}]))
    with pytest.raises(ConfigError, match="overlap"):
        load_splits(str(path))
    path.write_text("[]")
    with pytest.raises(ConfigError):
        load_splits(str(path))
    # only flat lists of JSON integers: 1.5 was truncated to 1, "0" and true
    # were read as indices, nested lists became 2-D index arrays
    for bad in ([0, 1.5], ["0"], [0, True], [[0, 1], [2]], None, {"0": 1}, [2**70]):
        path.write_text(json.dumps([{"train": [2, 3], "test": [4]},
                                    {"train": bad, "test": [0]}]))
        with pytest.raises(ConfigError, match=f"{path.name}: fold 1"):
            load_splits(str(path))
    path.write_text(json.dumps([{"train": [0, 1]}]))
    with pytest.raises(ConfigError, match="fold 0"):
        load_splits(str(path))
    for text in ('[{"train": [0], "test": [1]', "\xff"):
        path.write_text(text, encoding="latin-1")
        with pytest.raises(ConfigError, match=path.name):
            load_splits(str(path))


def test_gradient_clipping_keeps_training_finite():
    ds = micro_pair()
    cfg = tiny_cfg(epochs=5, lr=0.5, grad_clip=1.0)
    params, history = train_fold(ds, ds, cfg, rng=0)
    assert all(np.isfinite(x) for x in history["train_loss"])


def structured_dataset(n_graphs=60, seed=42):
    # cycles vs stars with noisy one-hot node labels: structure is the only
    # reliable signal, so this exercises the kernel layer for real
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(n_graphs):
        n = int(rng.integers(8, 15))
        adj = np.zeros((n, n))
        if i % 2 == 0:
            for v in range(n):
                adj[v, (v + 1) % n] = adj[(v + 1) % n, v] = 1.0
        else:
            for v in range(1, n):
                adj[0, v] = adj[v, 0] = 1.0
        labels = rng.integers(0, 4, size=n)
        attrs = np.zeros((n, 4))
        attrs[np.arange(n), labels] = 1.0
        graphs.append(Graph(n, adj, attrs, graph_label=i % 2, node_labels=labels))
    return Dataset("cycles-vs-stars", graphs, 2, 4)


def test_training_smoke_on_structured_graphs():
    ds = structured_dataset()
    tr, te = stratified_split(ds.labels(), 0.2, np.random.default_rng(0))
    cfg = TrainConfig(lr=0.01, epochs=25, batch_size=16, num_layers=1, num_filters=8,
                      filter_nodes=4, k_max=8, hops=1, walk_length=2, mlp_hidden=(16,),
                      dropout=0.0)
    params, history = train_fold(ds.subset(tr), ds.subset(tr), cfg, rng=1)
    assert evaluate(params, ds.subset(tr)) >= 0.9
    assert evaluate(params, ds.subset(te)) >= 0.8


def test_cross_validate_writes_checkpoints(tmp_path):
    from kergnn.model import load_checkpoint

    ds = two_class_dataset()
    cfg = tiny_cfg(epochs=2, num_filters=2)
    cross_validate(ds, cfg, seed=4, n_folds=2, out_dir=str(tmp_path))
    for k in range(2):
        params, _, extra = load_checkpoint(str(tmp_path / f"fold{k}" / "best.ckpt"))
        assert extra["fold"] == k
        assert params.config.num_classes == 2


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def test_config_roundtrip_through_dict():
    cfg = tiny_cfg(num_filters=(4, 2), filter_nodes=(3, 3), num_layers=2, lambdas=(1.0, 0.5, 0.25))
    restored = TrainConfig.from_dict(cfg.to_dict())
    assert restored == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"learning_rate": 0.1})


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_cfg(lr=-1).validate()
    with pytest.raises(ConfigError):
        tiny_cfg(dropout=1.5).validate()
    with pytest.raises(ConfigError):
        tiny_cfg(kernel_variant="geometric").validate()
    with pytest.raises(ConfigError):
        TrainConfig(num_layers=2, num_filters=(4,)).validate()
    with pytest.raises(ConfigError, match="lambdas"):
        tiny_cfg(walk_length=2, lambdas=(1.0,)).validate()
    with pytest.raises(ConfigError):
        tiny_cfg(walk_length=-1).validate()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="lambda"):
            tiny_cfg(walk_length=1, lambdas=(1.0, bad)).validate()
    # optimizer settings: nan slipped past `lr <= 0`, a negative grad_clip
    # reversed every update, beta1 = 1 divided by a zero bias correction
    nan, inf = float("nan"), float("inf")
    for field, bad in [("lr", nan), ("lr", inf), ("grad_clip", 0.0), ("grad_clip", -1.0),
                       ("grad_clip", nan), ("beta1", 1.0), ("beta1", -0.1), ("beta1", nan),
                       ("beta2", 1.0), ("beta2", 1.5), ("eps", 0.0), ("eps", -1e-8),
                       ("eps", nan), ("eps", inf), ("seed", -1)]:
        with pytest.raises(ConfigError, match=field):
            tiny_cfg(**{field: bad}).validate()
    tiny_cfg(beta1=0.0, beta2=0.0, grad_clip=inf).validate()


@pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
def test_cross_validate_rejects_a_bad_seed(seed):
    # a negative seed ended in numpy's "expected non-negative integer"
    with pytest.raises(ConfigError, match="seed"):
        cross_validate(two_class_dataset(), tiny_cfg(epochs=1), seed=seed, n_folds=3)


@pytest.mark.parametrize("field,value", [
    ("epochs", "3"), ("lr", "0.1"), ("dropout", None), ("post_relu", 1),
    ("num_filters", 2.5), ("kernel_variant", 3), ("grad_clip", "1"),
    # list entries are kept as given: [2.5] used to train as 2 and ["3"] as 3
    ("num_filters", [2.5]), ("mlp_hidden", 7.9), ("filter_nodes", ["3"]),
    ("mlp_hidden", [True]), ("num_filters", [4, True]), ("lambdas", [1.0, "0.5", 0.25]),
])
def test_config_wrong_field_type_names_the_field(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig.from_dict({field: value}).validate()


def test_config_keeps_list_entries_as_given():
    cfg = TrainConfig.from_dict({"num_filters": [2], "filter_nodes": [3], "mlp_hidden": 7,
                                 "lambdas": [1, 0.5, 0.25]})
    cfg.validate()
    assert (cfg.num_filters, cfg.filter_nodes, cfg.mlp_hidden) == ((2,), (3,), (7,))
    assert cfg.model_config(attr_dim=1, num_classes=2).kernel_cfg().lambdas == (1.0, 0.5, 0.25)
