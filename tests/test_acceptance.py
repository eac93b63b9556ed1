"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 6 and 7 need real TUDataset directories (MUTAG / IMDB-BINARY) under
tests/data or $KERGNN_DATA_DIR; they skip with instructions otherwise.
Criterion 7 additionally requires KERGNN_RUN_CV=1 since its 10-fold CV takes
about 3 minutes (13-17 s per outer fold).
"""

import math
import os
import time

import numpy as np
import pytest

import kergnn.model
from kergnn.graphs import Subgraph, extract_subgraph, load_tudataset
from kergnn.kernels import RWKernelConfig, rw_kernel, rw_kernel_oracle
from kergnn.model import KerGNNLayer, LayerSpec, ModelConfig, init_params, layer_forward, model_forward
from kergnn.training import TrainConfig, cross_validate, evaluate, stratified_split, train_fold
from kergnn.wl import wl_test

from conftest import (
    hexagon,
    random_filter,
    random_graph,
    random_subgraph,
    require_dataset,
    two_triangles,
)
from test_kernel_grads import check_instance


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def unpad(sub: Subgraph):
    return sub.adjacency[: sub.size, : sub.size], sub.attributes[: sub.size]


def test_criterion_1_kernel_oracle_equivalence():
    rng = np.random.default_rng(20240101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        p_steps = int(rng.integers(0, 5))
        g = random_graph(rng, n, 0.5, d)
        v = int(rng.integers(0, n))
        sub = extract_subgraph(g, v, hops=1, k_max=n + int(rng.integers(0, 3)))
        filt = random_filter(rng, int(rng.integers(1, 8)), d)
        cfg = RWKernelConfig(p_steps)  # lambda = 1 for every step
        fast = rw_kernel(sub, filt, cfg)
        slow = rw_kernel_oracle((filt.adjacency, filt.attributes), unpad(sub), cfg)
        worst = max(worst, abs(fast - slow) / max(abs(slow), 1e-12))
    elapsed = time.perf_counter() - t0
    report("criterion 1 (oracle equivalence)",
           worst <= 1e-9 and elapsed < 10.0,
           f"max rel err {worst:.2e} over 200 pairs in {elapsed:.2f}s")


def test_criterion_2_gradient_correctness():
    from test_model import test_end_to_end_gradients_match_finite_differences

    t0 = time.perf_counter()
    rng = np.random.default_rng(20240202)
    worst = 0.0
    for k in range(50):
        worst = max(worst, check_instance(rng, deep=(k % 2 == 1)))
    kernel_ok = worst <= 1e-4

    # end-to-end check on the 2-graph micro-dataset, both kernel variants
    test_end_to_end_gradients_match_finite_differences("plain")
    test_end_to_end_gradients_match_finite_differences("deep")
    elapsed = time.perf_counter() - t0
    report("criterion 2 (gradient correctness)",
           kernel_ok and elapsed < 60.0,
           f"kernel max rel err {worst:.2e}; end-to-end within 1e-3; {elapsed:.1f}s")


def test_criterion_3_padding_invariance():
    rng = np.random.default_rng(20240303)
    worst = 0.0
    for _ in range(50):
        size = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        sub = random_subgraph(rng, size, size + int(rng.integers(0, 2)), d)
        filt = random_filter(rng, int(rng.integers(1, 6)), d)
        cfg = RWKernelConfig(int(rng.integers(0, 5)))
        base = rw_kernel(sub, filt, cfg)
        pad = int(rng.integers(1, 6))
        padded = Subgraph(sub.center, sub.node_ids,
                          np.pad(sub.adjacency, ((0, pad), (0, pad))),
                          np.pad(sub.attributes, ((0, pad), (0, 0))), sub.size)
        worst = max(worst, abs(rw_kernel(padded, filt, cfg) - base))
    report("criterion 3 (padding invariance)", worst <= 1e-12,
           f"max abs change {worst:.2e} over 50 subgraphs with up to 5 zero slots")


def test_criterion_4_expressivity_beyond_1wl():
    t0 = time.perf_counter()
    g_hex, g_tri = hexagon(), two_triangles()
    verdict = wl_test(g_hex, g_tri, max_iters=10)
    wl_ok = verdict == "indistinguishable"

    min_gap = np.inf
    for seed in range(10):
        rng = np.random.default_rng(seed)
        filt = random_filter(rng, 3, 1)
        layer = KerGNNLayer([filt], RWKernelConfig(2), hops=1, k_max=10)
        readout_hex = layer_forward(g_hex, g_hex.attributes, layer).sum()
        readout_tri = layer_forward(g_tri, g_tri.attributes, layer).sum()
        min_gap = min(min_gap, abs(readout_hex - readout_tri))
    elapsed = time.perf_counter() - t0
    report("criterion 4 (expressivity, Fig 1a pair)",
           wl_ok and min_gap > 1e-6 and elapsed < 5.0,
           f"1-WL {verdict}; kernel readout gap >= {min_gap:.3g} over 10 seeds; {elapsed:.2f}s")


def test_criterion_5_permutation_invariance():
    rng = np.random.default_rng(20240505)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 10))
        g = random_graph(rng, n, 0.5, d=2)
        cfg = ModelConfig(attr_dim=2, num_classes=3,
                          layers=(LayerSpec(4, 3, k_max=n, hops=1),),
                          walk_length=2, mlp_hidden=(8,))
        params = init_params(cfg, rng)
        base, _ = model_forward(g, params)
        for _ in range(20):
            perm = rng.permutation(n)
            logits, _ = model_forward(g.relabeled(perm), params)
            worst = max(worst, float(np.max(np.abs(logits - base))))
    report("criterion 5 (permutation invariance)", worst <= 1e-10,
           f"max logit deviation {worst:.2e} over 10 graphs x 20 relabelings")


def test_criterion_6_mutag_training_smoke():
    data_dir = require_dataset("MUTAG")
    t0 = time.perf_counter()
    ds = load_tudataset(data_dir, "MUTAG")
    assert len(ds) == 188

    labels = ds.labels()
    majority = float(np.bincount(labels).max() / len(labels))

    rng = np.random.default_rng(0)
    train_idx, test_idx = stratified_split(labels, 0.1, rng)
    train_set = ds.subset(train_idx)
    test_set = ds.subset(test_idx)

    cfg = TrainConfig(lr=0.01, epochs=100, batch_size=32, num_layers=1, num_filters=16,
                      filter_nodes=6, k_max=10, hops=1, walk_length=2, mlp_hidden=(32,),
                      dropout=0.0)
    # validation = training set: epoch selection never sees the held-out 10%
    params, history = train_fold(train_set, train_set, cfg, rng=1)
    train_acc = evaluate(params, train_set)
    test_acc = evaluate(params, test_set)
    elapsed = time.perf_counter() - t0
    report("criterion 6 (MUTAG training smoke)",
           train_acc >= 0.85 and test_acc > majority and elapsed < 900.0,
           f"train acc {train_acc:.3f} (>=0.85), test acc {test_acc:.3f} "
           f"(> majority {majority:.3f}), {elapsed:.0f}s")


def test_criterion_7_imdb_binary_cv_floor():
    data_dir = require_dataset("IMDB-BINARY")
    if os.environ.get("KERGNN_RUN_CV") != "1":
        # one outer fold of this grid took 13-17 s on IMDB-shaped synthetic data (1 BLAS thread)
        pytest.skip("10-fold CV of about 3 minutes: set KERGNN_RUN_CV=1 to run criterion 7")
    ds = load_tudataset(data_dir, "IMDB-BINARY")
    assert len(ds) == 1000

    base = dict(lr=0.01, epochs=100, batch_size=32, num_layers=1, k_max=10, hops=1,
                mlp_hidden=(32,), dropout=0.2)
    grid = [
        TrainConfig(num_filters=f, filter_nodes=n, walk_length=p, **base)
        for f in (16, 32) for n in (4, 6) for p in (1, 2)
    ]
    result = cross_validate(ds, grid, seed=0, n_folds=10)
    report("criterion 7 (IMDB-BINARY CV floor)", result.mean >= 0.68,
           f"mean accuracy {result.mean:.3f} +- {result.std:.3f} (floor 0.68, paper 0.744)")


class _CountingArray(np.ndarray):
    """An array whose matrix products, and those of every array computed from
    it, add their multiply-adds to `madds`."""

    madds = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _CountingArray) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, _CountingArray) else x
                                  for x in kwargs["out"])
        result = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            a, b = plain[:2]
            batch = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
            _CountingArray.madds += batch * a.shape[-2] * a.shape[-1] * b.shape[-1]
        return result.view(_CountingArray) if isinstance(result, np.ndarray) else result

    def __array_function__(self, func, types, args, kwargs):
        # np.stack, np.concatenate, np.einsum, ... would return plain arrays
        result = super().__array_function__(func, types, args, kwargs)
        return result.view(_CountingArray) if isinstance(result, np.ndarray) else result


def _kernel_madds(monkeypatch, configs):
    """Multiply-adds of the matrix products in each (graph, layer) config's
    layer_forward kernel: its four array arguments, the filters' and the
    subgraphs' features and adjacencies, count every product made from them."""
    forward = kergnn.model.stacked_kernel_forward

    def counting(attr_h, adj_h, x_sub, adj_g, *args, **kwargs):
        return forward(*(x.view(_CountingArray) for x in (attr_h, adj_h, x_sub, adj_g)),
                       *args, **kwargs)

    monkeypatch.setattr(kergnn.model, "stacked_kernel_forward", counting)
    madds = []
    for g, layer in configs:
        _CountingArray.madds = 0
        layer_forward(g, g.attributes, layer)
        madds.append(_CountingArray.madds)
    return madds


def test_criterion_8_complexity_trends(monkeypatch):
    # the kernel's work, counted in multiply-adds, not timed: wall times of
    # ~5-30 ms calls on a shared machine broke the bounds now and then with
    # the code unchanged, and a count repeats exactly
    rng = np.random.default_rng(20240808)
    g = random_graph(rng, 250, 0.08, d=16)

    # work versus walk length on a fixed graph: at most linear
    configs = []
    for p_steps in range(1, 6):
        filt_rng = np.random.default_rng(1)
        filters = [random_filter(filt_rng, 8, 16) for _ in range(16)]
        configs.append((g, KerGNNLayer(filters, RWKernelConfig(p_steps), hops=1, k_max=30)))
    work_p = _kernel_madds(monkeypatch, configs)
    monotone_p = all(work_p[i + 1] >= 0.8 * work_p[i] for i in range(4))
    linear_p = work_p[4] <= 5.5 * work_p[0]

    # work versus average subgraph size on denser graphs: monotone.
    # capacity tracks the largest subgraph so the padded math actually has
    # to process the bigger neighborhoods
    configs, sizes = [], []
    for prob in (0.05, 0.15, 0.35):
        gd = random_graph(rng, 150, prob, d=8)
        filt_rng = np.random.default_rng(2)
        filters = [random_filter(filt_rng, 6, 8) for _ in range(8)]
        k_max = int(gd.degrees().max()) + 1
        configs.append((gd, KerGNNLayer(filters, RWKernelConfig(2), hops=1, k_max=k_max)))
        sizes.append(float(np.mean(gd.degrees()) + 1))
    assert sizes[0] < sizes[1] < sizes[2]
    work_density = _kernel_madds(monkeypatch, configs)
    monotone_density = work_density[0] < work_density[1] < work_density[2]

    report("criterion 8 (complexity trends)",
           monotone_p and linear_p and monotone_density,
           f"kernel multiply-adds vs P {work_p} (ratio P5/P1 "
           f"{work_p[4] / work_p[0]:.2f} <= 5.5); vs avg subgraph size "
           f"{[round(s, 1) for s in sizes]} -> {work_density}")
