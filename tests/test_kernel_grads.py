"""Analytic kernel gradients against central finite differences."""

import numpy as np
import pytest

from kergnn.kernels import RWKernelConfig, rw_kernel, rw_kernel_grad, walk_kernel

from conftest import random_filter, random_subgraph

H = 1e-6


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def fd_filter_grads(sub, filt, cfg, weights=None):
    """Central differences over attributes, upper-triangle adjacency, weights."""

    def k():
        return walk_kernel(filt.adjacency, filt.attributes, sub.adjacency, sub.attributes,
                           cfg, weights)

    n, d = filt.attributes.shape
    d_attr = np.zeros((n, d))
    for i in range(n):
        for j in range(d):
            orig = filt.attributes[i, j]
            filt.attributes[i, j] = orig + H
            up = k()
            filt.attributes[i, j] = orig - H
            down = k()
            filt.attributes[i, j] = orig
            d_attr[i, j] = (up - down) / (2 * H)

    # adjacency entries move in symmetric pairs: FD estimates dK/dA_ij + dK/dA_ji
    d_adj_pair = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            orig = filt.adjacency[i, j]
            filt.adjacency[i, j] = filt.adjacency[j, i] = orig + H
            up = k()
            filt.adjacency[i, j] = filt.adjacency[j, i] = orig - H
            down = k()
            filt.adjacency[i, j] = filt.adjacency[j, i] = orig
            d_adj_pair[i, j] = (up - down) / (2 * H)

    d_w = None
    if weights is not None:
        d_w = np.zeros_like(weights)
        for i in range(weights.shape[0]):
            for j in range(weights.shape[1]):
                orig = weights[i, j]
                weights[i, j] = orig + H
                up = k()
                weights[i, j] = orig - H
                down = k()
                weights[i, j] = orig
                d_w[i, j] = (up - down) / (2 * H)
    return d_attr, d_adj_pair, d_w


def check_instance(rng, deep):
    size = int(rng.integers(1, 8))
    d = int(rng.integers(1, 4))
    n = int(rng.integers(1, 6))
    p_steps = int(rng.integers(0, 5))
    sub = random_subgraph(rng, size, size + int(rng.integers(0, 3)), d)
    filt = random_filter(rng, n, d)
    weights = rng.random((n, sub.capacity)) + 0.5 if deep else None
    cfg = RWKernelConfig(p_steps, variant="deep" if deep else "plain")

    value, grads = rw_kernel_grad(sub, filt, cfg, weights)
    assert value == pytest.approx(rw_kernel(sub, filt, cfg, weights), rel=1e-12)
    assert np.array_equal(grads.d_adjacency, grads.d_adjacency.T)
    assert np.all(np.diag(grads.d_adjacency) == 0.0)

    fd_attr, fd_adj_pair, fd_w = fd_filter_grads(sub, filt, cfg, weights)
    worst = 0.0
    for i in range(n):
        for j in range(filt.attributes.shape[1]):
            worst = max(worst, rel_err(grads.d_attributes[i, j], fd_attr[i, j]))
    for i in range(n):
        for j in range(i + 1, n):
            analytic_pair = grads.d_adjacency[i, j] + grads.d_adjacency[j, i]
            worst = max(worst, rel_err(analytic_pair, fd_adj_pair[i, j]))
    if deep:
        for i in range(weights.shape[0]):
            for j in range(weights.shape[1]):
                worst = max(worst, rel_err(grads.d_deep_weights[i, j], fd_w[i, j]))
    return worst


def test_p0_has_zero_adjacency_gradient():
    rng = np.random.default_rng(0)
    sub = random_subgraph(rng, 4, 6, 3)
    filt = random_filter(rng, 4, 3)
    _, grads = rw_kernel_grad(sub, filt, RWKernelConfig(0))
    assert np.array_equal(grads.d_adjacency, np.zeros((4, 4)))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(50):
        worst = max(worst, check_instance(rng, deep=(k % 2 == 1)))
    assert worst <= 1e-4


def test_deep_weight_gradient_formula():
    # dK/dW_ij must equal [S (.) sum_p lambda_p M_p]_ij with both factors
    # rebuilt here from scratch
    rng = np.random.default_rng(5)
    sub = random_subgraph(rng, 4, 6, 2)
    filt = random_filter(rng, 3, 2)
    weights = rng.random((3, 6))
    cfg = RWKernelConfig(3, variant="deep")
    _, grads = rw_kernel_grad(sub, filt, cfg, weights)

    s = filt.attributes @ sub.attributes.T
    msum = np.zeros_like(s)
    ah, ag = np.eye(3), np.eye(6)
    for p in range(4):
        if p > 0:
            ah = ah @ filt.adjacency
            ag = ag @ sub.adjacency
        msum += cfg.lambdas[p] * (ah @ filt.attributes) @ (ag @ sub.attributes).T
    assert np.allclose(grads.d_deep_weights, s * msum, rtol=1e-12, atol=1e-12)


def test_gradient_errors_mirror_kernel_errors():
    rng = np.random.default_rng(6)
    sub = random_subgraph(rng, 3, 5, 2)
    filt = random_filter(rng, 3, 2)
    with pytest.raises(ValueError):
        rw_kernel_grad(sub, filt, RWKernelConfig(1, variant="deep"))
    filt_bad = random_filter(rng, 3, 4)
    with pytest.raises(ValueError):
        rw_kernel_grad(sub, filt_bad, RWKernelConfig(1))


# (variant, attribute width d, walk length P); d = 1 is imdb's degree feature.
# The d = 3, P = 3 instances keep their original ids. With 3 filters of 4
# nodes and k_max = 7, plain takes the Gram form for d in {1, 3} and for
# d = 8 at P = 0, and the Hadamard form for d = 8 at P in {1, 3}.
STACKED_CASES = [
    pytest.param(variant, d, p_steps, id=variant if (d, p_steps) == (3, 3) else f"{variant}-d{d}-P{p_steps}")
    for variant in ("plain", "deep") for d in (1, 3, 8) for p_steps in (0, 1, 3)
]


def fd_x_sub_grad(attr_h, adj_h, x_sub, adj_g, cfg, weights, gout):
    """Central differences of sum gout * K over every entry of x_sub.

    The kernel is quadratic in x_sub, so central differences are exact up to
    rounding at any step; a large step keeps the rounding error small.
    """
    from kergnn.kernels import stacked_kernel_forward

    def loss():
        return float(np.sum(gout * stacked_kernel_forward(attr_h, adj_h, x, adj_g, cfg, weights)[0]))

    step = 0.5
    x = x_sub.copy()
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + step
        up = loss()
        x[idx] = orig - step
        down = loss()
        x[idx] = orig
        grad[idx] = (up - down) / (2 * step)
    return grad


@pytest.mark.parametrize("variant,d,p_steps", STACKED_CASES)
def test_stacked_backward_matches_scalar_gradients(variant, d, p_steps):
    # the training fast path and the scalar closed form must agree: the
    # stacked gradient of sum_{v,i} gout[v,i] K[v,i] equals the gout-weighted
    # sum of per-(subgraph, filter) scalar gradients, for the filter side and
    # for x_sub, the gradient passed on to the previous layer's features
    from kergnn.graphs import extract_subgraph, stack_subgraphs
    from kergnn.kernels import filter_grads, stacked_kernel_backward, stacked_kernel_forward
    from kergnn.model import KerGNNLayer

    from conftest import random_graph

    rng = np.random.default_rng(77)
    g = random_graph(rng, 6, 0.5, d=d)
    cfg = RWKernelConfig(p_steps, variant=variant)
    filters = [random_filter(rng, 4, d) for _ in range(3)]
    weights = [rng.random((4, 7)) for _ in filters] if cfg.is_deep else None
    layer = KerGNNLayer(filters, cfg, hops=1, k_max=7, deep_weights=weights)

    stack = stack_subgraphs(g, 1, 7)
    attr_h, adj_h, w_stack = layer.attributes, layer.adjacency, layer.deep_weights
    x_sub = stack.gather(g.attributes)
    values, cache = stacked_kernel_forward(attr_h, adj_h, x_sub, stack.adjacency, cfg, w_stack)
    gout = rng.normal(size=values.shape)
    d_w, d_xsub = stacked_kernel_backward(cache, gout)
    d_xh, d_adj = filter_grads(cache.filters)

    want_xsub = np.zeros_like(x_sub)
    for i, filt in enumerate(filters):
        want_attr = np.zeros_like(filt.attributes)
        want_adj = np.zeros_like(filt.adjacency)
        want_w = np.zeros((4, 7)) if cfg.is_deep else None
        for v in range(g.num_nodes):
            sub = extract_subgraph(g, v, 1, 7)
            value, grads = rw_kernel_grad(sub, filt, cfg, weights[i] if weights else None)
            assert value == pytest.approx(values[v, i], rel=1e-9)
            want_attr += gout[v, i] * grads.d_attributes
            want_adj += gout[v, i] * grads.d_adjacency
            if cfg.is_deep:
                want_w += gout[v, i] * grads.d_deep_weights
            else:
                # the plain kernel is symmetric in its two graphs, so the
                # filter-side gradient with the roles swapped is d/dx_sub
                swapped, sub_grads = rw_kernel_grad(filt, sub, cfg)
                assert swapped == pytest.approx(value, rel=1e-9)
                want_xsub[v] += gout[v, i] * sub_grads.d_attributes
        assert np.allclose(d_xh[i], want_attr, rtol=1e-9, atol=1e-9)
        assert np.allclose(d_adj[i], want_adj, rtol=1e-9, atol=1e-9)
        if cfg.is_deep:
            assert np.allclose(d_w[i], want_w, rtol=1e-9, atol=1e-9)
        else:
            assert d_w is None
    if cfg.is_deep:
        want_xsub = fd_x_sub_grad(attr_h, adj_h, x_sub, stack.adjacency, cfg, w_stack, gout)
    assert np.allclose(d_xsub, want_xsub, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("d,gram", [(1, True), (17, True), (18, False), (89, False)])
def test_plain_stacked_kernel_keeps_the_smaller_intermediate(d, gram):
    # paper layer, 16 filters of 6 nodes on subgraphs of <= 10 nodes, P = 2:
    # the Gram maps hold 3 d^2 entries per subgraph, the Hadamard tensors
    # 16 * 6 * 10 = 960; one-hot labels make d wide (89 on DD), where the
    # Gram maps would be ~25x larger
    from kergnn.kernels import stacked_kernel_forward

    f, n, big_n, k = 16, 6, 5, 10
    rng = np.random.default_rng(d)
    attr_h, x_sub = rng.random((f, n, d)), rng.random((big_n, k, d))
    adj_h, adj_g = np.zeros((f, n, n)), np.zeros((big_n, k, k))
    _, cache = stacked_kernel_forward(attr_h, adj_h, x_sub, adj_g, RWKernelConfig(2))
    assert (cache.phi_g is not None, cache.msum is not None) == (gram, not gram)


@pytest.mark.parametrize("variant,d,p_steps", STACKED_CASES)
def test_skipping_the_x_sub_gradient_keeps_every_filter_gradient(variant, d, p_steps):
    # need_x=False drops the Gram form's dlt sum and the Hadamard form's zv
    # Horner sum; the filter-side gradients must stay the same bit for bit.
    # A forward has one backward, so each backward gets a forward of its own
    from kergnn.kernels import filter_grads, stacked_kernel_backward, stacked_kernel_forward

    rng = np.random.default_rng(5)
    f, n, big_n, k = 3, 4, 6, 7
    cfg = RWKernelConfig(p_steps, variant=variant)
    attr_h, x_sub = rng.normal(size=(f, n, d)), rng.normal(size=(big_n, k, d))
    adj_h = rng.random((f, n, n))
    adj_h = adj_h + adj_h.transpose(0, 2, 1)
    adj_g = (rng.random((big_n, k, k)) < 0.4).astype(float)
    adj_g = np.triu(adj_g, 1) + np.triu(adj_g, 1).transpose(0, 2, 1)
    weights = rng.random((f, n, k)) if cfg.is_deep else None
    gout = rng.normal(size=(big_n, f))

    def backward(need_x):
        _, cache = stacked_kernel_forward(attr_h, adj_h, x_sub, adj_g, cfg, weights)
        d_w, d_xsub = stacked_kernel_backward(cache, gout, need_x)
        return (*filter_grads(cache.filters), d_w, d_xsub)

    full = backward(True)
    skipped = backward(False)
    assert skipped[3] is None and full[3].shape == x_sub.shape
    for want, got in zip(full[:3], skipped[:3]):
        assert (want is None and got is None) or want.tobytes() == got.tobytes()


def _random_stack(rng, variant, f=3, n=4, d=2, big_n=9, k=5, p_steps=3):
    """(attr_h, adj_h, x_sub, adj_g, cfg, weights) of random symmetric filters
    and padded subgraphs; weights is None for the plain variant."""
    cfg = RWKernelConfig(p_steps, variant=variant)
    attr_h, x_sub = rng.normal(size=(f, n, d)), rng.normal(size=(big_n, k, d))
    adj_h = rng.random((f, n, n))
    adj_h = adj_h + adj_h.transpose(0, 2, 1)
    adj_g = (rng.random((big_n, k, k)) < 0.4).astype(float)
    adj_g = np.triu(adj_g, 1) + np.triu(adj_g, 1).transpose(0, 2, 1)
    weights = rng.random((f, n, k)) if cfg.is_deep else None
    return attr_h, adj_h, x_sub, adj_g, cfg, weights


@pytest.mark.parametrize("variant,gram", [("plain", True), ("plain", False), ("deep", False)])
def test_chunks_sharing_a_filter_side_sum_its_gradients(variant, gram):
    # a stack cut into three chunks that read one FilterSide: each backward
    # returns its own chunk's d_weights and d_x_sub and adds into the side,
    # whose filter gradients are those of the whole stack, summed before the
    # Horner and split sums (another summation order, so to 1e-12)
    from kergnn.kernels import filter_grads, filter_side, stacked_kernel_backward, stacked_kernel_forward

    rng = np.random.default_rng(31)
    attr_h, adj_h, x_sub, adj_g, cfg, weights = _random_stack(rng, variant)
    gout = rng.normal(size=(len(x_sub), len(attr_h)))
    _, cache = stacked_kernel_forward(attr_h, adj_h, x_sub, adj_g, cfg, weights,
                                      filters=filter_side(attr_h, adj_h, cfg, gram))
    whole_w, whole_xsub = stacked_kernel_backward(cache, gout)
    whole = filter_grads(cache.filters)

    shared = filter_side(attr_h, adj_h, cfg, gram)
    for lo, hi in [(0, 2), (2, 7), (7, 9)]:
        _, cache = stacked_kernel_forward(attr_h, adj_h, x_sub[lo:hi], adj_g[lo:hi], cfg, weights,
                                          filters=shared)
        assert cache.filters is shared
        d_w, d_xsub = stacked_kernel_backward(cache, gout[lo:hi])
        assert np.allclose(d_xsub, whole_xsub[lo:hi], rtol=1e-12, atol=1e-12)
        if cfg.is_deep:
            want_w, _ = stacked_kernel_backward(
                stacked_kernel_forward(attr_h, adj_h, x_sub[lo:hi], adj_g[lo:hi], cfg, weights)[1],
                gout[lo:hi])
            assert d_w.tobytes() == want_w.tobytes()
        else:
            assert d_w is None and whole_w is None
    for got, want in zip(filter_grads(shared), whole):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("variant,gram", [("plain", True), ("plain", False), ("deep", False)])
def test_a_second_backward_of_one_forward_raises(variant, gram):
    # every backward adds into its forward's filter side, so a repeated
    # backward would double the filter gradients: it raises and adds nothing
    from kergnn.graphs import stack_subgraphs
    from kergnn.kernels import (filter_grads, filter_side, gram_maps, gram_maps_forward,
                                stacked_kernel_backward, stacked_kernel_forward)

    from conftest import random_graph

    rng = np.random.default_rng(32)
    attr_h, adj_h, x_sub, adj_g, cfg, weights = _random_stack(rng, variant)
    gout = rng.normal(size=(len(x_sub), len(attr_h)))
    side = filter_side(attr_h, adj_h, cfg, gram)
    with pytest.raises(ValueError, match="no backward has added"):
        filter_grads(side)
    _, cache = stacked_kernel_forward(attr_h, adj_h, x_sub, adj_g, cfg, weights, filters=side)
    stacked_kernel_backward(cache, gout)
    once = [grad.tobytes() for grad in filter_grads(side)]
    for need_x in (True, False):
        with pytest.raises(ValueError, match="has had its backward"):
            stacked_kernel_backward(cache, gout, need_x)
    assert [grad.tobytes() for grad in filter_grads(side)] == once
    if gram:
        g = random_graph(rng, 6, 0.5, d=attr_h.shape[2])
        stack = stack_subgraphs(g, 1, 5)
        maps = gram_maps(stack.gather(g.attributes), stack.adjacency, cfg.P)
        _, cache = gram_maps_forward(attr_h, adj_h, maps, cfg)
        stacked_kernel_backward(cache, gout[:6], need_x=False)
        with pytest.raises(ValueError, match="has had its backward"):
            stacked_kernel_backward(cache, gout[:6], need_x=False)


def test_gram_maps_forward_equals_the_stacked_forward():
    # one map array of walk length 3 serves every P <= 3 and any lambdas,
    # with values and filter gradients equal to the stacked forward's bit for bit
    from kergnn.graphs import stack_subgraphs
    from kergnn.kernels import (filter_grads, filter_side, gram_maps, gram_maps_forward,
                                stacked_kernel_backward, stacked_kernel_forward)

    from conftest import random_graph

    rng = np.random.default_rng(8)
    g = random_graph(rng, 9, 0.4, d=3)
    stack = stack_subgraphs(g, 1, 5)
    x_sub = stack.gather(g.attributes)
    maps = gram_maps(x_sub, stack.adjacency, 3)
    assert maps.shape == (9, 4, 9)
    attr_h, adj_h = rng.normal(size=(4, 3, 3)), rng.random((4, 3, 3))
    adj_h = adj_h + adj_h.transpose(0, 2, 1)
    for p_steps in range(4):
        assert maps[:, :p_steps + 1].tobytes() == gram_maps(x_sub, stack.adjacency, p_steps).tobytes()
        for lambdas in (None, rng.random(p_steps + 1)):
            cfg = RWKernelConfig(p_steps, lambdas)
            want, want_cache = stacked_kernel_forward(attr_h, adj_h, x_sub, stack.adjacency, cfg,
                                                      filters=filter_side(attr_h, adj_h, cfg, gram=True))
            got, got_cache = gram_maps_forward(attr_h, adj_h, maps, cfg)
            assert got.tobytes() == want.tobytes()
            gout = rng.normal(size=got.shape)
            for cache in (want_cache, got_cache):
                stacked_kernel_backward(cache, gout, need_x=False)
            for a, b in zip(filter_grads(want_cache.filters), filter_grads(got_cache.filters)):
                assert a.tobytes() == b.tobytes()
            with pytest.raises(ValueError, match="no subgraph-feature gradient"):
                stacked_kernel_backward(got_cache, gout)
    with pytest.raises(ValueError, match="no Gram form"):
        gram_maps_forward(attr_h, adj_h, maps, RWKernelConfig(1, variant="deep"))
