"""Property tests of the random walk kernel on random small graphs.

The plain kernel is symmetric in its two graphs and positive semidefinite
(it is an inner product of the per-step maps X^T A^p X), and the stacked
training path equals the scalar `walk_kernel` for every (subgraph, filter)
pair, in both plain forms and in the deep variant. On packed subgraph stacks
the Hadamard form, which runs over real slots only, also gives every gradient
of the scalar `rw_kernel_grad`, and the stack's scatter is the adjoint of its
gather.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from kergnn.graphs import Graph, SubgraphStack, extract_subgraph, stack_subgraphs
from kergnn.kernels import (
    RWKernelConfig,
    filter_grads,
    filter_side,
    rw_kernel_grad,
    stacked_kernel_backward,
    stacked_kernel_forward,
    walk_kernel,
)
from kergnn.model import GraphFilter

# derandomized so the suite is deterministic; every run explores the same examples
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

REALS = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
UNIT = st.floats(0.0, 1.0, allow_subnormal=False)
LAMBDAS = st.floats(0.0, 1.0, allow_subnormal=False)


def _symmetric(upper: np.ndarray) -> np.ndarray:
    """Symmetric zero-diagonal matrices from the strict upper triangle(s) of `upper`."""
    tri = np.triu(upper, k=1)
    return tri + np.swapaxes(tri, -1, -2)


@st.composite
def graphs(draw, d, max_nodes=5):
    """(adjacency, attributes) of a random binary graph with d-wide attributes."""
    n = draw(st.integers(1, max_nodes))
    edges = draw(hnp.arrays(np.float64, (n, n), elements=st.sampled_from([0.0, 1.0])))
    return _symmetric(edges), draw(hnp.arrays(np.float64, (n, d), elements=REALS))


@st.composite
def kernel_configs(draw, max_p=3):
    p_steps = draw(st.integers(0, max_p))
    return RWKernelConfig(p_steps, tuple(draw(st.lists(LAMBDAS, min_size=p_steps + 1,
                                                       max_size=p_steps + 1))))


def _abs_kernel(adj_h, attr_h, adj_g, attr_g, cfg, weights=None):
    """The kernel of the entrywise absolute values: bounds |K| and the rounding
    error of every summation order, so it scales the comparison tolerance."""
    weights = None if weights is None else np.abs(weights)
    return walk_kernel(np.abs(adj_h), np.abs(attr_h), np.abs(adj_g), np.abs(attr_g), cfg, weights)


@PROPERTY_SETTINGS
@given(data=st.data(), d=st.integers(1, 3), cfg=kernel_configs())
def test_walk_kernel_is_symmetric(data, d, cfg):
    (a1, x1), (a2, x2) = data.draw(graphs(d)), data.draw(graphs(d))
    k12 = walk_kernel(a1, x1, a2, x2, cfg)
    k21 = walk_kernel(a2, x2, a1, x1, cfg)
    assert abs(k12 - k21) <= 1e-9 * _abs_kernel(a1, x1, a2, x2, cfg)


@PROPERTY_SETTINGS
@given(data=st.data(), d=st.integers(1, 3), cfg=kernel_configs())
def test_plain_gram_matrix_is_psd(data, d, cfg):
    gs = [data.draw(graphs(d)) for _ in range(6)]
    gram = np.array([[walk_kernel(*a, *b, cfg) for b in gs] for a in gs])
    eig = np.linalg.eigvalsh((gram + gram.T) / 2.0)
    assert eig.min() >= -1e-9 * max(np.abs(eig).max(), 1e-300)


@st.composite
def stacked_inputs(draw, form):
    """(attr_h, adj_h, x_sub, adj_g, cfg, weights) with d chosen so that the
    plain variant takes `form`: "gram" needs (P+1) d^2 <= f n k, "hadamard"
    the reverse; "deep" is the deep variant with pair weights."""
    f, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    big_n, k = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cfg = draw(kernel_configs())
    d_gram = int(np.sqrt(f * n * k / (cfg.P + 1)))  # widest d of the Gram form
    if form == "gram":
        assume(d_gram >= 1)
        d = draw(st.integers(1, d_gram))
    elif form == "hadamard":
        d = draw(st.integers(d_gram + 1, d_gram + 3))
    else:
        d = draw(st.integers(1, 4))
        cfg = RWKernelConfig(cfg.P, cfg.lambdas, "deep")
    adj_h = _symmetric(draw(hnp.arrays(np.float64, (f, n, n), elements=UNIT)))
    attr_h = draw(hnp.arrays(np.float64, (f, n, d), elements=REALS))
    # padded subgraphs: slots at index >= size are zero in both matrices
    sizes = np.array(draw(st.lists(st.integers(1, k), min_size=big_n, max_size=big_n)))
    real = (np.arange(k)[None, :] < sizes[:, None]).astype(float)
    edges = draw(hnp.arrays(np.float64, (big_n, k, k), elements=st.sampled_from([0.0, 1.0])))
    adj_g = _symmetric(edges) * real[:, :, None] * real[:, None, :]
    x_sub = draw(hnp.arrays(np.float64, (big_n, k, d), elements=REALS)) * real[:, :, None]
    weights = draw(hnp.arrays(np.float64, (f, n, k), elements=UNIT)) if cfg.is_deep else None
    return attr_h, adj_h, x_sub, adj_g, cfg, weights


@pytest.mark.parametrize("form", ["gram", "hadamard", "deep"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_stacked_forward_equals_walk_kernel(form, data):
    attr_h, adj_h, x_sub, adj_g, cfg, weights = data.draw(stacked_inputs(form))
    values, cache = stacked_kernel_forward(attr_h, adj_h, x_sub, adj_g, cfg, weights)
    assert (cache.phi_g is not None) == (form == "gram")
    assert values.shape == (x_sub.shape[0], attr_h.shape[0])
    for v in range(x_sub.shape[0]):
        for i in range(attr_h.shape[0]):
            w = None if weights is None else weights[i]
            want = walk_kernel(adj_h[i], attr_h[i], adj_g[v], x_sub[v], cfg, w)
            scale = _abs_kernel(adj_h[i], attr_h[i], adj_g[v], x_sub[v], cfg, w)
            assert abs(values[v, i] - want) <= 1e-9 * scale


@st.composite
def padded_batches(draw, d):
    """(graphs, hops, k_max): 1-4 random graphs of 0-5 nodes with d-wide
    attributes. Among the drawn batches are 0-node graphs, isolated nodes (one
    real slot), rows with every slot real, and slots no subgraph fills."""
    hops, k_max = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        adj, attr = draw(graphs(d, max_nodes=5)) if draw(st.booleans()) else (np.zeros((0, 0)), np.zeros((0, d)))
        batch.append(Graph(len(adj), adj, attr))
    return batch, hops, k_max


@PROPERTY_SETTINGS
@given(data=st.data())
def test_gather_and_scatter_are_adjoint_over_the_real_slots(data):
    # on a packed stack scatter is the adjoint of gather, gather writes +0.0 to
    # every padded slot, and scatter never reads one
    d = data.draw(st.integers(1, 3))
    batch, hops, k_max = data.draw(padded_batches(d))
    stack = SubgraphStack.concatenate([stack_subgraphs(g, hops, k_max) for g in batch], k_max)
    nodes = sum(g.num_nodes for g in batch)
    x = data.draw(hnp.arrays(np.float64, (nodes, d), elements=REALS))
    y = data.draw(hnp.arrays(np.float64, (nodes, k_max, d), elements=REALS))
    padded = np.ones(nodes * k_max, dtype=bool)
    padded[stack.layout.real] = False
    padded = padded.reshape(nodes, k_max)

    gx, sy = stack.gather(x), stack.scatter(y)
    assert gx.shape == y.shape and sy.shape == x.shape
    # the sum of the entrywise absolute products bounds both rounding errors
    assert abs(np.vdot(gx, y) - np.vdot(x, sy)) <= 1e-12 * np.vdot(np.abs(gx), np.abs(y))
    assert gx[padded].tobytes() == np.zeros_like(gx[padded]).tobytes()
    planted = y.copy()
    planted[padded] = np.nan
    assert stack.scatter(planted).tobytes() == sy.tobytes()


@pytest.mark.parametrize("variant", ["plain", "deep"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_ragged_hadamard_form_equals_the_scalar_gradients(variant, data):
    # the Hadamard form on a packed stack, with its real-slot layout: values and
    # every gradient equal the gout-weighted per-(subgraph, filter) scalar ones
    d, f, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    cfg = data.draw(kernel_configs())
    cfg = RWKernelConfig(cfg.P, cfg.lambdas, variant)
    batch, hops, k_max = data.draw(padded_batches(d))
    adj_h = _symmetric(data.draw(hnp.arrays(np.float64, (f, n, n), elements=UNIT)))
    attr_h = data.draw(hnp.arrays(np.float64, (f, n, d), elements=REALS))
    weights = data.draw(hnp.arrays(np.float64, (f, n, k_max), elements=UNIT)) if cfg.is_deep else None
    stack = SubgraphStack.concatenate([stack_subgraphs(g, hops, k_max) for g in batch], k_max)
    x_sub = stack.gather(np.concatenate([g.attributes for g in batch]))
    values, cache = stacked_kernel_forward(attr_h, adj_h, x_sub, stack.adjacency, cfg, weights,
                                           filters=filter_side(attr_h, adj_h, cfg, gram=False),
                                           layout=stack.layout)
    gout = data.draw(hnp.arrays(np.float64, values.shape, elements=REALS))
    d_w, d_xsub = stacked_kernel_backward(cache, gout)
    d_xh, d_adj = filter_grads(cache.filters)

    subs = [extract_subgraph(g, v, hops, k_max) for g in batch for v in range(g.num_nodes)]
    assert values.shape == (len(subs), f)
    want = [np.zeros_like(attr_h), np.zeros_like(adj_h), np.zeros((f, n, k_max)), np.zeros_like(x_sub)]
    for v, sub in enumerate(subs):
        for i in range(f):
            filt = GraphFilter(n, adj_h[i], attr_h[i])
            w = None if weights is None else weights[i]
            value, grads = rw_kernel_grad(sub, filt, cfg, w)
            scale = _abs_kernel(adj_h[i], attr_h[i], sub.adjacency, sub.attributes, cfg, w)
            assert abs(values[v, i] - value) <= 1e-9 * scale
            # K is the same with the graphs' roles swapped and the weights
            # transposed, so the swapped filter-side gradient is d/dx_sub
            _, swapped = rw_kernel_grad(filt, sub, cfg, None if w is None else w.T)
            want[0][i] += gout[v, i] * grads.d_attributes
            want[1][i] += gout[v, i] * grads.d_adjacency
            if cfg.is_deep:
                want[2][i] += gout[v, i] * grads.d_deep_weights
            want[3][v] += gout[v, i] * swapped.d_attributes
    for got, ref in zip((d_xh, d_adj, d_w, d_xsub), want):
        if got is None:
            assert not cfg.is_deep
            continue
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-9 * max(np.abs(ref).max(initial=0.0), 1.0))
    if cfg.is_deep:
        unfilled = np.bincount(stack.layout.slots, minlength=k_max) == 0
        assert np.all(d_w[:, :, unfilled] == 0.0)
