import numpy as np
import pytest

from kergnn.errors import ConfigError
from kergnn.graphs import Graph, Subgraph, extract_subgraph
from kergnn.kernels import (
    RWKernelConfig,
    SlotLayout,
    direct_product_graph,
    filter_side,
    gram_maps,
    gram_maps_forward,
    rw_kernel,
    rw_kernel_oracle,
    stacked_kernel_forward,
    walk_kernel,
)

from conftest import complete_graph, path_graph, random_graph, random_filter, random_subgraph


def single_node(attr):
    return Graph(1, np.zeros((1, 1)), np.array([attr], dtype=float))


def unpad(sub: Subgraph):
    return sub.adjacency[: sub.size, : sub.size], sub.attributes[: sub.size]


# ---------------------------------------------------------------------------
# Direct product graph
# ---------------------------------------------------------------------------


def test_direct_product_single_nodes():
    a, b = [1.0, 2.0], [3.0, -1.0]
    a_cross, s = direct_product_graph(single_node(a), single_node(b))
    assert a_cross.shape == (1, 1) and a_cross[0, 0] == 0.0
    assert s.shape == (1,)
    assert s[0] == pytest.approx(np.dot(a, b))


def test_direct_product_single_edges():
    # hand enumeration of Definition-style edges: {(1,1'),(2,2')} and {(1,2'),(2,1')}
    e = path_graph(2)
    a_cross, s = direct_product_graph(e, e)
    assert a_cross.shape == (4, 4)
    assert int(np.count_nonzero(a_cross)) == 4  # 2 undirected edges
    # column-major pair layout: (i, j) -> j*2 + i
    assert a_cross[0, 3] == a_cross[3, 0] == 1.0  # {(0,0'),(1,1')}
    assert a_cross[1, 2] == a_cross[2, 1] == 1.0  # {(1,0'),(0,1')}


def test_direct_product_triangles_matches_kron():
    tri = complete_graph(3)
    a_cross, s = direct_product_graph(tri, tri)
    assert np.array_equal(a_cross, np.kron(tri.adjacency, tri.adjacency))
    assert int(np.count_nonzero(a_cross)) == 36  # 18 undirected edges
    assert np.array_equal(s, np.ones(9))


def test_direct_product_width_mismatch():
    with pytest.raises(ValueError):
        direct_product_graph(single_node([1.0]), single_node([1.0, 2.0]))


# ---------------------------------------------------------------------------
# Oracle values
# ---------------------------------------------------------------------------


def test_oracle_single_nodes_p0():
    a, b = [0.5, 2.0], [4.0, -3.0]
    value = rw_kernel_oracle(single_node(a), single_node(b), RWKernelConfig(0))
    assert value == pytest.approx(np.dot(a, b) ** 2)


def test_oracle_zero_lambdas():
    rng = np.random.default_rng(0)
    g1, g2 = random_graph(rng, 5, 0.5, 2), random_graph(rng, 4, 0.5, 2)
    cfg = RWKernelConfig(3, (0.0, 0.0, 0.0, 0.0))
    assert rw_kernel_oracle(g1, g2, cfg) == 0.0


def test_oracle_path3_vs_triangle_golden():
    # With unit scalar attributes the quadratic form factorizes over the
    # Kronecker product: K_p = (sum A_path^p) * (sum A_tri^p), giving
    # p=0: 3*3=9, p=1: 4*6=24, p=2: 6*12=72, total 105.
    value = rw_kernel_oracle(path_graph(3), complete_graph(3), RWKernelConfig(2))
    assert value == pytest.approx(105.0, abs=1e-12)


def test_oracle_symmetric():
    rng = np.random.default_rng(1)
    cfg = RWKernelConfig(3)
    for _ in range(10):
        g1 = random_graph(rng, int(rng.integers(2, 7)), 0.5, 3)
        g2 = random_graph(rng, int(rng.integers(2, 7)), 0.5, 3)
        k12 = rw_kernel_oracle(g1, g2, cfg)
        k21 = rw_kernel_oracle(g2, g1, cfg)
        assert k12 == pytest.approx(k21, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Hadamard form vs oracle
# ---------------------------------------------------------------------------


def test_rw_kernel_single_node_p0():
    a, b = [1.5, -2.0], [0.5, 1.0]
    sub = Subgraph(0, (0,), np.zeros((1, 1)), np.array([a]), 1)
    filt = random_filter(np.random.default_rng(0), 1, 2)
    filt.attributes[:] = [b]
    value = rw_kernel(sub, filt, RWKernelConfig(0))
    assert value == pytest.approx(np.dot(a, b) ** 2)


def test_rw_kernel_equals_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        p_steps = int(rng.integers(0, 5))
        g = random_graph(rng, n, 0.5, d)
        v = int(rng.integers(0, n))
        sub = extract_subgraph(g, v, hops=1, k_max=n + int(rng.integers(0, 3)))
        filt = random_filter(rng, int(rng.integers(1, 7)), d)
        cfg = RWKernelConfig(p_steps)
        fast = rw_kernel(sub, filt, cfg)
        slow = rw_kernel_oracle((filt.adjacency, filt.attributes), unpad(sub), cfg)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)


def test_rw_kernel_padding_invariance():
    rng = np.random.default_rng(7)
    cfg = RWKernelConfig(3)
    for _ in range(20):
        size = int(rng.integers(1, 6))
        sub = random_subgraph(rng, size, size, 3)
        filt = random_filter(rng, 4, 3)
        base = rw_kernel(sub, filt, cfg)
        padded = Subgraph(
            sub.center, sub.node_ids,
            np.pad(sub.adjacency, ((0, 5), (0, 5))),
            np.pad(sub.attributes, ((0, 5), (0, 0))),
            sub.size,
        )
        assert abs(rw_kernel(padded, filt, cfg) - base) <= 1e-12


def test_rw_kernel_linear_in_lambdas():
    rng = np.random.default_rng(8)
    sub = random_subgraph(rng, 5, 7, 2)
    filt = random_filter(rng, 4, 2)
    la = tuple(rng.random(4))
    lb = tuple(rng.random(4))
    ka = rw_kernel(sub, filt, RWKernelConfig(3, la))
    kb = rw_kernel(sub, filt, RWKernelConfig(3, lb))
    kab = rw_kernel(sub, filt, RWKernelConfig(3, tuple(a + b for a, b in zip(la, lb))))
    assert kab == pytest.approx(ka + kb, rel=1e-12, abs=1e-12)


def test_kernel_matrix_is_psd():
    rng = np.random.default_rng(9)
    cfg = RWKernelConfig(2)
    graphs = [random_graph(rng, int(rng.integers(2, 6)), 0.5, 2) for _ in range(5)]
    gram = np.array([[rw_kernel_oracle(a, b, cfg) for b in graphs] for a in graphs])
    assert np.linalg.eigvalsh(gram).min() >= -1e-8


def test_deep_variant_requires_weights():
    rng = np.random.default_rng(10)
    sub = random_subgraph(rng, 3, 5, 2)
    filt = random_filter(rng, 3, 2)
    with pytest.raises(ValueError):
        rw_kernel(sub, filt, RWKernelConfig(1, variant="deep"))
    with pytest.raises(ValueError):
        rw_kernel(sub, filt, RWKernelConfig(1, variant="deep"), np.ones((2, 2)))


def test_deep_variant_has_no_gram_form():
    # given a plain Gram-form filter side, the stacked forward refuses the
    # deep variant, as filter_side does, rather than return the plain kernel
    # without the pair weights; left to choose, it takes the Hadamard form
    rng = np.random.default_rng(13)
    f, n, d, big_n, k = 2, 3, 2, 4, 5
    cfg = RWKernelConfig(1, variant="deep")
    attr_h, x_sub = rng.normal(size=(f, n, d)), rng.normal(size=(big_n, k, d))
    adj_h = np.ones((f, n, n)) - np.eye(n)
    adj_g = np.ones((big_n, k, k)) - np.eye(k)
    weights = rng.random((f, n, k))
    plain_gram = filter_side(attr_h, adj_h, RWKernelConfig(1), gram=True)
    with pytest.raises(ValueError, match="no Gram form"):
        stacked_kernel_forward(attr_h, adj_h, x_sub, adj_g, cfg, weights, filters=plain_gram)
    with pytest.raises(ValueError, match="no Gram form"):
        filter_side(attr_h, adj_h, cfg, gram=True)
    chosen, cache = stacked_kernel_forward(attr_h, adj_h, x_sub, adj_g, cfg, weights)
    assert cache.phi_g is None
    hadamard, _ = stacked_kernel_forward(attr_h, adj_h, x_sub, adj_g, cfg, weights,
                                         filters=filter_side(attr_h, adj_h, cfg, gram=False))
    assert chosen.tobytes() == hadamard.tobytes()


def test_a_filter_side_serves_only_its_config():
    # the side fixes the filters, the walk length, the lambdas and the form,
    # so a forward of other filter arrays or of another config, or a forward
    # from Gram maps given a Hadamard-form side, raises instead of mixing the two
    rng = np.random.default_rng(14)
    f, n, d, big_n, k = 2, 3, 2, 4, 5
    attr_h, x_sub = rng.normal(size=(f, n, d)), rng.normal(size=(big_n, k, d))
    adj_h = np.ones((f, n, n)) - np.eye(n)
    adj_g = np.ones((big_n, k, k)) - np.eye(k)
    cfg = RWKernelConfig(2)
    for other in (RWKernelConfig(1), RWKernelConfig(2, (1.0, 0.5, 0.25))):
        for gram in (True, False):
            with pytest.raises(ValueError, match="filter side built for"):
                stacked_kernel_forward(attr_h, adj_h, x_sub, adj_g, cfg,
                                       filters=filter_side(attr_h, adj_h, other, gram))
    maps = gram_maps(x_sub, adj_g, 2)
    with pytest.raises(ValueError, match="Gram-form filter side"):
        gram_maps_forward(attr_h, adj_h, maps, cfg, filters=filter_side(attr_h, adj_h, cfg, False))
    # equal values in other arrays are other filters to the side: it holds
    # no copy, and the gradients it sums are read against the arrays it has.
    # A view of the same memory in the same layout is the same filters
    for gram in (True, False):
        side = filter_side(attr_h, adj_h, cfg, gram)
        for other_attr, other_adj in ((attr_h.copy(), adj_h), (attr_h, adj_h.copy()),
                                      (attr_h[:1], adj_h[:1]), (attr_h, adj_h.transpose(0, 2, 1))):
            with pytest.raises(ValueError, match="other filter arrays"):
                stacked_kernel_forward(other_attr, other_adj, x_sub, adj_g, cfg, filters=side)
        viewed, _ = stacked_kernel_forward(attr_h.view(), adj_h[:], x_sub, adj_g, cfg, filters=side)
        own, _ = stacked_kernel_forward(attr_h, adj_h, x_sub, adj_g, cfg, filters=side)
        assert viewed.tobytes() == own.tobytes()
    with pytest.raises(ValueError, match="other filter arrays"):
        gram_maps_forward(attr_h.copy(), adj_h, maps, cfg, filters=filter_side(attr_h, adj_h, cfg, True))


def test_deep_weights_modulate_pairs():
    rng = np.random.default_rng(11)
    sub = random_subgraph(rng, 3, 5, 2)
    filt = random_filter(rng, 3, 2)
    cfg_deep = RWKernelConfig(2, variant="deep")
    ones = np.ones((3, 5))
    plain = rw_kernel(sub, filt, RWKernelConfig(2))
    assert rw_kernel(sub, filt, cfg_deep, ones) == pytest.approx(plain, rel=1e-12)
    assert rw_kernel(sub, filt, cfg_deep, 2.0 * ones) == pytest.approx(2.0 * plain, rel=1e-12)


def test_width_mismatch_rejected():
    rng = np.random.default_rng(12)
    sub = random_subgraph(rng, 3, 5, 2)
    filt = random_filter(rng, 3, 4)
    with pytest.raises(ValueError):
        rw_kernel(sub, filt, RWKernelConfig(1))


def test_normalized_kernel_of_self_is_one():
    rng = np.random.default_rng(13)
    sub = random_subgraph(rng, 4, 4, 2)
    filt = random_filter(rng, 4, 2)
    filt.adjacency[:] = sub.adjacency
    filt.attributes[:] = sub.attributes
    value = rw_kernel(sub, filt, RWKernelConfig(2), normalize=True)
    assert value == pytest.approx(1.0, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        RWKernelConfig(-1)
    with pytest.raises(ValueError):
        RWKernelConfig(2, (1.0, 1.0))  # needs P+1 entries
    with pytest.raises(ValueError):
        RWKernelConfig(1, (1.0, -0.5))
    with pytest.raises(ValueError):
        RWKernelConfig(1, variant="geometric")
    # nan slipped past the old `x < 0` check and gave a nan kernel value
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            RWKernelConfig(1, (1.0, bad))


def test_walk_kernel_symmetric_in_arguments():
    rng = np.random.default_rng(14)
    g1 = random_graph(rng, 5, 0.5, 3)
    g2 = random_graph(rng, 6, 0.5, 3)
    cfg = RWKernelConfig(3)
    k12 = walk_kernel(g1.adjacency, g1.attributes, g2.adjacency, g2.attributes, cfg)
    k21 = walk_kernel(g2.adjacency, g2.attributes, g1.adjacency, g1.attributes, cfg)
    assert k12 == pytest.approx(k21, rel=1e-12)


def test_slot_layout_from_sizes():
    # subgraph v's real slots are its first sizes[v] of k, in row-major order
    layout = SlotLayout.from_sizes([2, 1, 3], 4)
    assert layout.real.tolist() == [0, 1, 4, 8, 9, 10]
    assert layout.starts.tolist() == [0, 2, 3]
    assert layout.slots.tolist() == [0, 1, 0, 0, 1, 2]
    assert all(a.dtype == np.int64 for a in (layout.real, layout.starts, layout.slots))
    empty = SlotLayout.from_sizes(np.zeros(0, dtype=np.int64), 4)
    assert empty.real.size == empty.starts.size == empty.slots.size == 0


@pytest.mark.parametrize("sizes", [[0], [2, 0, 1], [3, 0]])
def test_slot_layout_rejects_a_subgraph_without_a_real_slot(sizes):
    # a segment sum by reduceat would give an empty run its neighbour's row
    with pytest.raises(ValueError, match="every subgraph must hold a real slot"):
        SlotLayout.from_sizes(sizes, 4)
