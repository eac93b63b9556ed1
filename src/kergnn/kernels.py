"""P-step random walk kernels between attributed graphs.

Two routes compute the same quantity:

* `rw_kernel_oracle` materializes the direct product graph and evaluates
  sum_p lambda_p * s^T A_x^p s with explicit matrix powers. Slow, used as
  the reference in tests.
* `rw_kernel` uses the Hadamard identity

      K_p = sum_ij [ (X_H X_G^T) (.) (A_H^p X_H (A_G^p X_G)^T) ]_ij

  which never forms the product graph. The deep variant multiplies each
  (i, j) summand by a per-node-pair weight, shared across all p.

`rw_kernel_grad` returns the exact derivatives of the Hadamard form with
respect to the filter-side parameters from explicit matrix powers. These
scalar functions are the references. The stacked_* functions, the training
path, evaluate the same forward/backward over every subgraph of a graph and
every filter of a layer at once from the adjacencies alone: walks by
repeated products, backward sums by Horner's rule, no matrix power stored.
Tests pin them to the scalar functions. Two forms serve them:

* Gram form, plain variant only. Summing the Hadamard identity gives

      K_p = < X_H^T A_H^p X_H , X_G^T A_G^p X_G >_F

  a Frobenius product of explicit d x d feature maps per walk step, so all
  subgraph/filter pairs are one (N, (P+1)d^2) @ ((P+1)d^2, f) matmul.
* Hadamard form over the real subgraph slots only. A SlotLayout lists the R
  real slots of the N padded subgraphs; S and the walk sum are (R, f n)
  arrays, one row per real slot, each a single matmul (the walk sum of the
  side-by-side walks [V_0 .. V_P] with [lambda_0 U_0 .. lambda_P U_P]), and a
  kernel value is a segment sum over its subgraph's rows. The deep variant
  always takes this form, since its per-pair weights do not factor; they are
  read, and their gradient summed, by slot id.

The plain variant takes whichever form has fewer entries per subgraph:
(P+1) d^2 for the Gram maps, f n k for the Hadamard tensors. Both paths are
dominated by passes over these intermediates, so the smaller is also the
faster away from the boundary; wide features (one-hot node labels, a later
layer's num_filters) make the d^2 maps the larger. The rule counts all k
slots, though the Hadamard form runs over the real ones, so the form stays
a function of the shapes alone.

One helper forms every unweighted map X^T A^p X, the filters' and the
subgraphs'; `gram_maps` returns the subgraphs'. These do not depend on any
parameter when the features are raw attributes, so a caller may keep them
and start from them with `gram_maps_forward`: lambda_p is applied at use,
and steps 0..P of a longer walk's maps equal the maps of walk length P byte
for byte. A value is linear in its subgraph's maps, so a sum of values over
subgraphs is the value of their summed maps (the model keeps a lone first
layer's maps summed over each graph's subgraphs).
`stacked_kernel_backward(..., need_x=False)` skips the subgraph-feature
gradient, which a layer reading raw attributes has no use for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, plain_value

__all__ = [
    "RWKernelConfig",
    "KernelGradients",
    "direct_product_graph",
    "rw_kernel_oracle",
    "rw_kernel",
    "rw_kernel_grad",
    "walk_kernel",
    "stacked_kernel_forward",
    "stacked_kernel_backward",
    "gram_maps",
    "gram_maps_forward",
    "StackedKernelCache",
    "SlotLayout",
    "uses_gram_form",
]


@dataclass(frozen=True)
class RWKernelConfig:
    """Walk length P, per-step weights lambda_0..lambda_P, and variant.

    P is an integer >= 0 and lambdas a list, tuple or 1-D array of P+1 finite
    nonnegative reals (None: all 1.0); all three are stored as Python values,
    and a value of the wrong type raises ConfigError."""

    P: int
    lambdas: tuple = None
    variant: str = "plain"

    def __post_init__(self):
        P = plain_value("walk length P", self.P, int)
        if P < 0:
            raise ConfigError("P must be >= 0")
        lambdas = (1.0,) * (P + 1) if self.lambdas is None else self.lambdas
        if not isinstance(lambdas, (list, tuple, np.ndarray)) or getattr(lambdas, "ndim", 1) != 1:
            raise ConfigError(f"lambdas: expected a list, tuple or 1-D array of reals, got {lambdas!r}")
        lambdas = tuple(plain_value("lambdas", x, float) for x in lambdas)
        if len(lambdas) != P + 1:
            raise ConfigError(f"lambdas must have P+1 = {P + 1} entries, got {len(lambdas)}")
        if not all(0.0 <= x < np.inf for x in lambdas):  # also false for nan
            raise ConfigError(f"lambda weights must be finite and nonnegative, got {lambdas}")
        variant = plain_value("kernel variant", self.variant, str)
        if variant not in ("plain", "deep"):
            raise ConfigError(f"unknown kernel variant: {variant!r}")
        for name, value in (("P", P), ("lambdas", lambdas), ("variant", variant)):
            object.__setattr__(self, name, value)

    @property
    def is_deep(self) -> bool:
        return self.variant == "deep"


@dataclass
class KernelGradients:
    d_adjacency: np.ndarray
    d_attributes: np.ndarray
    d_deep_weights: np.ndarray | None = None


def _arrays(g) -> tuple:
    """(adjacency, attributes) from a Graph/Subgraph/GraphFilter or pair."""
    if isinstance(g, tuple):
        adj, attr = g
    else:
        adj, attr = g.adjacency, g.attributes
    return np.asarray(adj, dtype=np.float64), np.asarray(attr, dtype=np.float64)


# ---------------------------------------------------------------------------
# Direct product oracle
# ---------------------------------------------------------------------------


def direct_product_graph(g1, g2) -> tuple:
    """Adjacency of the direct product graph and the flattened similarities.

    Nodes of the product are pairs (i, j), i from g1 and j from g2, laid out
    column-major so that A_x = kron(A_2, A_1) and s = vec(X_1 X_2^T).
    """
    a1, x1 = _arrays(g1)
    a2, x2 = _arrays(g2)
    if x1.shape[1] != x2.shape[1]:
        raise ValueError(f"attribute widths differ: {x1.shape[1]} vs {x2.shape[1]}")
    a_cross = np.kron(a2, a1)
    s = (x1 @ x2.T).flatten(order="F")
    return a_cross, s


def rw_kernel_oracle(g1, g2, cfg: RWKernelConfig) -> float:
    """sum_p lambda_p * s^T A_x^p s via explicit matrix powers. Test oracle."""
    a_cross, s = direct_product_graph(g1, g2)
    power = np.eye(a_cross.shape[0])
    value = 0.0
    for p in range(cfg.P + 1):
        if p > 0:
            power = power @ a_cross
        value += cfg.lambdas[p] * float(s @ power @ s)
    return value


# ---------------------------------------------------------------------------
# Hadamard form
# ---------------------------------------------------------------------------


def walk_kernel(adj_h, attr_h, adj_g, attr_g, cfg: RWKernelConfig, pair_weights=None) -> float:
    """Hadamard-form kernel on raw arrays; H indexes rows, G columns."""
    adj_h = np.asarray(adj_h, dtype=np.float64)
    attr_h = np.asarray(attr_h, dtype=np.float64)
    adj_g = np.asarray(adj_g, dtype=np.float64)
    attr_g = np.asarray(attr_g, dtype=np.float64)
    if attr_h.shape[1] != attr_g.shape[1]:
        raise ValueError(f"attribute widths differ: {attr_h.shape[1]} vs {attr_g.shape[1]}")
    if cfg.is_deep:
        if pair_weights is None:
            raise ValueError("deep variant requires pair weights")
        pair_weights = np.asarray(pair_weights, dtype=np.float64)
        if pair_weights.shape != (adj_h.shape[0], adj_g.shape[0]):
            raise ValueError(
                f"pair weights shape {pair_weights.shape} != "
                f"({adj_h.shape[0]}, {adj_g.shape[0]})"
            )

    s = attr_h @ attr_g.T
    t = s * pair_weights if cfg.is_deep else s
    uh, vg = attr_h, attr_g
    value = cfg.lambdas[0] * float(np.sum(t * (uh @ vg.T)))
    for p in range(1, cfg.P + 1):
        uh = adj_h @ uh
        vg = adj_g @ vg
        value += cfg.lambdas[p] * float(np.sum(t * (uh @ vg.T)))
    return value


def rw_kernel(sub, filt, cfg: RWKernelConfig, deep_weights=None, normalize=False) -> float:
    """Kernel between a padded subgraph and a graph filter.

    Padded slots have zero attribute rows, so they contribute exact zeros.
    With normalize=True the value is divided by sqrt(K(sub,sub)*K(filt,filt))
    computed without pair weights; off by default.
    """
    value = walk_kernel(filt.adjacency, filt.attributes, sub.adjacency, sub.attributes, cfg, deep_weights)
    if not normalize:
        return value
    plain = RWKernelConfig(cfg.P, cfg.lambdas, "plain")
    k_ss = walk_kernel(sub.adjacency, sub.attributes, sub.adjacency, sub.attributes, plain)
    k_ff = walk_kernel(filt.adjacency, filt.attributes, filt.adjacency, filt.attributes, plain)
    denom = np.sqrt(k_ss * k_ff)
    if denom <= 0:
        return 0.0
    return value / denom


def rw_kernel_grad(sub, filt, cfg: RWKernelConfig, deep_weights=None):
    """Kernel value plus exact gradients w.r.t. the filter parameters.

    The adjacency gradient is the symmetrized matrix-power split sum with a
    zeroed diagonal, matching the symmetric zero-diagonal parameterization.
    """
    adj_h = np.asarray(filt.adjacency, dtype=np.float64)
    attr_h = np.asarray(filt.attributes, dtype=np.float64)
    adj_g = np.asarray(sub.adjacency, dtype=np.float64)
    attr_g = np.asarray(sub.attributes, dtype=np.float64)
    if attr_h.shape[1] != attr_g.shape[1]:
        raise ValueError(f"attribute widths differ: {attr_h.shape[1]} vs {attr_g.shape[1]}")
    if cfg.is_deep and deep_weights is None:
        raise ValueError("deep variant requires pair weights")

    n = adj_h.shape[0]
    # cached powers A_H^0..A_H^P and A_G^0..A_G^P
    pows_h = [np.eye(n)]
    pows_g = [np.eye(adj_g.shape[0])]
    for _ in range(cfg.P):
        pows_h.append(pows_h[-1] @ adj_h)
        pows_g.append(pows_g[-1] @ adj_g)

    s = attr_h @ attr_g.T
    if cfg.is_deep:
        w = np.asarray(deep_weights, dtype=np.float64)
        t = s * w
    else:
        t = s

    u = [ph @ attr_h for ph in pows_h]
    v = [pg @ attr_g for pg in pows_g]
    msum = np.zeros_like(s)
    value = 0.0
    for p in range(cfg.P + 1):
        m_p = u[p] @ v[p].T
        msum += cfg.lambdas[p] * m_p
        value += cfg.lambdas[p] * float(np.sum(t * m_p))

    gs = msum * w if cfg.is_deep else msum
    d_attr = gs @ attr_g
    d_adj = np.zeros_like(adj_h)
    for p in range(cfg.P + 1):
        z = cfg.lambdas[p] * (t @ v[p])  # dK/dU_p
        d_attr += pows_h[p] @ z
        zx = z @ attr_h.T
        for q in range(p):
            d_adj += pows_h[q] @ zx @ pows_h[p - 1 - q]
    d_adj = (d_adj + d_adj.T) / 2.0
    np.fill_diagonal(d_adj, 0.0)

    d_deep = s * msum if cfg.is_deep else None
    return value, KernelGradients(d_adjacency=d_adj, d_attributes=d_attr, d_deep_weights=d_deep)


# ---------------------------------------------------------------------------
# Stacked evaluation: every subgraph of a graph against every filter at once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlotLayout:
    """The real slots of N padded subgraphs of k slots, in row-major order.

    real holds the flat index v * k + j of each of the R real slots, slots its
    slot id j, and starts[v] the position in real of subgraph v's first one.
    Every subgraph holds a real slot (a node's subgraph holds its centre), so
    each run real[starts[v]:starts[v+1]] is nonempty and a segment sum over
    the runs by np.add.reduceat is exact. A SubgraphStack's layout is its only
    record of the padding.
    """

    real: np.ndarray  # (R,) int64
    starts: np.ndarray  # (N,) int64
    slots: np.ndarray  # (R,) int64

    @classmethod
    def from_mask(cls, mask) -> "SlotLayout":
        """Layout of an (N, k) mask, nonzero at real slots."""
        mask = np.asarray(mask) != 0
        counts = mask.sum(axis=1)
        if not counts.all():
            raise ValueError("every subgraph must hold a real slot")
        real = np.flatnonzero(mask)
        return cls(real=real, starts=np.cumsum(counts) - counts, slots=real % mask.shape[1])


@dataclass
class StackedKernelCache:
    """Intermediates saved by stacked_kernel_forward for the backward pass.

    The Gram form keeps the padded subgraph walks v and the per-step feature
    maps phi_h/phi_g. The Hadamard form keeps (R, f n) tensors, one row per
    real slot of its layout, the walks of both sides side by side (the
    subgraphs' at the real slots only), and the deep variant's weights. A
    forward from given maps (gram_maps_forward) has no subgraph tensors: x_sub
    and adj_g are None, and only need_x=False backward is possible.
    """

    cfg: RWKernelConfig
    attr_h: np.ndarray  # (f, n, d)
    adj_h: np.ndarray  # (f, n, n)
    x_sub: np.ndarray | None  # (N, k, d)
    adj_g: np.ndarray | None  # (N, k, k)
    u: list  # U_p = A_H U_{p-1}, U_0 = X_H, (f, n, d)
    v: list | None = None  # Gram: V_p = A_G V_{p-1}, V_0 = X_G, (N, k, d)
    phi_h: np.ndarray | None = None  # Gram: (f, P+1, d*d), X_H^T U_p flattened
    phi_g: np.ndarray | None = None  # Gram: (N, P+1, d*d), lambda_p X_G^T V_p flattened
    layout: SlotLayout | None = None  # Hadamard: the real slots of x_sub
    u_cat: np.ndarray | None = None  # Hadamard: (f n, (P+1) d), [lambda_0 U_0 | .. | lambda_P U_P]
    v_cat: np.ndarray | None = None  # Hadamard: (R, (P+1) d), [V_0 | .. | V_P] at real slots
    s: np.ndarray | None = None  # Hadamard: (R, f n), S^T = X_G X_H^T at real slots
    msum: np.ndarray | None = None  # Hadamard: (R, f n), sum_p lambda_p V_p U_p^T at real slots
    weights: np.ndarray | None = None  # (f, n, k), None for plain


def _horner(adj, zs) -> np.ndarray:
    """sum_p A^p zs[p] by Horner's rule: zs[0] + A (zs[1] + A (zs[2] + ...))."""
    acc = zs[-1]
    for z in reversed(zs[:-1]):
        acc = z + adj @ acc
    return acc


def uses_gram_form(cfg: RWKernelConfig, f: int, n: int, d: int, k: int) -> bool:
    """Whether f filters of n nodes take the Gram form on d-wide subgraphs of
    k slots: plain variant, and (P+1) d^2 Gram entries <= f n k Hadamard ones."""
    return not cfg.is_deep and (cfg.P + 1) * d * d <= f * n * k


def _walks(x, adj, P: int) -> list:
    """[X, A X, ..., A^P X] by repeated products with the adjacency."""
    walks = [x]
    for _ in range(P):
        walks.append(adj @ walks[-1])
    return walks


def _maps(x, walks) -> np.ndarray:
    """(B, len(walks), d*d) maps X^T W_p of (B, k, d) features and their walks."""
    b, _, d = x.shape
    x_t = x.transpose(0, 2, 1)
    return np.stack([(x_t @ w).reshape(b, d * d) for w in walks], axis=1)


def gram_maps(x_sub, adj_g, P: int) -> np.ndarray:
    """Unweighted Gram maps (N, P+1, d*d): row v, step p is X_G^T A_G^p X_G of
    subgraph v, flattened. x_sub (N, k, d) and adj_g (N, k, k) as in
    stacked_kernel_forward; each subgraph's maps depend on it alone."""
    return _maps(x_sub, _walks(x_sub, adj_g, P))


def stacked_kernel_forward(attr_h, adj_h, x_sub, adj_g, cfg: RWKernelConfig, weights=None,
                           gram: bool | None = None, *, layout: SlotLayout | None = None):
    """Kernel values (N, f) of all subgraphs against all filters.

    Same argument order as walk_kernel, stacked: attr_h (f, n, d) and adj_h
    (f, n, n) are the filters, x_sub (N, k, d) and adj_g (N, k, k) the padded
    subgraphs, weights (f, n, k) the pair weights the deep variant requires.
    Padded slots are zero in x_sub and adj_g. layout lists the real slots the
    Hadamard form runs over; None takes every slot as real. The walks
    U_p = A_H^p X_H and V_p = A_G^p X_G are built by repeated products with
    the adjacencies; no matrix power is formed. gram picks the form; None
    applies uses_gram_form.
    """
    if cfg.is_deep and weights is None:
        raise ValueError("deep variant requires pair weights")
    if gram is None:
        gram = uses_gram_form(cfg, *attr_h.shape, x_sub.shape[1])
    cache = StackedKernelCache(cfg=cfg, attr_h=attr_h, adj_h=adj_h, x_sub=x_sub, adj_g=adj_g,
                               u=_walks(attr_h, adj_h, cfg.P))
    walks = _walks(x_sub, adj_g, cfg.P)
    if gram:
        cache.v = walks
        return _gram_forward(cache, _maps(x_sub, walks)), cache
    if layout is None:
        layout = SlotLayout.from_mask(np.ones(x_sub.shape[:2]))
    return _hadamard_forward(cache, walks, layout, weights if cfg.is_deep else None), cache


def gram_maps_forward(attr_h, adj_h, maps, cfg: RWKernelConfig):
    """Gram-form kernel values (N, f) from the subgraphs' unweighted maps
    (N, >= P+1, d*d), as gram_maps gives them, or from sums of them, whose
    values are the sums of the subgraphs' values; steps past P are ignored.
    Equal byte for byte to stacked_kernel_forward on the subgraphs themselves.
    The cache serves stacked_kernel_backward with need_x=False only."""
    if cfg.is_deep:
        raise ValueError("the deep variant has no Gram form")
    cache = StackedKernelCache(cfg=cfg, attr_h=attr_h, adj_h=adj_h, x_sub=None, adj_g=None,
                               u=_walks(attr_h, adj_h, cfg.P))
    return _gram_forward(cache, maps[:, :cfg.P + 1]), cache


def stacked_kernel_backward(cache: StackedKernelCache, gout, need_x: bool = True):
    """Gradients of sum_{v,i} gout[v,i] * K[v,i].

    Returns (d_attr_h, d_adj_h, d_weights, d_x_sub); d_adj_h is symmetrized
    with a zero diagonal, d_weights is None for the plain variant. need_x=False
    skips the subgraph-feature gradient and returns None for d_x_sub; the
    filter gradients are the same bit for bit.
    """
    if need_x and cache.x_sub is None:
        raise ValueError("a forward from given Gram maps has no subgraph-feature gradient")
    if cache.phi_g is None:
        d_xh, d_xsub, d_weights, zu = _hadamard_backward(cache, gout, need_x)
    else:
        d_xh, d_xsub, zu = _gram_backward(cache, gout, need_x)
        d_weights = None
    return d_xh, _adjacency_grad(cache, zu), d_weights, d_xsub


def _gram_forward(cache: StackedKernelCache, maps) -> np.ndarray:
    """Plain variant: K = sum_p lambda_p <X_G^T V_p, X_H^T U_p>_F, one matmul.

    sum_ij [S (.) U_p V_p^T]_ij = tr(X_G X_H^T U_p V_p^T), which is the
    Frobenius product of the d x d maps X_H^T U_p and X_G^T V_p; maps holds
    the unweighted subgraph maps (N, P+1, d*d).
    """
    f, _, d = cache.attr_h.shape
    big_n = maps.shape[0]
    cache.phi_h = _maps(cache.attr_h, cache.u)
    cache.phi_g = maps * np.asarray(cache.cfg.lambdas)[:, None]
    width = len(cache.u) * d * d  # explicit: a -1 cannot be inferred when N = 0
    return cache.phi_g.reshape(big_n, width) @ cache.phi_h.reshape(f, width).T


def _gram_backward(cache: StackedKernelCache, gout, need_x: bool):
    """(d_attr_h, d_x_sub or None, [dK/dU_1..dK/dU_P]) of the Gram form.

    The gradients of sum gout * K with respect to the maps are
    G_p[f] = lambda_p sum_v gout[v,f] X_G^T V_p (phi_g carries lambda_p) and
    D_p[v] = lambda_p sum_f gout[v,f] X_H^T U_p. With symmetric adjacencies
    dX_H = sum_p U_p (G_p^T + G_p), dX_G = sum_p V_p (D_p^T + D_p), and
    dK/dU_p = X_H G_p feeds the adjacency split sum.
    """
    f, _, d = cache.attr_h.shape
    big_n = cache.phi_g.shape[0]
    steps = len(cache.u)
    gam = (gout.T @ cache.phi_g.reshape(big_n, steps * d * d)).reshape(f, steps, d, d)
    gam_sym = gam + gam.transpose(0, 1, 3, 2)
    d_xh = sum(u_p @ gam_sym[:, p] for p, u_p in enumerate(cache.u))
    zu = [cache.attr_h @ gam[:, p] for p in range(1, cache.cfg.P + 1)]
    d_xsub = None
    if need_x:
        lam = np.asarray(cache.cfg.lambdas)[:, None]
        dlt = ((gout @ cache.phi_h.reshape(f, steps * d * d)).reshape(big_n, steps, d * d)
               * lam).reshape(big_n, steps, d, d)
        dlt_sym = dlt + dlt.transpose(0, 1, 3, 2)
        d_xsub = sum(v_p @ dlt_sym[:, p] for p, v_p in enumerate(cache.v))
    return d_xh, d_xsub, zu


def _hadamard_forward(cache: StackedKernelCache, walks, layout: SlotLayout, weights) -> np.ndarray:
    """sum_ij [(W (.) S) (.) sum_p lambda_p U_p V_p^T]_ij over the real slots j
    of each subgraph, from (R, f n) tensors, one row per real slot: S is one
    matmul of the real rows of X_G with X_H, the walk sum one matmul of [V_p]
    with [lambda_p U_p], and each value a segment sum over its subgraph's run
    of rows. Weights W is None for plain and is read by slot id; with a row
    per slot that read is a row gather, so its result stays C-ordered."""
    f, n, d = cache.attr_h.shape
    big_n, k, _ = cache.x_sub.shape
    steps = len(walks)
    lam = np.asarray(cache.cfg.lambdas)[:, None]
    cache.layout, cache.weights = layout, weights
    cache.u_cat = (np.stack(cache.u, axis=2) * lam).reshape(f * n, steps * d)
    cache.v_cat = np.concatenate(walks, axis=2).reshape(big_n * k, steps * d)[layout.real]
    cache.s = cache.v_cat[:, :d] @ cache.attr_h.reshape(f * n, d).T
    cache.msum = cache.v_cat @ cache.u_cat.T
    t = cache.s if weights is None else cache.s * weights.reshape(f * n, k).T[layout.slots]
    per_slot = np.einsum("rfn,rfn->rf", t.reshape(-1, f, n), cache.msum.reshape(-1, f, n))
    return np.add.reduceat(per_slot, layout.starts, axis=0)


def _hadamard_backward(cache: StackedKernelCache, gout, need_x: bool):
    """(d_attr_h, d_x_sub or None, d_weights, [dK/dU_1..dK/dU_P]) of the
    Hadamard form; d_weights is None for plain and 0 at slots no subgraph
    fills. d_x_sub has x_sub's shape and is 0 at padded slots."""
    layout = cache.layout
    f, n, d = cache.attr_h.shape
    big_n, k, _ = cache.x_sub.shape
    steps = len(cache.u)
    g = gout[layout.real // k][:, :, None]  # (R, f, 1): gout of each real slot's subgraph
    s, msum = cache.s.reshape(-1, f, n), cache.msum.reshape(-1, f, n)
    if cache.weights is None:
        gsg, tg, d_weights = msum * g, s * g, None
    else:
        wg = cache.weights.reshape(f * n, k).T[layout.slots].reshape(-1, f, n) * g
        gsg, tg = msum * wg, s * wg
        by_slot = np.zeros((k, len(layout.slots)))
        by_slot[layout.slots, np.arange(len(layout.slots))] = 1.0
        d_weights = (by_slot @ (s * msum * g).reshape(-1, f * n)).T.reshape(f, n, k)
    gsg2, tg2 = gsg.reshape(-1, f * n), tg.reshape(-1, f * n)

    lam = np.asarray(cache.cfg.lambdas)[:, None]
    zu = (tg2.T @ cache.v_cat).reshape(f, n, steps, d) * lam
    zu = [zu[:, :, p] for p in range(steps)]
    d_xh = (gsg2.T @ cache.v_cat[:, :d]).reshape(f, n, d) + _horner(cache.adj_h, zu)
    d_xsub = None
    if need_x:
        zv_real = tg2 @ cache.u_cat  # [lambda_0 tg U_0 | .. | lambda_P tg U_P]
        zv_real[:, :d] += gsg2 @ cache.attr_h.reshape(f * n, d)
        zv = np.zeros((big_n * k, steps * d))
        zv[layout.real] = zv_real
        zv = zv.reshape(big_n, k, steps, d)
        d_xsub = _horner(cache.adj_g, [zv[:, :, p] for p in range(steps)])
    return d_xh, d_xsub, d_weights, zu[1:]


def _adjacency_grad(cache: StackedKernelCache, zu) -> np.ndarray:
    """Filter adjacency gradient from zu = [dK/dU_1..dK/dU_P], symmetrized with
    a zero diagonal. With M_p = Z_p X_H^T it is the split sum
    sum_{p, q<p} A^q M_p A^(p-1-q) = sum_q A^q W_q, W_q = sum_r M_(q+1+r) A^r,
    taken in 2(P-1) matmuls by two coupled Horner recursions from W_(P-1) = M_P:
    W_q = M_(q+1) + W_(q+1) A and T = W_q + A T."""
    f, n, _ = cache.attr_h.shape
    if not zu:
        return np.zeros((f, n, n))
    xh_t = cache.attr_h.transpose(0, 2, 1)
    adj = cache.adj_h
    w = t = zu[-1] @ xh_t
    for z in reversed(zu[:-1]):
        w = z @ xh_t + w @ adj
        t = w + adj @ t
    d_adj = (t + t.transpose(0, 2, 1)) / 2.0
    idx = np.arange(n)
    d_adj[:, idx, idx] = 0.0
    return d_adj
