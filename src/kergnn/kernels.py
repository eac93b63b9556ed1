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
* Hadamard form over (f, n, N, k) tensors. The deep variant always takes it,
  since its per-pair weights do not factor.

The plain variant takes whichever form has fewer entries per subgraph:
(P+1) d^2 for the Gram maps, f n k for the Hadamard tensors. Both paths are
dominated by passes over these intermediates, so the smaller is also the
faster away from the boundary; wide features (one-hot node labels, a later
layer's num_filters) make the d^2 maps the larger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

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
    "StackedKernelCache",
]


@dataclass(frozen=True)
class RWKernelConfig:
    """Walk length P, per-step weights lambda_0..lambda_P, and variant."""

    P: int
    lambdas: tuple = None
    variant: str = "plain"

    def __post_init__(self):
        if self.P < 0:
            raise ConfigError("P must be >= 0")
        lambdas = self.lambdas
        if lambdas is None:
            lambdas = (1.0,) * (self.P + 1)
        lambdas = tuple(float(x) for x in np.atleast_1d(lambdas))
        if len(lambdas) != self.P + 1:
            raise ConfigError(f"lambdas must have P+1 = {self.P + 1} entries, got {len(lambdas)}")
        if not all(0.0 <= x < np.inf for x in lambdas):  # also false for nan
            raise ConfigError(f"lambda weights must be finite and nonnegative, got {lambdas}")
        if self.variant not in ("plain", "deep"):
            raise ConfigError(f"unknown kernel variant: {self.variant!r}")
        object.__setattr__(self, "lambdas", lambdas)

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


@dataclass
class StackedKernelCache:
    """Intermediates saved by stacked_kernel_forward for the backward pass.

    The Gram form keeps the per-step feature maps phi_h/phi_g; the Hadamard
    form keeps the (f, n, N, k) tensors s4/msum4 and the deep variant's weights.
    """

    cfg: RWKernelConfig
    attr_h: np.ndarray  # (f, n, d)
    adj_h: np.ndarray  # (f, n, n)
    x_sub: np.ndarray  # (N, k, d)
    adj_g: np.ndarray  # (N, k, k)
    u: list  # U_p = A_H U_{p-1}, U_0 = X_H, (f, n, d)
    v: list  # V_p = A_G V_{p-1}, V_0 = X_G, (N, k, d)
    phi_h: np.ndarray | None = None  # (f, P+1, d*d), X_H^T U_p flattened
    phi_g: np.ndarray | None = None  # (N, P+1, d*d), lambda_p X_G^T V_p flattened
    s4: np.ndarray | None = None  # (f, n, N, k), S
    msum4: np.ndarray | None = None  # (f, n, N, k), lambda-weighted sum of M_p
    weights: np.ndarray | None = None  # (f, n, k), None for plain


def _horner(adj, zs) -> np.ndarray:
    """sum_p A^p zs[p] by Horner's rule: zs[0] + A (zs[1] + A (zs[2] + ...))."""
    acc = zs[-1]
    for z in reversed(zs[:-1]):
        acc = z + adj @ acc
    return acc


def stacked_kernel_forward(attr_h, adj_h, x_sub, adj_g, cfg: RWKernelConfig, weights=None):
    """Kernel values (N, f) of all subgraphs against all filters.

    Same argument order as walk_kernel, stacked: attr_h (f, n, d) and adj_h
    (f, n, n) are the filters, x_sub (N, k, d) and adj_g (N, k, k) the padded
    subgraphs, weights (f, n, k) the pair weights the deep variant requires.
    The walks U_p = A_H^p X_H and V_p = A_G^p X_G are built by repeated
    products with the adjacencies; no matrix power is formed.
    """
    u, v = [attr_h], [x_sub]
    for _ in range(cfg.P):
        u.append(adj_h @ u[-1])
        v.append(adj_g @ v[-1])
    cache = StackedKernelCache(cfg=cfg, attr_h=attr_h, adj_h=adj_h, x_sub=x_sub, adj_g=adj_g, u=u, v=v)
    if cfg.is_deep:
        if weights is None:
            raise ValueError("deep variant requires pair weights")
        return _hadamard_forward(cache, weights), cache
    f, n, d = attr_h.shape
    if (cfg.P + 1) * d * d <= f * n * x_sub.shape[1]:  # Gram maps are the smaller
        return _gram_forward(cache), cache
    return _hadamard_forward(cache, None), cache


def stacked_kernel_backward(cache: StackedKernelCache, gout):
    """Gradients of sum_{v,i} gout[v,i] * K[v,i].

    Returns (d_attr_h, d_adj_h, d_weights, d_x_sub); d_adj_h is symmetrized
    with a zero diagonal, d_weights is None for the plain variant.
    """
    if cache.phi_g is None:
        d_xh, d_xsub, d_weights, zu = _hadamard_backward(cache, gout)
    else:
        d_xh, d_xsub, zu = _gram_backward(cache, gout)
        d_weights = None
    return d_xh, _adjacency_grad(cache, zu), d_weights, d_xsub


def _gram_forward(cache: StackedKernelCache) -> np.ndarray:
    """Plain variant: K = sum_p lambda_p <X_G^T V_p, X_H^T U_p>_F, one matmul.

    sum_ij [S (.) U_p V_p^T]_ij = tr(X_G X_H^T U_p V_p^T), which is the
    Frobenius product of the d x d maps X_H^T U_p and X_G^T V_p.
    """
    f, _, d = cache.attr_h.shape
    big_n = cache.x_sub.shape[0]
    lam = np.asarray(cache.cfg.lambdas)[:, None]
    xh_t = cache.attr_h.transpose(0, 2, 1)
    xs_t = cache.x_sub.transpose(0, 2, 1)
    cache.phi_h = np.stack([(xh_t @ u_p).reshape(f, d * d) for u_p in cache.u], axis=1)
    cache.phi_g = np.stack([(xs_t @ v_p).reshape(big_n, d * d) for v_p in cache.v], axis=1) * lam
    return cache.phi_g.reshape(big_n, -1) @ cache.phi_h.reshape(f, -1).T


def _gram_backward(cache: StackedKernelCache, gout):
    """(d_attr_h, d_x_sub, [dK/dU_1..dK/dU_P]) of the Gram form.

    The gradients of sum gout * K with respect to the maps are
    G_p[f] = lambda_p sum_v gout[v,f] X_G^T V_p (phi_g carries lambda_p) and
    D_p[v] = lambda_p sum_f gout[v,f] X_H^T U_p. With symmetric adjacencies
    dX_H = sum_p U_p (G_p^T + G_p), dX_G = sum_p V_p (D_p^T + D_p), and
    dK/dU_p = X_H G_p feeds the adjacency split sum.
    """
    f, _, d = cache.attr_h.shape
    big_n = cache.x_sub.shape[0]
    lam = np.asarray(cache.cfg.lambdas)[:, None]
    gam = (gout.T @ cache.phi_g.reshape(big_n, -1)).reshape(f, -1, d, d)
    dlt = ((gout @ cache.phi_h.reshape(f, -1)).reshape(big_n, -1, d * d) * lam).reshape(big_n, -1, d, d)
    gam_sym = gam + gam.transpose(0, 1, 3, 2)
    dlt_sym = dlt + dlt.transpose(0, 1, 3, 2)
    d_xh = sum(u_p @ gam_sym[:, p] for p, u_p in enumerate(cache.u))
    d_xsub = sum(v_p @ dlt_sym[:, p] for p, v_p in enumerate(cache.v))
    zu = [cache.attr_h @ gam[:, p] for p in range(1, cache.cfg.P + 1)]
    return d_xh, d_xsub, zu


def _hadamard_forward(cache: StackedKernelCache, weights) -> np.ndarray:
    """sum_ij [(W (.) S) (.) sum_p lambda_p U_p V_p^T]_ij from (f, n, N, k)
    tensors built by (f*n, N*k) matmuls; weights W is None for plain."""
    cfg = cache.cfg
    f, n, d = cache.attr_h.shape
    big_n, k, _ = cache.x_sub.shape
    s2 = cache.attr_h.reshape(f * n, d) @ cache.x_sub.reshape(big_n * k, d).T
    msum2 = cfg.lambdas[0] * s2  # M_0 == S
    for p in range(1, cfg.P + 1):
        msum2 = msum2 + cfg.lambdas[p] * (cache.u[p].reshape(f * n, d) @ cache.v[p].reshape(big_n * k, d).T)
    cache.s4 = s2.reshape(f, n, big_n, k)
    cache.msum4 = msum2.reshape(f, n, big_n, k)
    cache.weights = weights
    t4 = cache.s4 if weights is None else cache.s4 * weights[:, :, None, :]
    return np.einsum("fnvk,fnvk->vf", t4, cache.msum4)


def _hadamard_backward(cache: StackedKernelCache, gout):
    """(d_attr_h, d_x_sub, d_weights, [dK/dU_1..dK/dU_P]) of the Hadamard form;
    d_weights is None for plain."""
    cfg = cache.cfg
    f, n, big_n, k = cache.s4.shape
    d = cache.attr_h.shape[2]
    gb = gout.T[:, None, :, None]  # broadcast over (f, n, N, k)
    if cache.weights is None:
        gsg4, tg4, d_weights = cache.msum4 * gb, cache.s4 * gb, None
    else:
        wb = cache.weights[:, :, None, :]
        gsg4, tg4 = cache.msum4 * wb * gb, cache.s4 * wb * gb
        d_weights = np.einsum("vf,fnvk->fnk", gout, cache.s4 * cache.msum4)
    gsg2 = gsg4.reshape(f * n, big_n * k)
    tg2 = tg4.reshape(f * n, big_n * k)

    zu = [cfg.lambdas[p] * (tg2 @ v_p.reshape(big_n * k, d)).reshape(f, n, d)
          for p, v_p in enumerate(cache.v)]
    zv = [cfg.lambdas[p] * (tg2.T @ u_p.reshape(f * n, d)).reshape(big_n, k, d)
          for p, u_p in enumerate(cache.u)]
    d_xh = (gsg2 @ cache.x_sub.reshape(big_n * k, d)).reshape(f, n, d) + _horner(cache.adj_h, zu)
    d_xsub = (gsg2.T @ cache.attr_h.reshape(f * n, d)).reshape(big_n, k, d) + _horner(cache.adj_g, zv)
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
