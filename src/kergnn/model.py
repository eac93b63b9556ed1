"""Trainable model: graph filters, kernel layers, readout, and MLP head.

A layer holds d_l graph filters (small trainable graphs). Its forward pass
extracts every node's padded neighborhood subgraph, evaluates the random walk
kernel between that subgraph (carrying the current feature maps as node
attributes) and each filter, and uses the d_l kernel values as the node's new
feature map. The graph readout concatenates per-layer node-feature sums,
including layer 0, and an MLP maps the readout to class logits.

All forward/backward code is plain dense numpy; `backward_graph` implements
reverse-mode differentiation through the MLP, the readout, and every kernel
layer back to the filter parameters and the optional input linear map.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, asdict, astuple

import numpy as np

from .errors import CheckpointError, ConfigError
from .graphs import Graph, SubgraphStack, stack_subgraphs
from .kernels import (
    RWKernelConfig,
    stacked_kernel_backward,
    stacked_kernel_forward,
)

__all__ = [
    "GraphFilter",
    "KerGNNLayer",
    "LayerSpec",
    "ModelConfig",
    "ModelParams",
    "init_params",
    "named_parameters",
    "layer_forward",
    "model_forward",
    "forward_graph",
    "backward_graph",
    "graph_stacks",
    "export_filters",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = 2


@dataclass
class GraphFilter:
    """Small trainable graph: symmetric zero-diagonal adjacency + attributes."""

    n_nodes: int
    adjacency: np.ndarray
    attributes: np.ndarray


class KerGNNLayer:
    """f graph filters of n nodes, stored only as the stacked tensors the kernel
    reads: adjacency (f, n, n), attributes (f, n, d) and, for the deep variant,
    deep_weights (f, n, k_max). The constructor copies the filters into them.
    """

    def __init__(self, filters, kernel_cfg: RWKernelConfig, hops: int, k_max: int,
                 deep_weights=None):
        self.adjacency = np.array([f.adjacency for f in filters], dtype=np.float64)
        self.attributes = np.array([f.attributes for f in filters], dtype=np.float64)
        self.deep_weights = None if deep_weights is None else np.array(deep_weights, dtype=np.float64)
        self.kernel_cfg, self.hops, self.k_max = kernel_cfg, hops, k_max

    @property
    def filters(self) -> list:
        """GraphFilter views of the stacked tensors; writes through them reach the layer."""
        n = self.adjacency.shape[1]
        return [GraphFilter(n, adj, attr) for adj, attr in zip(self.adjacency, self.attributes)]

    @property
    def out_dim(self) -> int:
        return self.adjacency.shape[0]

    @property
    def in_dim(self) -> int:
        return self.attributes.shape[2]

    def validate(self):
        adj, attr = self.adjacency, self.attributes
        if (adj.ndim != 3 or adj.shape[1] != adj.shape[2] or attr.ndim != 3
                or attr.shape[:2] != adj.shape[:2]):
            raise ConfigError("filter tensors must be adjacency (f, n, n) and attributes (f, n, d)")
        if not np.allclose(adj, adj.transpose(0, 2, 1)):
            raise ConfigError("filter adjacency must be symmetric")
        if np.any(np.diagonal(adj, axis1=1, axis2=2) != 0):
            raise ConfigError("filter adjacency must have zero diagonal")
        if self.kernel_cfg.is_deep:
            want = adj.shape[:2] + (self.k_max,)
            if self.deep_weights is None or self.deep_weights.shape != want:
                raise ConfigError(f"deep variant needs deep weights of shape {want}")


@dataclass(frozen=True)
class LayerSpec:
    num_filters: int
    filter_nodes: int
    k_max: int
    hops: int = 1


@dataclass(frozen=True)
class ModelConfig:
    """Structural hyperparameters; everything init_params needs."""

    attr_dim: int
    num_classes: int
    layers: tuple
    walk_length: int = 2
    lambdas: tuple | None = None
    kernel_variant: str = "plain"
    input_map_dim: int | None = None
    mlp_hidden: tuple = (32,)
    dropout: float = 0.0
    post_relu: bool = False

    def __post_init__(self):
        object.__setattr__(
            self,
            "layers",
            tuple(ls if isinstance(ls, LayerSpec) else LayerSpec(**ls) for ls in self.layers),
        )
        sizes = [*self.mlp_hidden, *(v for ls in self.layers for v in astuple(ls))]
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in sizes):
            raise ConfigError(f"layer sizes and mlp hidden dims must be integers, got {sizes}")
        object.__setattr__(self, "mlp_hidden", tuple(int(h) for h in self.mlp_hidden))
        if self.lambdas is not None:
            object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        if self.attr_dim < 1 or self.num_classes < 1:
            raise ConfigError("attr_dim and num_classes must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.input_map_dim is not None and self.input_map_dim < 1:
            raise ConfigError("input_map_dim must be positive")
        for ls in self.layers:
            if min(ls.num_filters, ls.filter_nodes, ls.k_max, ls.hops) < 1:
                raise ConfigError("layer sizes must be positive")
        if any(h < 1 for h in self.mlp_hidden):
            raise ConfigError("mlp hidden dims must be positive")
        self.kernel_cfg()  # walk length, lambdas and variant

    def kernel_cfg(self) -> RWKernelConfig:
        return RWKernelConfig(self.walk_length, self.lambdas, self.kernel_variant)

    def width_after_input(self) -> int:
        return self.input_map_dim if self.input_map_dim is not None else self.attr_dim

    def readout_dim(self) -> int:
        return self.width_after_input() + sum(ls.num_filters for ls in self.layers)


@dataclass
class ModelParams:
    config: ModelConfig
    layers: list
    mlp: list  # [(weight, bias), ...], last maps to logits
    input_map: tuple | None = None  # (weight, bias)

    @property
    def dropout(self) -> float:
        return self.config.dropout


def _build_params(config: ModelConfig) -> ModelParams:
    """Zero-initialized parameter containers with the configured shapes."""
    kernel_cfg = config.kernel_cfg()
    d_in = config.width_after_input()
    layers = []
    for ls in config.layers:
        n = ls.filter_nodes
        blank = GraphFilter(n, np.zeros((n, n)), np.zeros((n, d_in)))
        deep = np.ones((ls.num_filters, n, ls.k_max)) if kernel_cfg.is_deep else None
        layers.append(KerGNNLayer([blank] * ls.num_filters, kernel_cfg, ls.hops, ls.k_max, deep))
        d_in = ls.num_filters

    mlp = []
    width = config.readout_dim()
    for h in list(config.mlp_hidden) + [config.num_classes]:
        mlp.append((np.zeros((width, h)), np.zeros(h)))
        width = h

    input_map = None
    if config.input_map_dim is not None:
        input_map = (np.zeros((config.attr_dim, config.input_map_dim)),
                     np.zeros(config.input_map_dim))
    return ModelParams(config=config, layers=layers, mlp=mlp, input_map=input_map)


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Randomly initialized parameters.

    Filter attributes ~ N(0, 1/sqrt(d_in)); filter adjacency upper triangle
    ~ U[0, 1) mirrored symmetric; affine maps ~ U(+-1/sqrt(fan_in)); deep
    pair weights start at 1.
    """
    params = _build_params(config)
    if params.input_map is not None:
        w, b = params.input_map
        bound = 1.0 / np.sqrt(w.shape[0])
        w[:] = rng.uniform(-bound, bound, w.shape)
        b[:] = rng.uniform(-bound, bound, b.shape)
    for layer in params.layers:
        d_in = layer.in_dim
        for filt in layer.filters:
            n = filt.n_nodes
            iu = np.triu_indices(n, k=1)
            upper = rng.random(len(iu[0]))
            filt.adjacency[iu] = upper
            filt.adjacency[(iu[1], iu[0])] = upper
            filt.attributes[:] = rng.normal(0.0, 1.0 / np.sqrt(d_in), filt.attributes.shape)
        layer.validate()
    for w, b in params.mlp:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[:] = rng.uniform(-bound, bound, w.shape)
        b[:] = rng.uniform(-bound, bound, b.shape)
    return params


def named_parameters(params: ModelParams) -> list:
    """Stable (name, array) list of every trainable tensor."""
    out = []
    if params.input_map is not None:
        out.append(("input_map.weight", params.input_map[0]))
        out.append(("input_map.bias", params.input_map[1]))
    for l, layer in enumerate(params.layers):
        out.append((f"layers.{l}.adjacency", layer.adjacency))
        out.append((f"layers.{l}.attributes", layer.attributes))
        if layer.deep_weights is not None:
            out.append((f"layers.{l}.deep_weights", layer.deep_weights))
    for j, (w, b) in enumerate(params.mlp):
        out.append((f"mlp.{j}.weight", w))
        out.append((f"mlp.{j}.bias", b))
    return out


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def graph_stacks(g: Graph, params: ModelParams, memo: dict | None = None) -> list:
    """One SubgraphStack per layer, built once per distinct (graph, hops, k_max).

    `memo` carries stacks across calls (epochs, folds); its keys hold the
    graph object itself, so an entry is never served to another graph that
    happens to reuse a freed graph's address. Without a memo, layers that
    share (hops, k_max) still share one stack.
    """
    memo = {} if memo is None else memo
    stacks = []
    for layer in params.layers:
        key = (g, layer.hops, layer.k_max)
        if key not in memo:
            memo[key] = stack_subgraphs(g, layer.hops, layer.k_max)
        stacks.append(memo[key])
    return stacks


def _layer_apply(layer: KerGNNLayer, stack: SubgraphStack, feats: np.ndarray, post_relu: bool):
    if feats.shape[1] != layer.in_dim:
        raise ValueError(
            f"feature width {feats.shape[1]} does not match layer input width {layer.in_dim}"
        )
    weights = layer.deep_weights if layer.kernel_cfg.is_deep else None
    values, cache = stacked_kernel_forward(layer.attributes, layer.adjacency, stack.gather(feats),
                                           stack.adjacency, layer.kernel_cfg, weights)
    pre = values
    if post_relu:
        values = np.maximum(values, 0.0)
    return values, (cache, pre)


def layer_forward(g: Graph, feats: np.ndarray, layer: KerGNNLayer,
                  post_relu: bool = False) -> np.ndarray:
    """Per-node kernel values (num_nodes, d_l) against every filter."""
    stack = stack_subgraphs(g, layer.hops, layer.k_max)
    values, _ = _layer_apply(layer, stack, np.asarray(feats, dtype=np.float64), post_relu)
    return values


@dataclass
class GraphForward:
    """Everything backward_graph needs from one graph's forward pass."""

    feats: list  # feats_0..feats_L, each (num_nodes, d_l)
    layer_caches: list  # hold the layer tensors themselves: backward before they change
    readout: np.ndarray
    mlp_inputs: list
    dropout_masks: list
    logits: np.ndarray
    raw_attributes: np.ndarray
    stacks: list


def forward_graph(g: Graph, params: ModelParams, train: bool = False,
                  rng: np.random.Generator | None = None,
                  memo: dict | None = None) -> GraphForward:
    """One graph's forward pass; `memo` is passed on to graph_stacks."""
    cfg = params.config
    if g.attr_dim != cfg.attr_dim:
        raise ValueError(f"graph attribute width {g.attr_dim} != model width {cfg.attr_dim}")
    stacks = graph_stacks(g, params, memo)

    feats0 = g.attributes
    if params.input_map is not None:
        w, b = params.input_map
        feats0 = feats0 @ w + b
    feats = [feats0]
    layer_caches = []
    for layer, stack in zip(params.layers, stacks):
        values, cache = _layer_apply(layer, stack, feats[-1], cfg.post_relu)
        layer_caches.append(cache)
        feats.append(values)

    readout = np.concatenate([f.sum(axis=0) for f in feats])

    h = readout
    mlp_inputs, masks = [], []
    p_drop = cfg.dropout if train else 0.0
    for j, (w, b) in enumerate(params.mlp):
        mlp_inputs.append(h)
        a = h @ w + b
        if j < len(params.mlp) - 1:
            z = np.maximum(a, 0.0)
            if p_drop > 0.0:
                if rng is None:
                    raise ValueError("train-mode dropout requires an rng")
                mask = (rng.random(z.shape) >= p_drop) / (1.0 - p_drop)
            else:
                mask = np.ones_like(z)
            masks.append(mask)
            h = z * mask
        else:
            h = a
    return GraphForward(feats=feats, layer_caches=layer_caches, readout=readout,
                        mlp_inputs=mlp_inputs, dropout_masks=masks, logits=h,
                        raw_attributes=g.attributes, stacks=stacks)


def model_forward(g: Graph, params: ModelParams, mode: str = "eval",
                  rng: np.random.Generator | None = None):
    """Logits plus the per-layer node feature maps for introspection."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    fwd = forward_graph(g, params, train=(mode == "train"), rng=rng)
    return fwd.logits, fwd.feats


def backward_graph(fwd: GraphForward, dlogits: np.ndarray, params: ModelParams) -> dict:
    """Gradients of <dlogits, logits> with respect to every trainable tensor."""
    cfg = params.config
    grads: dict = {}

    # MLP head
    dh = dlogits
    for j in reversed(range(len(params.mlp))):
        w, _ = params.mlp[j]
        h_in = fwd.mlp_inputs[j]
        if j < len(params.mlp) - 1:
            dh = dh * fwd.dropout_masks[j]
            a = h_in @ w + params.mlp[j][1]
            dh = dh * (a > 0)
        grads[f"mlp.{j}.weight"] = np.outer(h_in, dh)
        grads[f"mlp.{j}.bias"] = dh.copy()
        dh = dh @ w.T
    dreadout = dh

    # split readout gradient back into per-layer blocks
    widths = [f.shape[1] for f in fwd.feats]
    offsets = np.cumsum([0] + widths)
    dblocks = [dreadout[offsets[l]: offsets[l + 1]] for l in range(len(widths))]

    # kernel layers, last to first
    carry = np.zeros_like(fwd.feats[-1])
    for l in reversed(range(len(params.layers))):
        cache, pre = fwd.layer_caches[l]
        gout = carry + np.broadcast_to(dblocks[l + 1], fwd.feats[l + 1].shape)
        if cfg.post_relu:
            gout = gout * (pre > 0)
        d_xh, d_adj, d_w, d_xsub = stacked_kernel_backward(cache, gout)
        grads[f"layers.{l}.adjacency"] = d_adj
        grads[f"layers.{l}.attributes"] = d_xh
        if d_w is not None:
            grads[f"layers.{l}.deep_weights"] = d_w
        carry = fwd.stacks[l].scatter(d_xsub)

    dfeats0 = carry + np.broadcast_to(dblocks[0], fwd.feats[0].shape)
    if params.input_map is not None:
        grads["input_map.weight"] = fwd.raw_attributes.T @ dfeats0
        grads["input_map.bias"] = dfeats0.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Interpretability export
# ---------------------------------------------------------------------------


def export_filters(params: ModelParams, out_dir: str) -> list:
    """One DOT file per filter per layer.

    Edges are the ReLU-pruned positive adjacency entries with their value as
    the weight attribute; node size is the L2 norm of the attribute row.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for l, layer in enumerate(params.layers, start=1):
        for i, filt in enumerate(layer.filters):
            lines = [f"graph layer{l}_filter{i} {{", "  node [shape=circle];"]
            norms = np.linalg.norm(filt.attributes, axis=1)
            for v in range(filt.n_nodes):
                lines.append(f"  {v} [width={norms[v]:.6g}];")
            pruned = np.maximum(filt.adjacency, 0.0)
            for v in range(filt.n_nodes):
                for u in range(v + 1, filt.n_nodes):
                    if pruned[v, u] > 0:
                        lines.append(f"  {v} -- {u} [weight={pruned[v, u]:.6g}];")
            lines.append("}")
            path = os.path.join(out_dir, f"layer{l}_filter{i}.dot")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, params: ModelParams, seed: int, extra: dict | None = None) -> None:
    """Self-describing JSON container: config, seed, and all named tensors."""
    tensors = {
        name: {"shape": list(arr.shape), "data": np.asarray(arr, dtype=np.float64).ravel().tolist()}
        for name, arr in named_parameters(params)
    }
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "kergnn-checkpoint",
        "config": asdict(params.config),
        "seed": int(seed),
        "extra": extra or {},
        "tensors": tensors,
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_checkpoint(path: str):
    """(ModelParams, seed, extra) from a checkpoint written by save_checkpoint."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupted checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "kergnn-checkpoint":
        raise CheckpointError(f"{path} is not a model checkpoint")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} not supported (expected {CHECKPOINT_VERSION})"
        )
    try:
        config = ModelConfig(**payload["config"])
        params = _build_params(config)
        tensors = payload["tensors"]
        for name, arr in named_parameters(params):
            entry = tensors[name]
            data = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
            if data.shape != arr.shape:
                raise CheckpointError(f"tensor {name} has shape {data.shape}, expected {arr.shape}")
            if not np.all(np.isfinite(data)):
                raise CheckpointError(f"tensor {name} has non-finite values")
            arr[:] = data
        for layer in params.layers:
            layer.validate()  # a ConfigError is a ValueError, reported below
        seed = int(payload["seed"])
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupted checkpoint {path}: {exc}") from exc
    return params, seed, payload.get("extra", {})
