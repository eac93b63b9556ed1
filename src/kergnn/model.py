"""Trainable model: graph filters, kernel layers, readout, and MLP head.

A layer holds d_l graph filters (small trainable graphs). Its forward pass
extracts every node's padded neighborhood subgraph, evaluates the random walk
kernel between that subgraph (carrying the current feature maps as node
attributes) and each filter, and uses the d_l kernel values as the node's new
feature map. The graph readout concatenates per-layer node-feature sums,
including layer 0, and an MLP maps the readout to class logits.

All forward/backward code is plain dense numpy and works on packed batches:
`forward_batch` concatenates the graphs' nodes and subgraph stacks (gather
indices offset by each graph's first node), runs every layer's kernel once
over all of them, reads out by a segment sum per graph and applies the MLP to
(B, width) arrays. `backward_batch` implements reverse-mode differentiation
through the MLP, the readout, and every kernel layer back to the filter
parameters and the optional input linear map; the kernel's matmuls sum the
batch's gradients. `packed_chunks` cuts a batch into consecutive chunks whose
kernel caches stay under `_CHUNK_ENTRIES` float64 entries, counting only the
real subgraph slots of a Hadamard-form layer, since its tensors hold no
padded slot. `model_forward` and `layer_forward` are batches of one.

`_layer_forms` decides once per layer how it runs: "hadamard" or "gram" on
the packed subgraph stack, or "maps" for a first layer in the Gram form
without an input map. Such a layer reads the raw attributes, so its subgraph
side X_G^T A_G^p X_G is a constant of the graph: it is built once per graph
(`Graph.gram_maps`, by (hops, k_max)) and concatenated instead of a stack.
The stack it came from is dropped unless another layer shares its
(hops, k_max); a longer walk later rebuilds it and extends the maps. The
first layer's backward skips the subgraph-feature gradient unless an input
map needs it. `layer_forward` always takes the stack path.
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
    gram_maps,
    gram_maps_forward,
    stacked_kernel_backward,
    stacked_kernel_forward,
    uses_gram_form,
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
    "forward_batch",
    "backward_batch",
    "BatchForward",
    "packed_chunks",
    "predict_logits",
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

# Float64 entries that one packed chunk's layer intermediates may hold. Every
# layer's kernel cache lives until backward, so a packed node costs the sum
# over layers (see _entries_per_node); a batch is cut into consecutive chunks
# of graphs under this bound, and a graph larger than it is a chunk alone.
_CHUNK_ENTRIES = 2**17


def _stack(g: Graph, layer: KerGNNLayer) -> SubgraphStack:
    """g's subgraph stack at the layer's (hops, k_max), kept on g after the first build."""
    key = (layer.hops, layer.k_max)
    if key not in g.stacks:
        g.stacks[key] = stack_subgraphs(g, *key)
    return g.stacks[key]


def _cached_maps(g: Graph, layer: KerGNNLayer, keep_stack: bool) -> np.ndarray:
    """g's unweighted Gram maps (n, >= P+1, d^2) of its raw attributes at the
    layer's (hops, k_max), kept on g. Built, or rebuilt for a longer walk, from
    the stack, which is then dropped from g unless keep_stack."""
    key = (layer.hops, layer.k_max)
    maps = g.gram_maps.get(key)
    if maps is None or maps.shape[1] <= layer.kernel_cfg.P:
        stack = _stack(g, layer)
        maps = g.gram_maps[key] = gram_maps(stack.gather(g.attributes), stack.adjacency,
                                            layer.kernel_cfg.P)
        if not keep_stack:
            del g.stacks[key]
    return maps


def _stack_form(layer: KerGNNLayer) -> str:
    """"gram" or "hadamard", the layer's kernel form by kernels.uses_gram_form."""
    f, n, d = layer.attributes.shape
    return "gram" if uses_gram_form(layer.kernel_cfg, f, n, d, layer.k_max) else "hadamard"


def _layer_forms(params: ModelParams) -> list:
    """Each layer's form, the one decision forward, backward and chunking read:
    "maps" for a first layer in the Gram form without an input map, else its
    _stack_form."""
    forms = [_stack_form(layer) for layer in params.layers]
    if forms and forms[0] == "gram" and params.input_map is None:
        forms[0] = "maps"
    return forms


def _layer_apply(layer: KerGNNLayer, form: str, source, feats: np.ndarray, post_relu: bool):
    """Kernel values of one layer and its backward cache. source is the packed
    SubgraphStack, or for form "maps" the packed maps (feats is then unused)."""
    if form == "maps":
        values, cache = gram_maps_forward(layer.attributes, layer.adjacency, source, layer.kernel_cfg)
    else:
        expected = (source.gather_idx.shape[0], layer.in_dim)
        if feats.shape != expected:
            raise ValueError(
                f"feature shape {feats.shape} does not match {expected}: one row per graph node, "
                f"one column per layer input"
            )
        weights = layer.deep_weights if layer.kernel_cfg.is_deep else None
        values, cache = stacked_kernel_forward(layer.attributes, layer.adjacency, source.gather(feats),
                                               source.adjacency, layer.kernel_cfg, weights,
                                               gram=form == "gram", layout=source.layout)
    pre = values
    if post_relu:
        values = np.maximum(values, 0.0)
    return values, (cache, pre)


def layer_forward(g: Graph, feats: np.ndarray, layer: KerGNNLayer,
                  post_relu: bool = False) -> np.ndarray:
    """Per-node kernel values (num_nodes, d_l) against every filter."""
    values, _ = _layer_apply(layer, _stack_form(layer), _stack(g, layer),
                             np.asarray(feats, dtype=np.float64), post_relu)
    return values


def _chunk_costs(params: ModelParams) -> tuple:
    """(per_node, per_real) of the float64 entries a graph adds to the kernel
    caches of all layers: per_node for each of its nodes, (P+1)(d^2 + k d) + k^2
    per Gram-form layer for the maps, walks and subgraph adjacency (counted so
    for "maps" layers too), and (layer, 2 f n) per real slot of the layer's
    stack for each Hadamard-form layer."""
    per_node, per_real = 0, []
    for layer, form in zip(params.layers, _layer_forms(params)):
        f, n, d = layer.attributes.shape
        if form == "hadamard":
            per_real.append((layer, 2 * f * n))
        else:
            k, steps = layer.k_max, layer.kernel_cfg.P + 1
            per_node += steps * (d * d + k * d) + k * k
    return per_node, per_real


def packed_chunks(graphs: list, params: ModelParams):
    """(start, stop) of consecutive runs of graphs whose packed intermediates
    stay under _CHUNK_ENTRIES; every run holds at least one graph."""
    per_node, per_real = _chunk_costs(params)
    start, entries = 0, 0
    for i, g in enumerate(graphs):
        added = g.num_nodes * per_node
        for layer, cost in per_real:
            added += cost * len(_stack(g, layer).layout.real)
        if i > start and entries + added >= _CHUNK_ENTRIES:
            yield start, i
            start, entries = i, 0
        entries += added
    if start < len(graphs):
        yield start, len(graphs)


def _concat(arrays: list, empty_shape: tuple) -> np.ndarray:
    """np.concatenate of arrays, or zeros of empty_shape when there are none."""
    return np.concatenate(arrays) if arrays else np.zeros(empty_shape)


def _segment_sum(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(B, d) sums of the rows offsets[b]:offsets[b+1] of x; 0 for an empty run.
    reduceat would give an empty run its neighbour's first row instead."""
    out = np.zeros((len(offsets) - 1, x.shape[1]))
    nonempty = offsets[1:] > offsets[:-1]
    if nonempty.any():
        out[nonempty] = np.add.reduceat(x, offsets[:-1][nonempty], axis=0)
    return out


@dataclass
class BatchForward:
    """Everything backward_batch needs from one packed forward pass: the
    graphs' nodes concatenated in order, graph b's rows at offsets[b]:offsets[b+1]."""

    offsets: np.ndarray  # (B+1,)
    attributes: np.ndarray  # raw packed attributes, (nodes, attr_dim)
    stacks: list  # packed SubgraphStack of each layer, None for a "maps" layer
    feats: list  # packed feats_0..feats_L, each (nodes, d_l)
    layer_caches: list  # hold the layer tensors themselves: backward before they change
    mlp_inputs: list  # (B, width) each
    gates: list  # (B, width) ReLU gate times dropout mask of each hidden layer
    logits: np.ndarray  # (B, C)


def forward_batch(graphs: list, params: ModelParams, dropout_rngs: list | None = None) -> BatchForward:
    """One packed forward pass over graphs: each layer's kernel runs once on the
    concatenated subgraph stacks. dropout_rngs, one per graph, switch on the
    configured dropout; graph b's masks are drawn from dropout_rngs[b] alone."""
    cfg = params.config
    for g in graphs:
        if g.attr_dim != cfg.attr_dim:
            raise ValueError(f"graph attribute width {g.attr_dim} != model width {cfg.attr_dim}")
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
    attributes = _concat([g.attributes for g in graphs], (0, cfg.attr_dim))

    feats0 = attributes
    if params.input_map is not None:
        w, b = params.input_map
        feats0 = feats0 @ w + b
    feats, stacks, layer_caches, packed = [feats0], [], [], {}
    keys = [(layer.hops, layer.k_max) for layer in params.layers]
    for layer, form, key in zip(params.layers, _layer_forms(params), keys):
        if form == "maps":
            steps, d = layer.kernel_cfg.P + 1, layer.in_dim
            source = _concat([_cached_maps(g, layer, key in keys[1:])[:, :steps] for g in graphs],
                             (0, steps, d * d))
            stacks.append(None)
        else:
            if key not in packed:
                packed[key] = SubgraphStack.concatenate([_stack(g, layer) for g in graphs], layer.k_max)
            source = packed[key]
            stacks.append(source)
        values, cache = _layer_apply(layer, form, source, feats[-1], cfg.post_relu)
        layer_caches.append(cache)
        feats.append(values)

    h = _segment_sum(np.concatenate(feats, axis=1), offsets)
    mlp_inputs, gates = [], []
    for j, (w, b) in enumerate(params.mlp):
        mlp_inputs.append(h)
        a = h @ w + b
        if j == len(params.mlp) - 1:
            h = a
            break
        gate = (a > 0).astype(np.float64)
        z = np.maximum(a, 0.0)
        if dropout_rngs is not None and cfg.dropout > 0.0:
            p = cfg.dropout
            mask = np.stack([(r.random(a.shape[1]) >= p) / (1.0 - p) for r in dropout_rngs])
            gate *= mask
            z = z * mask
        gates.append(gate)
        h = z
    return BatchForward(offsets=offsets, attributes=attributes, stacks=stacks, feats=feats,
                        layer_caches=layer_caches, mlp_inputs=mlp_inputs, gates=gates, logits=h)


def backward_batch(fwd: BatchForward, dlogits: np.ndarray, params: ModelParams) -> dict:
    """Gradients of sum(dlogits * logits) with respect to every trainable tensor,
    summed over the batch inside the matmuls."""
    grads: dict = {}

    # MLP head
    dh = dlogits
    for j in reversed(range(len(params.mlp))):
        w, _ = params.mlp[j]
        if j < len(params.mlp) - 1:
            dh = dh * fwd.gates[j]
        grads[f"mlp.{j}.weight"] = fwd.mlp_inputs[j].T @ dh
        grads[f"mlp.{j}.bias"] = dh.sum(axis=0)
        dh = dh @ w.T

    # readout: every node of graph b gets row b of the readout gradient, split by layer
    dreadout = np.repeat(dh, np.diff(fwd.offsets), axis=0)
    widths = np.cumsum([0] + [f.shape[1] for f in fwd.feats])
    dnodes = [dreadout[:, lo:hi] for lo, hi in zip(widths[:-1], widths[1:])]

    # kernel layers, last to first; the raw attributes' gradient dnodes[0]
    # is read only by an input map
    for l in reversed(range(len(params.layers))):
        cache, pre = fwd.layer_caches[l]
        gout = dnodes[l + 1]
        if params.config.post_relu:
            gout = gout * (pre > 0)
        need_x = l > 0 or params.input_map is not None
        d_xh, d_adj, d_w, d_xsub = stacked_kernel_backward(cache, gout, need_x)
        grads[f"layers.{l}.adjacency"] = d_adj
        grads[f"layers.{l}.attributes"] = d_xh
        if d_w is not None:
            grads[f"layers.{l}.deep_weights"] = d_w
        if need_x:
            dnodes[l] = dnodes[l] + fwd.stacks[l].scatter(d_xsub)

    if params.input_map is not None:
        grads["input_map.weight"] = fwd.attributes.T @ dnodes[0]
        grads["input_map.bias"] = dnodes[0].sum(axis=0)
    return grads


def predict_logits(graphs: list, params: ModelParams) -> np.ndarray:
    """Eval-mode logits (B, C) of graphs, forwarded in packed chunks."""
    logits = []
    for start, stop in packed_chunks(graphs, params):
        # fwd holds the last chunk's arrays until the next forward returns: freed
        # at once, they let malloc trim the heap and fault it in again for every
        # chunk (4.7-6.2x the minor page faults, ~1.5x the time, of an evaluate
        # of the mutag-deep benchmark graphs, 1.4 graphs per chunk)
        fwd = forward_batch(graphs[start:stop], params)
        logits.append(fwd.logits)
    return _concat(logits, (0, params.config.num_classes))


def model_forward(g: Graph, params: ModelParams, mode: str = "eval",
                  rng: np.random.Generator | None = None):
    """Logits (C,) plus the per-layer node feature maps, for introspection: a
    batch of one. mode="train" applies dropout with masks drawn from rng."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    rngs = None
    if mode == "train" and params.config.dropout > 0.0:
        if rng is None:
            raise ValueError("train-mode dropout requires an rng")
        rngs = [rng]
    fwd = forward_batch([g], params, rngs)
    return fwd.logits[0], fwd.feats


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
