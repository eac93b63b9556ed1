"""Trainable model: graph filters, kernel layers, readout, and MLP head.

A layer holds d_l graph filters (small trainable graphs). Its forward pass
extracts every node's padded neighborhood subgraph, evaluates the random walk
kernel between that subgraph (carrying the current feature maps as node
attributes) and each filter, and uses the d_l kernel values as the node's new
feature map. The graph readout concatenates per-layer node-feature sums,
including layer 0, and an MLP maps the readout to class logits.

All forward/backward code is plain dense numpy and works on packed batches.
A batch is an index array into a dataset's packed view (graphs.PackedGraphs,
shared by every subset of one root dataset; a list of graphs gets a view of
its own for the call). The view keeps, per (hops, k_max), one subgraph stack
over all its graphs, built in place graph by graph through this module's
`stack_subgraphs` on first use (`_packed_stack`). `forward_batch` gathers
the batch's node attributes and stack rows (`SubgraphStack.take`, equal byte
for byte to concatenating the graphs' own stacks), runs every layer's kernel
once over all of them, reads out by a segment sum per graph and applies the
MLP to (B, width) arrays. `backward_batch` implements reverse-mode
differentiation through the MLP, the readout, and every kernel layer back to
the filter parameters and the optional input linear map; the kernel's
matmuls sum the batch's gradients. `packed_chunks` cuts a batch into
consecutive chunks whose kernel caches stay under `_CHUNK_ENTRIES` float64
entries, counting what each layer's cache keeps: only the real subgraph
slots of a Hadamard-form layer (S, the walk sum and the walks), since its
tensors hold no padded slot, and one row per graph of a "summed" layer; the
cuts come from a cumulative sum of the graphs' costs. A training step frees
each chunk's forward before the next chunk's starts, and a predict_logits
pass keeps no kernel cache (`_forward(..., caches=False)`).

What a layer's kernel reads of its filters alone (kernels.FilterSide)
changes only at the optimizer step, so every batch or prediction pass builds
each layer's once (`_filter_sides`), and the forward of each of its chunks
reads it. Each chunk's backward adds into it, and the filter gradients are
taken from the sums once per batch (kernels.filter_grads). `model_forward`
and `layer_forward` are batches of one, and keep nothing.

`_layer_forms` decides once per layer how it runs: "hadamard" or "gram" on
the packed subgraph stack, or "summed" for a first layer in the Gram form
without an input map when it is the only layer and post_relu is off. Such a
layer reads the raw attributes and feeds only the readout, which sums its
values <phi_G(v), phi_H> over the nodes, so it needs <sum_v phi_G(v), phi_H>:
the subgraph side sum_v X_G^T A_G^p X_G is a constant of the graph. The view
keeps it as one (P+1, d^2) row per graph (`PackedGraphs.maps`, by (hops,
k_max)), built graph by graph from each graph's own stack, which is then
dropped; a longer walk later rebuilds the stacks and extends the maps. With
the graphs' attribute sums (`PackedGraphs.attr_sums`) in place of the
readout of layer 0, such a model trains and predicts on (B, .) graph rows
alone: one map row, one kernel value row and one readout row per graph, and
a gradient that reads the readout's without repeating it per node. Every
other layer, a multi-layer model's first included, runs on its stack. The
first layer's backward skips the subgraph-feature gradient unless an input
map needs it. `layer_forward` always takes the stack path, and
`model_forward` returns per-node values of every layer, those of a "summed"
layer from one stack it builds for the call, which its logits read too.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, asdict, astuple

import numpy as np

from .errors import CheckpointError, ConfigError, plain_value
from .graphs import Dataset, Graph, PackedGraphs, SubgraphStack, segment_sum, stack_subgraphs
from .kernels import (
    RWKernelConfig,
    filter_grads,
    filter_side,
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
    deep_weights (f, n, k_max). The constructor copies the filters into them;
    in a ModelParams they are views of ModelParams.flat.
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
        def put(name, value):
            object.__setattr__(self, name, value)

        # Python numbers only, so asdict(config) is JSON (numpy scalars are not)
        layers = [astuple(ls if isinstance(ls, LayerSpec) else LayerSpec(**ls)) for ls in self.layers]
        put("layers", tuple(LayerSpec(*(plain_value("layer sizes", v, int) for v in ls)) for ls in layers))
        put("mlp_hidden", tuple(plain_value("mlp_hidden", h, int) for h in self.mlp_hidden))
        for name, kind in (("attr_dim", int), ("num_classes", int), ("walk_length", int),
                           ("dropout", float), ("post_relu", bool), ("kernel_variant", str)):
            put(name, plain_value(name, getattr(self, name), kind))
        counts = [self.attr_dim, self.num_classes, *self.mlp_hidden, *(v for ls in layers for v in ls)]
        if self.input_map_dim is not None:
            put("input_map_dim", plain_value("input_map_dim", self.input_map_dim, int))
            counts.append(self.input_map_dim)
        if min(counts) < 1:
            raise ConfigError(f"attr_dim, num_classes, mlp hidden dims, layer sizes and "
                              f"input_map_dim must be positive, got {counts}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        kernel = self.kernel_cfg()  # walk length, lambdas and variant, as Python values
        put("kernel_variant", kernel.variant)
        if self.lambdas is not None:
            put("lambdas", kernel.lambdas)

    def kernel_cfg(self) -> RWKernelConfig:
        return RWKernelConfig(self.walk_length, self.lambdas, self.kernel_variant)

    def width_after_input(self) -> int:
        return self.input_map_dim if self.input_map_dim is not None else self.attr_dim

    def readout_dim(self) -> int:
        return self.width_after_input() + sum(ls.num_filters for ls in self.layers)


@dataclass
class ModelParams:
    """Every trainable tensor is a view of one float64 vector, `flat`, laid out as
    named_parameters lists them. Write into the tensors in place: a rebound tensor
    drops out of `flat`, and so out of the optimizer and the best-epoch snapshot."""

    config: ModelConfig
    layers: list
    mlp: list  # [(weight, bias), ...], last maps to logits
    input_map: tuple | None  # (weight, bias)
    flat: np.ndarray


def _layout(config: ModelConfig) -> list:
    """(name, shape) of every trainable tensor, in the order of ModelParams.flat."""
    d_in = config.width_after_input()
    layout = []
    if config.input_map_dim is not None:
        layout += [("input_map.weight", (config.attr_dim, d_in)), ("input_map.bias", (d_in,))]
    for l, ls in enumerate(config.layers):
        f, n = ls.num_filters, ls.filter_nodes
        layout += [(f"layers.{l}.adjacency", (f, n, n)), (f"layers.{l}.attributes", (f, n, d_in))]
        if config.kernel_cfg().is_deep:
            layout.append((f"layers.{l}.deep_weights", (f, n, ls.k_max)))
        d_in = f
    width = config.readout_dim()
    for j, h in enumerate((*config.mlp_hidden, config.num_classes)):
        layout += [(f"mlp.{j}.weight", (width, h)), (f"mlp.{j}.bias", (h,))]
        width = h
    return layout


def _build_params(config: ModelConfig) -> ModelParams:
    """Zero-initialized parameters (deep pair weights 1) with the configured
    shapes, each bound to its view of one zero vector (named_parameters)."""
    kernel_cfg = config.kernel_cfg()
    flat = np.zeros(sum(math.prod(shape) for _, shape in _layout(config)))
    params = ModelParams(config=config, layers=[], mlp=[], input_map=None, flat=flat)
    views = iter(view for _, view in named_parameters(params))
    if config.input_map_dim is not None:
        params.input_map = (next(views), next(views))
    for ls in config.layers:
        layer = KerGNNLayer([], kernel_cfg, ls.hops, ls.k_max)  # tensors bound below
        layer.adjacency, layer.attributes = next(views), next(views)
        if kernel_cfg.is_deep:
            layer.deep_weights = next(views)
            layer.deep_weights[:] = 1.0
        params.layers.append(layer)
    params.mlp = [(next(views), next(views)) for _ in range(len(config.mlp_hidden) + 1)]
    return params


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


def named_parameters(params: ModelParams, vector: np.ndarray | None = None) -> list:
    """Stable (name, array) list of every trainable tensor, as views of
    params.flat, or of vector, laid out like it (a gradient from backward_batch)."""
    layout = _layout(params.config)
    stops = np.cumsum([math.prod(shape) for _, shape in layout])
    parts = np.split(params.flat if vector is None else vector, stops[:-1])
    return [(name, part.reshape(shape)) for (name, shape), part in zip(layout, parts)]


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

# Float64 entries that one packed chunk's layer caches may hold. Every
# layer's kernel cache lives until backward, so a packed node costs the sum
# over layers of what each keeps (see _chunk_costs); a batch is cut into
# consecutive chunks of graphs under this bound, and a graph larger than it
# is a chunk alone. A deep training step peaks at about 1.6 times the bound
# (8 bytes an entry): the caches, then two (R, f n) backward buffers. Set by
# the mutag-deep benchmark: 3 chunks of its 8-graph batches, against 5 at
# 2^17, cut fold_s by a quarter for 1-2% more peak RSS.
_CHUNK_ENTRIES = 5 * 2**16


def _pack(graphs, config: ModelConfig) -> tuple:
    """(PackedGraphs, index) of graphs: a Dataset's root view and its index
    into it, or for a list a view made for the call, which nothing keeps.
    ConfigError unless every graph has the model's attribute width."""
    if isinstance(graphs, Dataset):
        if len(graphs) and graphs.attr_dim != config.attr_dim:
            raise ConfigError(f"dataset attribute width {graphs.attr_dim} != model width {config.attr_dim}")
        return graphs.packed, graphs.index
    graphs = tuple(graphs)
    for g in graphs:
        if g.attr_dim != config.attr_dim:
            raise ConfigError(f"graph attribute width {g.attr_dim} != model width {config.attr_dim}")
    return PackedGraphs(graphs, config.attr_dim), np.arange(len(graphs))


def _packed_stack(pack: PackedGraphs, layer: KerGNNLayer) -> SubgraphStack:
    """The stack of all of pack's graphs at the layer's (hops, k_max), built
    in place graph by graph on first use and kept on pack."""
    key = (layer.hops, layer.k_max)
    if key not in pack.stacks:
        pack.stacks[key] = SubgraphStack.concatenate((stack_subgraphs(g, *key) for g in pack.graphs),
                                                     layer.k_max, rows=int(pack.offsets[-1]))
    return pack.stacks[key]


def _summed_maps(pack: PackedGraphs, layer: KerGNNLayer) -> np.ndarray:
    """Every graph's unweighted Gram maps of its raw attributes at the layer's
    (hops, k_max), steps 0..P or more, summed over its nodes: (G, steps, d^2).
    pack keeps one array per key, built graph by graph from each graph's own
    stack, which is not kept, and rebuilt for a longer walk; a shorter walk
    reads a slice of it."""
    key, steps = (layer.hops, layer.k_max), layer.kernel_cfg.P + 1
    if key in pack.maps and pack.maps[key].shape[1] < steps:
        del pack.maps[key]  # every row is rebuilt: free the shorter array first
    if key not in pack.maps:
        pack.maps[key] = np.zeros((len(pack.graphs), steps, layer.in_dim ** 2))
        for row, g in zip(pack.maps[key], pack.graphs):
            row[:] = _summed_row(g, stack_subgraphs(g, *key), steps)
    return pack.maps[key]


def _summed_row(g: Graph, stack: SubgraphStack, steps: int) -> np.ndarray:
    """(steps, d^2) unweighted Gram maps of g's raw attributes, summed over its stack."""
    return gram_maps(stack.gather(g.attributes), stack.adjacency, steps - 1).sum(axis=0)


def _stack_form(layer: KerGNNLayer) -> str:
    """"gram" or "hadamard", the layer's kernel form by kernels.uses_gram_form."""
    f, n, d = layer.attributes.shape
    return "gram" if uses_gram_form(layer.kernel_cfg, f, n, d, layer.k_max) else "hadamard"


def _layer_forms(params: ModelParams) -> list:
    """Each layer's form, the one decision forward, backward and chunking read:
    "summed" for a lone first layer in the Gram form without an input map or
    post_relu, else its _stack_form."""
    forms = [_stack_form(layer) for layer in params.layers]
    if forms == ["gram"] and params.input_map is None and not params.config.post_relu:
        forms = ["summed"]
    return forms


def _filter_sides(params: ModelParams, forms: list) -> list:
    """Every layer's kernels.FilterSide in its form (forms, the _layer_forms
    of params), built once per batch or prediction pass: every chunk's
    forward reads it and every chunk's backward adds into it."""
    return [filter_side(layer.attributes, layer.adjacency, layer.kernel_cfg, form != "hadamard")
            for layer, form in zip(params.layers, forms)]


def _layer_apply(layer: KerGNNLayer, form: str, source, feats: np.ndarray, post_relu: bool, filters):
    """Kernel values of one layer and its backward cache. source is the packed
    SubgraphStack, or for form "summed" the graphs' summed maps (feats is then
    unused). filters is the layer's FilterSide in that form."""
    if form == "summed":
        values, cache = gram_maps_forward(layer.attributes, layer.adjacency, source, layer.kernel_cfg,
                                          filters=filters)
    else:
        expected = (source.adjacency.shape[0], layer.in_dim)
        if feats.shape != expected:
            raise ValueError(
                f"feature shape {feats.shape} does not match {expected}: one row per graph node, "
                f"one column per layer input"
            )
        weights = layer.deep_weights if layer.kernel_cfg.is_deep else None
        values, cache = stacked_kernel_forward(layer.attributes, layer.adjacency, source.gather(feats),
                                               source.adjacency, layer.kernel_cfg, weights,
                                               layout=source.layout, filters=filters)
    pre = values
    if post_relu:
        values = np.maximum(values, 0.0)
    return values, (cache, pre)


def layer_forward(g: Graph, feats: np.ndarray, layer: KerGNNLayer,
                  post_relu: bool = False) -> np.ndarray:
    """Per-node kernel values (num_nodes, d_l) against every filter, on a
    subgraph stack built for the call."""
    form = _stack_form(layer)
    side = filter_side(layer.attributes, layer.adjacency, layer.kernel_cfg, form == "gram")
    values, _ = _layer_apply(layer, form, stack_subgraphs(g, layer.hops, layer.k_max),
                             np.asarray(feats, dtype=np.float64), post_relu, side)
    return values


def _chunk_costs(params: ModelParams, forms: list) -> tuple:
    """(per_graph, per_node, per_real) of the float64 entries a graph adds to
    the kernel caches of all layers: per_graph for the graph, (P+1) d^2 for
    the summed maps of a "summed" layer; per_node for each of its nodes,
    (P+1)(d^2 + k d) + k^2 per "gram" layer for the maps, walks and subgraph
    adjacency; and (layer, 2 f n + (P+1) d) per real slot of the layer's stack
    for each Hadamard-form layer, for S, the walk sum and the walks."""
    per_graph, per_node, per_real = 0, 0, []
    for layer, form in zip(params.layers, forms):
        f, n, d = layer.attributes.shape
        steps = layer.kernel_cfg.P + 1
        if form == "hadamard":
            per_real.append((layer, 2 * f * n + steps * d))
        elif form == "summed":
            per_graph += steps * d * d
        else:
            k = layer.k_max
            per_node += steps * (d * d + k * d) + k * k
    return per_graph, per_node, per_real


def _chunks(pack: PackedGraphs, idx: np.ndarray, params: ModelParams, forms: list) -> list:
    """(start, stop) of consecutive runs of idx whose packed intermediates stay
    under _CHUNK_ENTRIES, for layers in forms; every run holds at least one
    graph. A run ends before the first graph that brings its entries to the
    bound, found by searchsorted in the cumulative sum of the graphs' costs."""
    per_graph, per_node, per_real = _chunk_costs(params, forms)
    costs = per_graph + pack.sizes[idx] * per_node
    for layer, cost in per_real:
        costs = costs + cost * np.diff(_packed_stack(pack, layer).real_offsets)[idx]
    ends = np.cumsum(costs)
    chunks, start = [], 0
    while start < len(idx):
        before = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, before + _CHUNK_ENTRIES)), start + 1)
        chunks.append((start, stop))
        start = stop
    return chunks


def packed_chunks(graphs, params: ModelParams) -> list:
    """(start, stop) of consecutive runs of graphs (a list or a Dataset) whose
    packed intermediates stay under _CHUNK_ENTRIES; every run holds at least
    one graph."""
    return _chunks(*_pack(graphs, params.config), params, _layer_forms(params))


def _concat(arrays: list, empty_shape: tuple) -> np.ndarray:
    """np.concatenate of arrays, or zeros of empty_shape when there are none."""
    return np.concatenate(arrays) if arrays else np.zeros(empty_shape)


@dataclass
class BatchForward:
    """Everything backward_batch needs from one packed forward pass: the
    graphs' nodes concatenated in order, graph b's rows at offsets[b]:offsets[b+1].
    A model whose only layer is "summed" has no node rows: offsets and
    attributes are None, and each tensor of feats holds one row per graph."""

    offsets: np.ndarray | None  # (B+1,)
    attributes: np.ndarray | None  # raw packed attributes, (nodes, attr_dim)
    forms: list  # _layer_forms of the layers
    filters: list  # the layers' FilterSides, which the backward adds into
    stacks: list  # packed SubgraphStack of each layer, None for a "summed" layer
    feats: list  # packed feats_0..feats_L, each (nodes, d_l), or (B, d_l) graph sums
    layer_caches: list | None  # hold the layer tensors themselves: backward before they change;
    # None for a forward that keeps no caches (a prediction)
    mlp_inputs: list  # (B, width) each
    gates: list  # (B, width) ReLU gate times dropout mask of each hidden layer
    logits: np.ndarray  # (B, C)


def _forward(pack: PackedGraphs, idx: np.ndarray, params: ModelParams, forms: list, filters: list,
             dropout_rngs: list | None = None, caches: bool = True) -> BatchForward:
    """forward_batch of the graphs of pack at idx, with the layers in forms
    (_layer_forms) reading their filter sides filters (_filter_sides).
    caches=False keeps no layer cache, each dropped before the next layer's
    forward, for a pass with no backward."""
    cfg = params.config
    offsets = attributes = None
    if forms == ["summed"]:
        # the readout of a lone "summed" layer's input, the raw attributes, is
        # their graph sums, so the whole batch is graph rows
        layer = params.layers[0]
        maps = _summed_maps(pack, layer)[idx, :layer.kernel_cfg.P + 1]
        values, cache = _layer_apply(layer, "summed", maps, None, cfg.post_relu, filters[0])
        feats, stacks, layer_caches = [pack.attr_sums[idx], values], [None], [cache] if caches else None
        h = np.concatenate(feats, axis=1)
    else:
        offsets = np.concatenate(([0], np.cumsum(pack.sizes[idx])))
        attributes = _concat([pack.graphs[i].attributes for i in idx.tolist()], (0, cfg.attr_dim))
        feats0 = attributes
        if params.input_map is not None:
            w, b = params.input_map
            feats0 = feats0 @ w + b
        feats, stacks, layer_caches, packed = [feats0], [], [] if caches else None, {}
        for l, (layer, form) in enumerate(zip(params.layers, forms)):
            key = (layer.hops, layer.k_max)
            if key not in packed:
                packed[key] = _packed_stack(pack, layer).take(idx)
            stacks.append(packed[key])
            values, cache = _layer_apply(layer, form, packed[key], feats[-1], cfg.post_relu, filters[l])
            if caches:
                layer_caches.append(cache)
            del cache
            feats.append(values)
        h = segment_sum(np.concatenate(feats, axis=1), offsets)

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
    return BatchForward(offsets=offsets, attributes=attributes, forms=forms, filters=filters, stacks=stacks,
                        feats=feats, layer_caches=layer_caches, mlp_inputs=mlp_inputs, gates=gates,
                        logits=h)


def forward_batch(graphs, params: ModelParams, dropout_rngs: list | None = None) -> BatchForward:
    """One packed forward pass over graphs, a list or a Dataset: each layer's
    kernel runs once on the batch's subgraph stack, gathered from the view the
    graphs are packed in. dropout_rngs, one per graph, switch on the
    configured dropout; graph b's masks are drawn from dropout_rngs[b] alone."""
    forms = _layer_forms(params)
    return _forward(*_pack(graphs, params.config), params, forms, _filter_sides(params, forms), dropout_rngs)


def backward_batch(fwd: BatchForward, dlogits: np.ndarray, params: ModelParams) -> np.ndarray:
    """Gradient of sum(dlogits * logits), summed over the batch inside the
    matmuls, as one vector laid out like params.flat: named_parameters(params,
    grad) names its views. A forward has one backward (ValueError after)."""
    return _backward(fwd, dlogits, params, last_chunk=True)


def _backward(fwd: BatchForward, dlogits: np.ndarray, params: ModelParams, last_chunk: bool) -> np.ndarray:
    """backward_batch of one chunk of a batch whose chunks share filter sides:
    the last chunk's gradient holds the filter gradients of them all, taken
    from the sums (kernels.filter_grads), and the others' hold zeros."""
    # MLP head; parts gathers the gradients in named_parameters order
    parts = []
    dh = dlogits
    for j in reversed(range(len(params.mlp))):
        w, _ = params.mlp[j]
        if j < len(params.mlp) - 1:
            dh = dh * fwd.gates[j]
        parts[:0] = [fwd.mlp_inputs[j].T @ dh, dh.sum(axis=0)]
        dh = dh @ w.T

    # readout: every node of graph b gets row b of the readout gradient, split
    # by layer; graph rows read row b itself
    widths = np.cumsum([0] + [f.shape[1] for f in fwd.feats])
    if fwd.offsets is not None:
        dh = np.repeat(dh, np.diff(fwd.offsets), axis=0)
    dnodes = [dh[:, lo:hi] for lo, hi in zip(widths[:-1], widths[1:])]

    # kernel layers, last to first; the raw attributes' gradient dnodes[0]
    # is read only by an input map
    for l in reversed(range(len(params.layers))):
        cache, pre = fwd.layer_caches[l]
        gout = dnodes[l + 1]
        if params.config.post_relu:
            gout = gout * (pre > 0)
        need_x = l > 0 or params.input_map is not None
        d_w, d_xsub = stacked_kernel_backward(cache, gout, need_x)
        if last_chunk:
            d_xh, d_adj = filter_grads(fwd.filters[l])
        else:
            layer = params.layers[l]
            d_xh, d_adj = np.zeros(layer.attributes.shape), np.zeros(layer.adjacency.shape)
        parts[:0] = [d_adj, d_xh] if d_w is None else [d_adj, d_xh, d_w]
        if need_x:
            dnodes[l] = dnodes[l] + fwd.stacks[l].scatter(d_xsub)

    if params.input_map is not None:
        parts[:0] = [fwd.attributes.T @ dnodes[0], dnodes[0].sum(axis=0)]
    return np.concatenate([grad.ravel() for grad in parts])


def _predict(pack: PackedGraphs, idx: np.ndarray, params: ModelParams) -> np.ndarray:
    """predict_logits of the graphs of pack at idx."""
    logits = []
    forms = _layer_forms(params)
    filters = _filter_sides(params, forms)
    for start, stop in _chunks(pack, idx, params, forms):
        logits.append(_forward(pack, idx[start:stop], params, forms, filters, caches=False).logits)
    return _concat(logits, (0, params.config.num_classes))


def predict_logits(graphs, params: ModelParams) -> np.ndarray:
    """Eval-mode logits (B, C) of graphs (a list or a Dataset), forwarded in
    packed chunks."""
    return _predict(*_pack(graphs, params.config), params)


def model_forward(g: Graph, params: ModelParams):
    """Eval-mode logits (C,) plus the per-layer node feature maps of g, for
    introspection: a batch of one, whose stacks and maps nothing keeps. A
    "summed" layer's node values and summed maps come from one stack."""
    pack, idx = _pack([g], params.config)
    forms = _layer_forms(params)
    filters = _filter_sides(params, forms)
    if forms != ["summed"]:
        fwd = _forward(pack, idx, params, forms, filters)
        return fwd.logits[0], fwd.feats
    layer = params.layers[0]
    stack = stack_subgraphs(g, layer.hops, layer.k_max)
    pack.maps[(layer.hops, layer.k_max)] = _summed_row(g, stack, layer.kernel_cfg.P + 1)[None]
    # the Gram-form side of the "summed" layer serves its stack too
    values, _ = _layer_apply(layer, "gram", stack, g.attributes, False, filters[0])
    return _forward(pack, idx, params, forms, filters).logits[0], [g.attributes, values]


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
    # dumps runs the C encoder in one shot; json.dump streams the same text
    # through the pure-Python one, at twice the time
    text = json.dumps(payload, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
        seed = plain_value("seed", payload["seed"], int)
        extra = payload.get("extra", {})
        if not isinstance(extra, dict):
            raise CheckpointError(f"corrupted checkpoint {path}: extra: expected an object, got {extra!r}")
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupted checkpoint {path}: {exc}") from exc
    return params, seed, extra
