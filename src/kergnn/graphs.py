"""Undirected attributed graphs, TUDataset ingestion, and subgraph extraction.

Graphs are stored dense (float64 adjacency, float64 attribute matrix).
Datasets in the TUDataset text format are read from a directory of files:

    <name>_A.txt               1-indexed "i, j" edge pairs, each undirected
                               edge present in both directions
    <name>_graph_indicator.txt one 1-indexed graph id per node line
    <name>_graph_labels.txt    one integer per graph line
    <name>_node_labels.txt     optional, one integer per node line
    <name>_node_attributes.txt optional, finite reals per node line

These and the standalone graph files go through one line parser: blank lines
are skipped, and '#' comment lines too in graph files only; fields are split
at whitespace, and at commas as well in _A.txt and _node_attributes.txt; an
error names the file and the line it is on.

Node attributes fed to models are built as: one-hot node labels when labels
are present, raw continuous attributes when present (concatenated after the
one-hot block if both exist), and the scalar node degree when neither exists.

A node's subgraph is the vertex-induced subgraph of the nodes within `hops`
of it, center first, then hop ascending, id ascending inside a hop, cut to
k_max nodes and zero-padded to k_max. `extract_subgraph` builds one by BFS
and is the reference; `stack_subgraphs`, which the model uses, builds every
node's at once with array code and equals it per node byte for byte: hop-
limited reachability by 0/1 matmuls with the edge indicator, a row-wise
argsort of the key dist * n + id, and one gather of the adjacency, in blocks
of rows so no n x n int64 matrix is formed.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError
from .kernels import SlotLayout

__all__ = [
    "Graph",
    "Dataset",
    "Subgraph",
    "DatasetStats",
    "load_tudataset",
    "save_tudataset",
    "extract_subgraph",
    "stack_subgraphs",
    "SubgraphStack",
    "dataset_stats",
    "read_graph_file",
    "write_graph_file",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected attributed graph.

    adjacency: (n, n) symmetric binary matrix with zero diagonal.
    attributes: (n, d) real matrix, one row per node.
    stacks: SubgraphStacks by (hops, k_max), built by the model on first use.
    gram_maps: the model's first-layer Gram maps of the attributes, (n, P+1,
        d^2) arrays by (hops, k_max); see kergnn.model.
        The arrays are read-only, so no entry of either cache goes stale;
        copies made by `relabeled` or `dataclasses.replace` start with both
        empty; `stacks.clear()` and `gram_maps.clear()` free them.

    Equality and hashing are by identity (the fields are arrays).
    """

    num_nodes: int
    adjacency: np.ndarray
    attributes: np.ndarray
    graph_label: int | None = None
    node_labels: np.ndarray | None = None
    stacks: dict = field(default_factory=dict, init=False, repr=False)
    gram_maps: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.float64)
        attr = np.asarray(self.attributes, dtype=np.float64)
        if adj.shape != (self.num_nodes, self.num_nodes):
            raise ValueError(f"adjacency shape {adj.shape} != ({self.num_nodes}, {self.num_nodes})")
        if attr.ndim != 2 or attr.shape[0] != self.num_nodes:
            raise ValueError(f"attributes must have {self.num_nodes} rows, got shape {attr.shape}")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(adj) != 0):
            raise ValueError("adjacency must have zero diagonal")
        object.__setattr__(self, "adjacency", _freeze(adj))
        object.__setattr__(self, "attributes", _freeze(attr))
        if self.node_labels is not None:
            labels = np.asarray(self.node_labels, dtype=np.int64)
            if labels.shape != (self.num_nodes,):
                raise ValueError("node_labels must have one entry per node")
            labels.setflags(write=False)
            object.__setattr__(self, "node_labels", labels)

    @property
    def attr_dim(self) -> int:
        return self.attributes.shape[1]

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def relabeled(self, perm: np.ndarray) -> "Graph":
        """Graph with node i renamed to perm[i]."""
        perm = np.asarray(perm)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.num_nodes)
        adj = self.adjacency[np.ix_(inv, inv)]
        attr = self.attributes[inv]
        labels = self.node_labels[inv] if self.node_labels is not None else None
        return Graph(self.num_nodes, adj, attr, self.graph_label, labels)


@dataclass(frozen=True)
class Dataset:
    name: str
    graphs: tuple
    num_classes: int
    attr_dim: int

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        for g in self.graphs:
            if g.attr_dim != self.attr_dim:
                raise ValueError("all graphs must share the dataset attribute width")
            if g.graph_label is None or not (0 <= g.graph_label < self.num_classes):
                raise ValueError("graph labels must lie in [0, num_classes)")

    def __len__(self) -> int:
        return len(self.graphs)

    def labels(self) -> np.ndarray:
        return np.array([g.graph_label for g in self.graphs], dtype=np.int64)

    def subset(self, indices, name: str | None = None) -> "Dataset":
        graphs = [self.graphs[i] for i in indices]
        return Dataset(name or self.name, graphs, self.num_classes, self.attr_dim)


@dataclass(frozen=True)
class Subgraph:
    """Fixed-capacity padded neighborhood of a node.

    node_ids holds the original node ids, center first, then hop distance
    ascending with id ascending inside a hop. Rows and columns at index
    >= size are exactly zero in both matrices.
    """

    center: int
    node_ids: tuple
    adjacency: np.ndarray
    attributes: np.ndarray
    size: int

    @property
    def capacity(self) -> int:
        return self.adjacency.shape[0]


@dataclass
class DatasetStats:
    graphs: int
    classes: int
    avg_nodes: float
    attr_dim: int


# ---------------------------------------------------------------------------
# TUDataset ingestion
# ---------------------------------------------------------------------------


def _parse_lines(path: str, parse, *, commas: bool = False, comments: bool = False) -> tuple:
    """parse(fields) of every data line of a text file, and those lines' numbers.

    A line's fields are split at whitespace, and at commas too when `commas`.
    Blank lines, and lines starting with '#' when `comments`, are skipped. A
    ValueError from parse becomes a DatasetError naming path:line.
    """
    if not os.path.isfile(path):
        raise DatasetError(f"missing file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    values, numbers = [], []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or comments and text[0] == "#":
            continue
        try:
            values.append(parse((text.replace(",", " ") if commas else text).split()))
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from None
        numbers.append(lineno)
    return values, numbers


def _integer(fields: list) -> int:
    if len(fields) != 1:
        raise ValueError("expected one integer")
    return int(fields[0])


def _reals(fields: list, width: int | None = None) -> list:
    """Finite floats, exactly `width` of them unless width is None."""
    if width is not None and len(fields) != width:
        raise ValueError(f"expected {width} attribute values")
    row = [float(x) for x in fields]
    if not all(map(math.isfinite, row)):
        raise ValueError("attribute values must be finite")
    return row


def _edge(fields: list, first: int, last: int) -> tuple:
    """0-based (i, j) of an edge row whose node ids run first..last."""
    if len(fields) != 2:
        raise ValueError("expected an edge 'i j'")
    i, j = int(fields[0]), int(fields[1])
    if not (first <= i <= last and first <= j <= last) or i == j:
        raise ValueError(f"invalid edge ({i}, {j}): node ids must differ and lie in {first}..{last}")
    return i - first, j - first


def _expect(path: str, values: list, count: int, what: str) -> None:
    if len(values) != count:
        raise DatasetError(f"{path}: expected {count} {what}, found {len(values)}")


def _codes(raw: list) -> tuple:
    """Codes 0..k-1 of integer labels (Python ints, any size) by ascending value, and k."""
    index = {v: k for k, v in enumerate(sorted(set(raw)))}
    return np.fromiter(map(index.__getitem__, raw), np.int64, len(raw)), len(index)


def load_tudataset(directory: str, name: str) -> Dataset:
    """Load a dataset in the TUDataset directory format.

    Graph labels are remapped to contiguous [0, num_classes); node labels,
    when present, are remapped the same way before one-hot encoding.
    """
    prefix = os.path.join(directory, name)
    edges_path = prefix + "_A.txt"
    indicator_path = prefix + "_graph_indicator.txt"
    labels_path = prefix + "_graph_labels.txt"

    indicator, _ = _parse_lines(indicator_path, _integer)
    num_nodes = len(indicator)
    graph_ids = set(indicator)
    num_graphs = len(graph_ids)
    # distinct integers cover 1..n exactly when the smallest is 1 and the largest n
    if graph_ids and (min(graph_ids) != 1 or max(graph_ids) != num_graphs):
        raise DatasetError(f"{indicator_path}: graph ids must cover 1..{max(graph_ids)}")
    graph_of = np.array(indicator, dtype=np.int64) - 1

    raw_graph_labels, _ = _parse_lines(labels_path, _integer)
    _expect(labels_path, raw_graph_labels, num_graphs, "labels")
    graph_labels, num_classes = _codes(raw_graph_labels)

    pairs, edge_lines = _parse_lines(edges_path, lambda f: _edge(f, 1, num_nodes), commas=True)
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    crossing = np.flatnonzero(graph_of[src] != graph_of[dst])
    if crossing.size:
        raise DatasetError(f"{edges_path}:{edge_lines[crossing[0]]}: edge crosses graph boundaries")

    node_labels_path = prefix + "_node_labels.txt"
    node_labels, blocks = None, []
    if os.path.isfile(node_labels_path):
        raw_node_labels, _ = _parse_lines(node_labels_path, _integer)
        _expect(node_labels_path, raw_node_labels, num_nodes, "labels")
        node_labels, num_values = _codes(raw_node_labels)
        blocks.append(np.eye(num_values)[node_labels])

    attributes_path = prefix + "_node_attributes.txt"
    if os.path.isfile(attributes_path):
        rows, lines = _parse_lines(attributes_path, _reals, commas=True)
        _expect(attributes_path, rows, num_nodes, "rows")
        width = len(rows[0]) if rows else 0
        ragged = next((k for k, row in enumerate(rows) if len(row) != width), None)
        if ragged is not None:
            raise DatasetError(f"{attributes_path}:{lines[ragged]}: inconsistent attribute width")
        blocks.append(np.array(rows, dtype=np.float64).reshape(num_nodes, width))
    # one row per node over all graphs; without node files, each graph's degrees
    features = np.hstack(blocks) if blocks else None

    # nodes and edges grouped by graph, both in file order inside a graph;
    # bounds[g] is where graph g's run starts, local ids count inside a run
    node_order = np.argsort(graph_of, kind="stable")
    node_bounds = np.searchsorted(graph_of[node_order], np.arange(num_graphs + 1))
    local = np.argsort(node_order) - node_bounds[graph_of]
    edge_order = np.argsort(graph_of[src], kind="stable")
    edge_bounds = np.searchsorted(graph_of[src[edge_order]], np.arange(num_graphs + 1))

    graphs = []
    for gid, label in enumerate(graph_labels.tolist()):
        nodes = node_order[node_bounds[gid]:node_bounds[gid + 1]]
        edges = edge_order[edge_bounds[gid]:edge_bounds[gid + 1]]
        i, j = local[src[edges]], local[dst[edges]]
        adj = np.zeros((len(nodes), len(nodes)))
        adj[i, j] = 1.0
        lonely = edges[adj[j, i] == 0]
        if lonely.size:
            k = lonely[0]
            raise DatasetError(f"{edges_path}:{edge_lines[k]}: no reverse of edge {src[k] + 1}, {dst[k] + 1}")
        attributes = adj.sum(axis=1, keepdims=True) if features is None else features[nodes]
        labels = None if node_labels is None else node_labels[nodes]
        graphs.append(Graph(len(nodes), adj, attributes, label, labels))

    return Dataset(name, graphs, num_classes, attr_dim=graphs[0].attr_dim if graphs else 0)


def save_tudataset(ds: Dataset, directory: str) -> None:
    """Write a dataset back out in the TUDataset format.

    Continuous attribute columns (anything past the one-hot label block) are
    written to _node_attributes.txt; degree-derived attributes are not written
    since the loader reconstructs them.
    """
    os.makedirs(directory, exist_ok=True)
    prefix = os.path.join(directory, ds.name)

    has_labels = all(g.node_labels is not None for g in ds.graphs)
    label_width = 0
    if has_labels:
        label_width = 1 + max(int(g.node_labels.max()) for g in ds.graphs if g.num_nodes)
    # attribute columns beyond the one-hot block are continuous payload
    continuous_width = ds.attr_dim - label_width if has_labels else ds.attr_dim
    # bytes, not values: a -0.0 attribute must be written, the loader's degrees are +0.0
    degree_only = not has_labels and ds.attr_dim == 1 and all(
        g.attributes[:, 0].tobytes() == g.degrees().tobytes() for g in ds.graphs
    )

    edge_lines, indicator_lines, graph_label_lines = [], [], []
    node_label_lines, attr_lines = [], []
    offset = 0
    for gid, g in enumerate(ds.graphs, start=1):
        # row-major: both directions of an edge, i then j ascending
        edge_lines.extend(f"{offset + i + 1}, {offset + j + 1}"
                          for i, j in np.argwhere(g.adjacency).tolist())
        indicator_lines.extend([str(gid)] * g.num_nodes)
        if has_labels:
            node_label_lines.extend(str(x) for x in g.node_labels.tolist())
        if continuous_width and not degree_only:
            attr_lines.extend(", ".join(repr(float(x)) for x in row)
                              for row in g.attributes[:, label_width:])
        graph_label_lines.append(str(g.graph_label))
        offset += g.num_nodes

    def dump(path, lines):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))

    dump(prefix + "_A.txt", edge_lines)
    dump(prefix + "_graph_indicator.txt", indicator_lines)
    dump(prefix + "_graph_labels.txt", graph_label_lines)
    if has_labels:
        dump(prefix + "_node_labels.txt", node_label_lines)
    if continuous_width and not degree_only:
        dump(prefix + "_node_attributes.txt", attr_lines)


def dataset_stats(ds: Dataset) -> DatasetStats:
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    avg = float(np.mean([g.num_nodes for g in ds.graphs]))
    return DatasetStats(graphs=len(ds), classes=ds.num_classes, avg_nodes=avg, attr_dim=ds.attr_dim)


# ---------------------------------------------------------------------------
# Subgraph extraction
# ---------------------------------------------------------------------------


def _bfs_order(g: Graph, v: int, hops: int) -> list[int]:
    """Nodes within `hops` of v: center first, hop ascending, id ascending."""
    dist = {v: 0}
    frontier = deque([v])
    while frontier:
        u = frontier.popleft()
        if dist[u] == hops:
            continue
        for w in np.flatnonzero(g.adjacency[u]):
            w = int(w)
            if w not in dist:
                dist[w] = dist[u] + 1
                frontier.append(w)
    # BFS discovery order is not id-sorted within a hop; rebuild deterministically
    order = sorted(dist, key=lambda u: (dist[u], u))
    order.remove(v)
    return [v] + order


def extract_subgraph(g: Graph, v: int, hops: int, k_max: int) -> Subgraph:
    """Padded vertex-induced subgraph of v and its neighbors up to `hops`.

    If more than k_max nodes are reachable, the nearest (then lowest-id)
    k_max are kept.
    """
    if not (0 <= v < g.num_nodes):
        raise ValueError(f"node {v} out of range for graph with {g.num_nodes} nodes")
    if hops < 1:
        raise ValueError("hops must be >= 1")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")

    kept = _bfs_order(g, v, hops)[:k_max]
    size = len(kept)
    adj = np.zeros((k_max, k_max))
    adj[:size, :size] = g.adjacency[np.ix_(kept, kept)]
    attr = np.zeros((k_max, g.attr_dim))
    attr[:size] = g.attributes[kept]
    return Subgraph(center=v, node_ids=tuple(kept), adjacency=adj, attributes=attr, size=size)


@dataclass
class SubgraphStack:
    """All of a graph's padded subgraphs stacked for batched kernel math.

    gather_idx/mask fix the padding layout: `gather` turns a per-node feature
    matrix into the stacked padded attribute tensor, `scatter` is its adjoint.
    layout lists the real slots of mask (kernels.SlotLayout), which the
    Hadamard form runs over; it is derived from mask once, when not given.
    """

    gather_idx: np.ndarray  # (num_nodes, k_max), 0 where padded
    mask: np.ndarray  # (num_nodes, k_max), 1.0 real slot / 0.0 pad
    adjacency: np.ndarray  # (num_nodes, k_max, k_max)
    layout: SlotLayout | None = None

    def __post_init__(self):
        if self.layout is None:
            self.layout = SlotLayout.from_mask(self.mask)

    def gather(self, feats: np.ndarray) -> np.ndarray:
        """(num_nodes, k_max, d) padded attribute tensor from per-node feats."""
        return feats[self.gather_idx] * self.mask[:, :, None]

    def scatter(self, grad: np.ndarray) -> np.ndarray:
        """(num_nodes, d) per-node sums of a (num_nodes, k_max, d) tensor over
        the real slots that hold each node: the adjoint of gather. One bincount
        over the flat entries node * d + column adds in slot order, as
        np.add.at would, so the sums are the same bit for bit."""
        n, d = self.gather_idx.shape[0], grad.shape[2]
        flat = (self.gather_idx[:, :, None] * d + np.arange(d)).ravel()
        out = np.bincount(flat, weights=(grad * self.mask[:, :, None]).ravel(), minlength=n * d)
        return out.reshape(n, d)

    @classmethod
    def concatenate(cls, stacks: list, k_max: int) -> "SubgraphStack":
        """One stack over the disjoint union of the stacks' graphs, in order:
        each gather_idx is offset by the node counts of the stacks before it,
        and the layouts by the subgraph and real-slot counts. No stacks give an
        empty stack of k_max slots."""
        if not stacks:
            return cls(gather_idx=np.zeros((0, k_max), dtype=np.int64), mask=np.zeros((0, k_max)),
                       adjacency=np.zeros((0, k_max, k_max)))
        if len(stacks) == 1:
            return stacks[0]
        offsets = np.cumsum([0] + [s.gather_idx.shape[0] for s in stacks[:-1]])
        return cls(gather_idx=np.concatenate([s.gather_idx + o for s, o in zip(stacks, offsets)]),
                   mask=np.concatenate([s.mask for s in stacks]),
                   adjacency=np.concatenate([s.adjacency for s in stacks]),
                   layout=SlotLayout.concatenate([s.layout for s in stacks], k_max))


# Rows of the hop-limited reachability built at a time: the (chunk, n) key
# and frontier blocks of a DD-sized graph (~5.7k nodes) stay ~12 MB each.
_ROW_CHUNK = 256
# sort key of a node not within `hops`: after every reached node
_UNREACHED = np.iinfo(np.int64).max


def stack_subgraphs(g: Graph, hops: int, k_max: int) -> SubgraphStack:
    """Every node's padded subgraph, equal per node to extract_subgraph.

    Row v of gather_idx holds extract_subgraph(g, v, hops, k_max).node_ids
    then zeros, mask marks those slots, and adjacency[v] is its padded
    adjacency, byte for byte. Rows are built in blocks of _ROW_CHUNK nodes:
    hop-limited reachability by 0/1 matmuls with the edge indicator (A != 0),
    stopped once a step reaches no new node; then a row-wise argsort of the
    key dist * n + id, unreached nodes last, cut to k_max (center first, hop
    ascending, id ascending inside a hop); then one gather from g.adjacency.
    """
    if hops < 1:
        raise ValueError("hops must be >= 1")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = g.num_nodes
    gather = np.zeros((n, k_max), dtype=np.int64)
    mask = np.zeros((n, k_max))
    adj = np.zeros((n, k_max, k_max))
    a = g.adjacency
    edges = (a != 0).astype(np.float64)  # weights could cancel in the frontier sums
    k = min(k_max, n)
    for start in range(0, n, _ROW_CHUNK):
        stop = min(start + _ROW_CHUNK, n)
        block, rows, local = slice(start, stop), np.arange(start, stop), np.arange(stop - start)
        key = np.full((stop - start, n), _UNREACHED, dtype=np.int64)
        key[local, rows] = rows
        new = a[block] != 0  # hop 1: the centers' adjacency rows
        for dist in range(1, hops + 1):
            if dist > 1:
                new = (new.astype(np.float64) @ edges != 0) & (key == _UNREACHED)
            if not new.any():
                break
            key[new] = dist * n + np.nonzero(new)[1]
        order = np.argsort(key, axis=1)[:, :k]
        real = key[local[:, None], order] != _UNREACHED
        # copies into the zeroed outputs, so padding stays +0.0 whatever the weights
        np.copyto(gather[block, :k], order, where=real)
        np.copyto(mask[block, :k], real)
        pairs = order[:, :, None] * n + order[:, None, :]
        both = real[:, :, None] & real[:, None, :]
        np.copyto(adj[block, :k, :k], a.ravel().take(pairs), where=both)
    return SubgraphStack(gather_idx=gather, mask=mask, adjacency=adj)


# ---------------------------------------------------------------------------
# Standalone graph files (used by the kernel / wl-test CLI commands)
# ---------------------------------------------------------------------------


def read_graph_file(path: str) -> Graph:
    """Read the graph text format: an "n d" header, n rows of d attribute values
    (no rows when d is 0), then 0-indexed "i j" edge rows, one per undirected edge."""
    shape, rows, edges = [], [], []

    def parse(fields):
        if not shape:
            if len(fields) != 2:
                raise ValueError("header must be 'n d'")
            shape.extend(int(x) for x in fields)
            if min(shape) < 0:
                raise ValueError(f"header 'n d' must not be negative, got '{shape[0]} {shape[1]}'")
            np.empty((0, shape[1]))  # a width no array can have raises ValueError here
        elif shape[1] and len(rows) < shape[0]:  # zero-width rows have no line of their own
            rows.append(_reals(fields, shape[1]))
        else:
            edges.append(_edge(fields, 0, shape[0] - 1))

    _parse_lines(path, parse, comments=True)
    if not shape:
        raise DatasetError(f"{path}: empty graph file")
    n, d = shape
    if d and len(rows) < n:
        raise DatasetError(f"{path}: expected {n} attribute lines after the header")
    try:  # with d = 0 no line bounds n
        adj = np.zeros((n, n))
    except (MemoryError, ValueError):
        raise DatasetError(f"{path}: a graph of {n} nodes does not fit in memory") from None
    i, j = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    adj[i, j] = adj[j, i] = 1.0
    return Graph(n, adj, np.array(rows, dtype=np.float64).reshape(n, d))


def write_graph_file(g: Graph, path: str) -> None:
    lines = [f"{g.num_nodes} {g.attr_dim}"]
    if g.attr_dim:  # a zero-width row would be a blank line, which the reader skips
        lines.extend(" ".join(repr(float(x)) for x in row) for row in g.attributes)
    lines.extend(f"{i} {j}" for i, j in np.argwhere(np.triu(g.adjacency, 1)).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
