"""Undirected attributed graphs, TUDataset ingestion, and subgraph extraction.

Graphs are stored dense (float64 adjacency, float64 attribute matrix).
Datasets in the TUDataset text format are read from a directory of files:

    <name>_A.txt               comma-separated 1-indexed "i, j" edge pairs,
                               each undirected edge present in both directions
    <name>_graph_indicator.txt one 1-indexed graph id per node line
    <name>_graph_labels.txt    one integer per graph line
    <name>_node_labels.txt     optional, one integer per node line
    <name>_node_attributes.txt optional, comma-separated reals per node line

Node attributes fed to models are built as: one-hot node labels when labels
are present, raw continuous attributes when present (concatenated after the
one-hot block if both exist), and the scalar node degree when neither exists.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError

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

    Equality and hashing are by identity (the fields are arrays), so a graph
    can key a dict of per-graph data such as model.graph_stacks' memo.
    """

    num_nodes: int
    adjacency: np.ndarray
    attributes: np.ndarray
    graph_label: int | None = None
    node_labels: np.ndarray | None = None

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


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _require(path: str) -> str:
    if not os.path.isfile(path):
        raise DatasetError(f"missing required dataset file: {path}")
    return path


def load_tudataset(directory: str, name: str) -> Dataset:
    """Load a dataset in the TUDataset directory format.

    Graph labels are remapped to contiguous [0, num_classes); node labels,
    when present, are remapped the same way before one-hot encoding.
    """
    prefix = os.path.join(directory, name)
    edges_path = _require(prefix + "_A.txt")
    indicator_path = _require(prefix + "_graph_indicator.txt")
    labels_path = _require(prefix + "_graph_labels.txt")

    indicator = []
    for lineno, line in enumerate(_read_lines(indicator_path), start=1):
        if not line.strip():
            continue
        try:
            indicator.append(int(line.strip()))
        except ValueError:
            raise DatasetError(f"{indicator_path}:{lineno}: expected an integer graph id") from None
    num_nodes_total = len(indicator)
    graph_ids = set(indicator)
    num_graphs = len(graph_ids)
    # distinct integers cover 1..n exactly when the smallest is 1 and the largest n
    if graph_ids and (min(graph_ids) != 1 or max(graph_ids) != num_graphs):
        raise DatasetError(f"{indicator_path}: graph ids must cover 1..{max(graph_ids)}")

    raw_graph_labels = []
    for lineno, line in enumerate(_read_lines(labels_path), start=1):
        if not line.strip():
            continue
        try:
            raw_graph_labels.append(int(line.strip()))
        except ValueError:
            raise DatasetError(f"{labels_path}:{lineno}: expected an integer label") from None
    if len(raw_graph_labels) != num_graphs:
        raise DatasetError(
            f"{labels_path}: expected {num_graphs} labels, found {len(raw_graph_labels)}"
        )

    directed_edges = set()
    edge_lines = []
    for lineno, line in enumerate(_read_lines(edges_path), start=1):
        if not line.strip():
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise DatasetError(f"{edges_path}:{lineno}: expected 'i, j'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise DatasetError(f"{edges_path}:{lineno}: expected integer node ids") from None
        if not (1 <= i <= num_nodes_total and 1 <= j <= num_nodes_total):
            raise DatasetError(
                f"{edges_path}:{lineno}: node id out of range 1..{num_nodes_total}"
            )
        if i == j:
            raise DatasetError(f"{edges_path}:{lineno}: self-loops are not supported")
        directed_edges.add((i, j))
        edge_lines.append((lineno, i, j))
    for lineno, i, j in edge_lines:
        if (j, i) not in directed_edges:
            raise DatasetError(
                f"{edges_path}:{lineno}: edge ({i}, {j}) has no reverse entry ({j}, {i})"
            )

    node_labels_path = prefix + "_node_labels.txt"
    raw_node_labels = None
    if os.path.isfile(node_labels_path):
        raw_node_labels = []
        for lineno, line in enumerate(_read_lines(node_labels_path), start=1):
            if not line.strip():
                continue
            try:
                raw_node_labels.append(int(line.strip()))
            except ValueError:
                raise DatasetError(f"{node_labels_path}:{lineno}: expected an integer label") from None
        if len(raw_node_labels) != num_nodes_total:
            raise DatasetError(
                f"{node_labels_path}: expected {num_nodes_total} labels, found {len(raw_node_labels)}"
            )

    attributes_path = prefix + "_node_attributes.txt"
    raw_attributes = None
    if os.path.isfile(attributes_path):
        raw_attributes = []
        width = None
        for lineno, line in enumerate(_read_lines(attributes_path), start=1):
            if not line.strip():
                continue
            try:
                row = [float(x) for x in line.replace(",", " ").split()]
            except ValueError:
                raise DatasetError(f"{attributes_path}:{lineno}: expected comma-separated reals") from None
            if not all(math.isfinite(x) for x in row):
                raise DatasetError(f"{attributes_path}:{lineno}: attribute values must be finite")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DatasetError(f"{attributes_path}:{lineno}: inconsistent attribute width")
            raw_attributes.append(row)
        if len(raw_attributes) != num_nodes_total:
            raise DatasetError(
                f"{attributes_path}: expected {num_nodes_total} rows, found {len(raw_attributes)}"
            )
        raw_attributes = np.array(raw_attributes, dtype=np.float64)

    # Contiguous remappings, sorted so reloading a saved dataset is stable.
    label_values = sorted(set(raw_graph_labels))
    graph_label_map = {v: k for k, v in enumerate(label_values)}
    node_label_map = None
    if raw_node_labels is not None:
        node_values = sorted(set(raw_node_labels))
        node_label_map = {v: k for k, v in enumerate(node_values)}

    node_ids_per_graph = [[] for _ in range(num_graphs)]
    local_index = np.zeros(num_nodes_total, dtype=np.int64)
    for node, gid in enumerate(indicator):
        local_index[node] = len(node_ids_per_graph[gid - 1])
        node_ids_per_graph[gid - 1].append(node)

    edges_per_graph = [[] for _ in range(num_graphs)]
    for lineno, i, j in edge_lines:
        a, b = i - 1, j - 1
        gid = indicator[a] - 1
        if indicator[b] - 1 != gid:
            raise DatasetError(f"{edges_path}:{lineno}: edge crosses graph boundaries")
        edges_per_graph[gid].append((local_index[a], local_index[b]))

    graphs = []
    for gid in range(num_graphs):
        nodes = node_ids_per_graph[gid]
        n = len(nodes)
        adj = np.zeros((n, n))
        for a, b in edges_per_graph[gid]:
            adj[a, b] = 1.0

        node_labels = None
        blocks = []
        if raw_node_labels is not None:
            node_labels = np.array([node_label_map[raw_node_labels[v]] for v in nodes])
            onehot = np.zeros((n, len(node_label_map)))
            onehot[np.arange(n), node_labels] = 1.0
            blocks.append(onehot)
        if raw_attributes is not None:
            blocks.append(raw_attributes[nodes])
        if not blocks:
            blocks.append(adj.sum(axis=1, keepdims=True))
        attributes = np.hstack(blocks)

        graphs.append(
            Graph(
                num_nodes=n,
                adjacency=adj,
                attributes=attributes,
                graph_label=graph_label_map[raw_graph_labels[gid]],
                node_labels=node_labels,
            )
        )

    attr_dim = graphs[0].attr_dim if graphs else 0
    return Dataset(name=name, graphs=graphs, num_classes=len(label_values), attr_dim=attr_dim)


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
    degree_only = not has_labels and ds.attr_dim == 1 and all(
        np.array_equal(g.attributes[:, 0], g.degrees()) for g in ds.graphs
    )

    edge_lines, indicator_lines, graph_label_lines = [], [], []
    node_label_lines, attr_lines = [], []
    offset = 0
    for gid, g in enumerate(ds.graphs, start=1):
        for i in range(g.num_nodes):
            indicator_lines.append(str(gid))
            for j in range(g.num_nodes):
                if g.adjacency[i, j] != 0:
                    edge_lines.append(f"{offset + i + 1}, {offset + j + 1}")
            if has_labels:
                node_label_lines.append(str(int(g.node_labels[i])))
            if continuous_width and not degree_only:
                row = g.attributes[i, label_width:]
                attr_lines.append(", ".join(repr(float(x)) for x in row))
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
    """

    gather_idx: np.ndarray  # (num_nodes, k_max), 0 where padded
    mask: np.ndarray  # (num_nodes, k_max), 1.0 real slot / 0.0 pad
    adjacency: np.ndarray  # (num_nodes, k_max, k_max)

    def gather(self, feats: np.ndarray) -> np.ndarray:
        """(num_nodes, k_max, d) padded attribute tensor from per-node feats."""
        return feats[self.gather_idx] * self.mask[:, :, None]

    def scatter(self, grad: np.ndarray) -> np.ndarray:
        """(num_nodes, d) per-node sums of a (num_nodes, k_max, d) tensor over
        the real slots that hold each node: the adjoint of gather."""
        d = grad.shape[2]
        out = np.zeros((self.gather_idx.shape[0], d))
        np.add.at(out, self.gather_idx.ravel(), (grad * self.mask[:, :, None]).reshape(-1, d))
        return out


def stack_subgraphs(g: Graph, hops: int, k_max: int) -> SubgraphStack:
    gather = np.zeros((g.num_nodes, k_max), dtype=np.int64)
    mask = np.zeros((g.num_nodes, k_max))
    adj = np.zeros((g.num_nodes, k_max, k_max))
    for v in range(g.num_nodes):
        sub = extract_subgraph(g, v, hops, k_max)
        gather[v, : sub.size] = sub.node_ids
        mask[v, : sub.size] = 1.0
        adj[v] = sub.adjacency
    return SubgraphStack(gather_idx=gather, mask=mask, adjacency=adj)


# ---------------------------------------------------------------------------
# Standalone graph files (used by the kernel / wl-test CLI commands)
# ---------------------------------------------------------------------------


def read_graph_file(path: str) -> Graph:
    """Read the simple text format: "n d" header, n attribute rows, edge rows.

    Edges are 0-indexed "i j" pairs, one per undirected edge.
    """
    if not os.path.isfile(path):
        raise DatasetError(f"missing graph file: {path}")
    lines = [ln for ln in _read_lines(path) if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise DatasetError(f"{path}: empty graph file")
    header = lines[0].split()
    if len(header) != 2:
        raise DatasetError(f"{path}:1: header must be 'n d'")
    try:
        n, d = int(header[0]), int(header[1])
    except ValueError:
        raise DatasetError(f"{path}:1: header must be two integers") from None
    if n < 0 or d < 0:
        raise DatasetError(f"{path}:1: header 'n d' must not be negative, got '{n} {d}'")
    if len(lines) < 1 + n:
        raise DatasetError(f"{path}: expected {n} attribute lines after the header")
    # rows are checked before any array is sized from the header
    rows = []
    for k in range(n):
        row = lines[1 + k].split()
        if len(row) != d:
            raise DatasetError(f"{path}:{k + 2}: expected {d} attribute values")
        try:
            rows.append([float(x) for x in row])
        except ValueError:
            raise DatasetError(f"{path}:{k + 2}: expected real attribute values") from None
        if not all(math.isfinite(x) for x in rows[-1]):
            raise DatasetError(f"{path}:{k + 2}: attribute values must be finite")
    try:
        attrs = np.array(rows, dtype=np.float64).reshape(n, d)
    except ValueError:  # only an empty graph with a huge width gets here
        raise DatasetError(f"{path}:1: attribute width {d} is too large") from None
    adj = np.zeros((n, n))
    for k, line in enumerate(lines[1 + n:]):
        parts = line.split()
        if len(parts) != 2:
            raise DatasetError(f"{path}:{k + n + 2}: expected edge 'i j'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise DatasetError(f"{path}:{k + n + 2}: expected integer node ids") from None
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise DatasetError(f"{path}:{k + n + 2}: invalid edge ({i}, {j})")
        adj[i, j] = adj[j, i] = 1.0
    return Graph(num_nodes=n, adjacency=adj, attributes=attrs)


def write_graph_file(g: Graph, path: str) -> None:
    lines = [f"{g.num_nodes} {g.attr_dim}"]
    for row in g.attributes:
        lines.append(" ".join(repr(float(x)) for x in row))
    for i in range(g.num_nodes):
        for j in range(i + 1, g.num_nodes):
            if g.adjacency[i, j] != 0:
                lines.append(f"{i} {j}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
