"""Undirected attributed graphs, TUDataset ingestion, and subgraph extraction.

Graphs are stored dense (float64 adjacency, float64 attribute matrix).
Datasets in the TUDataset text format are read from a directory of files:

    <name>_A.txt               1-indexed "i, j" edge pairs, each undirected
                               edge present in both directions
    <name>_graph_indicator.txt one 1-indexed graph id per node line
    <name>_graph_labels.txt    one integer per graph line
    <name>_node_labels.txt     optional, one integer per node line
    <name>_node_attributes.txt optional, finite reals per node line

These and the standalone graph files are defined by one line parser: blank
lines are skipped, and '#' comment lines too in graph files only; fields are
split at whitespace, and at commas as well in _A.txt and _node_attributes.txt;
an error names the file and the line it is on. The four integer files are
read by one array scan of their bytes when they are plain (ASCII digits,
signs, spaces, tabs, commas in _A.txt, '\n' or '\r\n' line ends, at most 18
digits a number, the right count on every line, valid edges); any other file
goes through the line parser, so values and errors are the same either way.

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
of rows so no n x n int64 matrix is formed. Its SubgraphStack keeps the padded
adjacencies, each subgraph's count of real slots, and the node each real
slot holds; the slot layout is derived from the counts.

A Graph is a plain immutable value and holds no cache. A Dataset made by its
constructor is a root: it owns PackedGraphs, its graphs packed for batching,
which builds nothing until used and then keeps what it built (node offsets,
labels, attribute sums, and what kergnn.model puts there: one SubgraphStack
over all graphs per (hops, k_max), and summed Gram maps). Dataset.subset
shares its root's view and holds an index array into it, so a subset of a
subset, a fold or a minibatch is an index array, and every one of them
reads the same caches. SubgraphStack.take gathers the stack of any index
array of graphs in one vectorised step, equal byte for byte to
SubgraphStack.concatenate of the graphs' own stacks.
"""

from __future__ import annotations

import copy
import functools
import math
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DatasetError
from .kernels import SlotLayout

__all__ = [
    "Graph",
    "Dataset",
    "PackedGraphs",
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


def _frozen_copy(a, dtype) -> np.ndarray:
    """A read-only C-ordered copy of a: a graph never aliases its caller's array."""
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected attributed graph.

    adjacency: (n, n) symmetric real matrix with zero diagonal, edge weights
        of either sign (load_tudataset and read_graph_file write 0/1).
    attributes: (n, d) real matrix, one row per node.
    The arrays are read-only copies of those given, so writing the caller's
    arrays later changes no graph. A graph holds no cache: what the model builds
    from it is kept by the Dataset it is in (PackedGraphs).

    Equality and hashing are by identity (the fields are arrays).
    """

    num_nodes: int
    adjacency: np.ndarray
    attributes: np.ndarray
    graph_label: int | None = None
    node_labels: np.ndarray | None = None

    def __post_init__(self):
        adj = _frozen_copy(self.adjacency, np.float64)
        attr = _frozen_copy(self.attributes, np.float64)
        if adj.shape != (self.num_nodes, self.num_nodes):
            raise ValueError(f"adjacency shape {adj.shape} != ({self.num_nodes}, {self.num_nodes})")
        if attr.ndim != 2 or attr.shape[0] != self.num_nodes:
            raise ValueError(f"attributes must have {self.num_nodes} rows, got shape {attr.shape}")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(adj) != 0):
            raise ValueError("adjacency must have zero diagonal")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "attributes", attr)
        if self.node_labels is not None:
            labels = _frozen_copy(self.node_labels, np.int64)
            if labels.shape != (self.num_nodes,):
                raise ValueError("node_labels must have one entry per node")
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
    """Labeled graphs of one attribute width, and the caches built over them.

    A dataset made by the constructor is a root: it checks its graphs, and
    owns `packed`, its graphs packed for batching (PackedGraphs), which
    builds nothing until first used. `subset` shares its root's `packed` and
    holds `index`, its graphs' positions in the root, so every subset of one
    root reads one set of caches. A copy put in a new Dataset, say by
    `dataclasses.replace` or `Graph.relabeled`, is a new root with its own.
    """

    name: str
    graphs: tuple
    num_classes: int
    attr_dim: int
    packed: "PackedGraphs" = field(init=False, repr=False, compare=False)
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        for g in self.graphs:
            if g.attr_dim != self.attr_dim:
                raise ValueError("all graphs must share the dataset attribute width")
            if g.graph_label is None or not (0 <= g.graph_label < self.num_classes):
                raise ValueError("graph labels must lie in [0, num_classes)")
        index = np.arange(len(self.graphs))
        index.setflags(write=False)
        object.__setattr__(self, "packed", PackedGraphs(self.graphs, self.attr_dim))
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.graphs)

    def labels(self) -> np.ndarray:
        return self.packed.labels[self.index]

    def subset(self, indices, name: str | None = None) -> "Dataset":
        """The graphs at `indices`, 1-D integers in [0, len), in that order (a
        ConfigError otherwise). It shares this dataset's root and its caches,
        and its graphs are not checked again."""
        picked = _checked_index(indices, len(self))
        index = self.index[picked]
        index.setflags(write=False)
        sub = copy.copy(self)  # no __init__: the root checked these graphs
        for key, value in (("name", name or self.name), ("index", index),
                           ("graphs", tuple(map(self.graphs.__getitem__, picked.tolist())))):
            object.__setattr__(sub, key, value)
        return sub


def _checked_index(indices, count: int) -> np.ndarray:
    """indices as an int64 array, or ConfigError unless they are 1-D integers
    in [0, count): a negative index would count from the end, bools would be
    taken as 0 and 1, and as a numpy index as a mask."""
    try:
        idx = np.asarray(indices)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"subset indices must be a 1-D list of integers: {exc}") from None
    if idx.ndim != 1:
        raise ConfigError(f"subset indices must be 1-D, got shape {idx.shape}")
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    if idx.dtype.kind not in "iu":
        raise ConfigError(f"subset indices must be integers, got dtype {idx.dtype}")
    if idx.min() < 0 or idx.max() >= count:
        raise ConfigError(f"subset indices must lie in [0, {count}), got {idx.min()}..{idx.max()}")
    return idx.astype(np.int64)


def segment_sum(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(B, d) sums of the rows offsets[b]:offsets[b+1] of x; 0 for an empty run.
    reduceat would give an empty run its neighbour's first row instead."""
    out = np.zeros((len(offsets) - 1, x.shape[1]))
    nonempty = offsets[1:] > offsets[:-1]
    if nonempty.any():
        out[nonempty] = np.add.reduceat(x, offsets[:-1][nonempty], axis=0)
    return out


class PackedGraphs:
    """A root dataset's graphs packed for batching, shared by its subsets.

    Node rows run graph by graph: graph i's nodes are rows offsets[i]:
    offsets[i+1]. A batch is an index array into the graphs. Every member is
    built on first use and then kept, since the graphs are immutable:
    offsets, labels, and attr_sums, each graph's attribute sums by
    segment_sum. kergnn.model fills the two caches by (hops, k_max): stacks,
    one SubgraphStack over all graphs, and maps, the summed Gram maps that a
    lone first layer reads, (G, steps, d^2).
    """

    def __init__(self, graphs: tuple, attr_dim: int):
        self.graphs, self.attr_dim = graphs, attr_dim
        self.stacks = {}
        self.maps = {}

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        return np.cumsum([0] + [g.num_nodes for g in self.graphs])

    @functools.cached_property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @functools.cached_property
    def labels(self) -> np.ndarray:
        return np.array([g.graph_label for g in self.graphs], dtype=np.int64)

    @functools.cached_property
    def attr_sums(self) -> np.ndarray:
        """(G, d): graph by graph, so no node-row copy of the attributes is made."""
        sums = np.zeros((len(self.graphs), self.attr_dim))
        for row, g in zip(sums, self.graphs):
            row[:] = segment_sum(g.attributes, np.array([0, g.num_nodes]))[0]
        return sums


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
    """(i, j) of an edge row whose node ids run first..last."""
    if len(fields) != 2:
        raise ValueError("expected an edge 'i j'")
    i, j = int(fields[0]), int(fields[1])
    if not (first <= i <= last and first <= j <= last) or i == j:
        raise ValueError(f"invalid edge ({i}, {j}): node ids must differ and lie in {first}..{last}")
    return i, j


def _expect(path: str, values: list, count: int, what: str) -> None:
    if len(values) != count:
        raise DatasetError(f"{path}: expected {count} {what}, found {len(values)}")


# Most digits of a number the array scan reads: 10**18 - 1 fits in an int64.
_SCAN_DIGITS = 18


def _scan_integers(path: str, width: int, commas: bool) -> tuple | None:
    """What _read_integers gives for a plain file, by one array scan of its
    bytes, or None when the file is not plain.

    A plain file holds only ASCII digits, '+', '-', spaces, tabs, commas when
    `commas`, and '\n' or '\r\n' line ends; each of its tokens (a run of
    digits and signs) is one sign at most, first, then 1.._SCAN_DIGITS
    digits; each line holding a token or a comma holds `width` tokens.
    """
    try:
        with open(path, "rb") as fh:
            buf = np.frombuffer(fh.read(), dtype=np.uint8)
    except OSError:
        return None
    sign = (buf == ord("+")) | (buf == ord("-"))
    newline = buf == ord("\n")
    token = (buf - np.uint8(ord("0")) < 10) | sign  # bytes below '0' wrap around
    plain = token | newline | (buf == ord(" ")) | (buf == ord("\t")) | (buf == ord("\r"))
    if commas:
        plain |= buf == ord(",")
    if not plain.all():
        return None
    del plain
    # str.splitlines also breaks at a lone '\r'
    returns = np.flatnonzero(buf == ord("\r")) + 1
    if returns.size and (returns[-1] == buf.size or not newline[returns].all()):
        return None

    # the bytes where a token starts or ends alternate: starts, then ends
    bounds = np.flatnonzero(np.diff(token, prepend=False, append=False))
    del token
    starts, ends = bounds[::2], bounds[1::2]
    signed = sign[starts]
    if np.count_nonzero(signed) != np.count_nonzero(sign):
        return None  # a sign after the first byte of a token
    first = starts + signed
    digits = ends - first
    if digits.size and (digits.min() < 1 or digits.max() > _SCAN_DIGITS):
        return None

    breaks = np.flatnonzero(newline)

    def per_line(at):  # how many of the sorted byte positions `at` each line holds
        return np.diff(np.searchsorted(at, breaks), prepend=0, append=at.size)

    counts = per_line(starts)
    data = counts != 0
    if commas:  # a line of commas alone is a data line with no fields
        data |= per_line(np.flatnonzero(buf == ord(","))) != 0
    if np.any(counts[data] != width):
        return None

    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(int(digits.max(initial=0))):  # the digit k places left of a token's end
        digit = np.where(digits > k, buf[ends - 1 - k] - np.uint8(ord("0")), np.uint8(0))
        values += digit.astype(np.int64) * 10**k
    values = np.where(buf[starts] == ord("-"), -values, values)
    return values.reshape(-1, width), np.flatnonzero(data) + 1


def _read_integers(path: str, width: int, parse, *, commas: bool = False, valid=None) -> tuple:
    """_parse_lines(path, parse, commas=commas) of a file of `width` integers
    a line, as arrays: values (lines, width) and line numbers (lines,).

    A plain file (_scan_integers) whose values pass `valid` is read by one
    array scan; any other goes through _parse_lines, which gives the values
    or the DatasetError of the first bad line. Values past int64 come back in
    an object array.
    """
    scanned = _scan_integers(path, width, commas)
    if scanned is not None and (valid is None or valid(scanned[0])):
        return scanned
    values, numbers = _parse_lines(path, parse, commas=commas)
    try:
        values = np.array(values, dtype=np.int64)
    except OverflowError:
        values = np.array(values, dtype=object)
    return values.reshape(-1, width), np.array(numbers, dtype=np.int64)


def _integers(path: str) -> np.ndarray:
    """The integer on each data line of path (_read_integers)."""
    return _read_integers(path, 1, _integer)[0][:, 0]


def _codes(raw: np.ndarray) -> tuple:
    """Codes 0..k-1 of integer labels by ascending value, and k."""
    values, codes = np.unique(raw, return_inverse=True)
    return codes, len(values)


def load_tudataset(directory: str, name: str) -> Dataset:
    """Load a dataset in the TUDataset directory format.

    Graph labels are remapped to contiguous [0, num_classes); node labels,
    when present, are remapped the same way before one-hot encoding.
    """
    prefix = os.path.join(directory, name)
    edges_path = prefix + "_A.txt"
    indicator_path = prefix + "_graph_indicator.txt"
    labels_path = prefix + "_graph_labels.txt"

    indicator = _integers(indicator_path)
    num_nodes = len(indicator)
    graph_ids = np.unique(indicator)
    num_graphs = len(graph_ids)
    # distinct integers cover 1..n exactly when the smallest is 1 and the largest n
    if num_graphs and (graph_ids[0] != 1 or graph_ids[-1] != num_graphs):
        raise DatasetError(f"{indicator_path}: graph ids must cover 1..{graph_ids[-1]}")
    graph_of = indicator.astype(np.int64) - 1

    raw_graph_labels = _integers(labels_path)
    _expect(labels_path, raw_graph_labels, num_graphs, "labels")
    graph_labels, num_classes = _codes(raw_graph_labels)

    def valid(edges):  # the checks of _edge, on every row at once
        return bool(np.all((edges >= 1) & (edges <= num_nodes)) and np.all(edges[:, 0] != edges[:, 1]))

    edges, edge_lines = _read_integers(edges_path, 2, lambda f: _edge(f, 1, num_nodes),
                                       commas=True, valid=valid)
    src, dst = (edges - 1).T
    crossing = np.flatnonzero(graph_of[src] != graph_of[dst])
    if crossing.size:
        raise DatasetError(f"{edges_path}:{edge_lines[crossing[0]]}: edge crosses graph boundaries")

    node_labels_path = prefix + "_node_labels.txt"
    node_labels, blocks = None, []
    if os.path.isfile(node_labels_path):
        raw_node_labels = _integers(node_labels_path)
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
    """Padded subgraphs of k_max slots, one per node, of one graph or many in
    order: graph i's subgraphs are rows offsets[i]:offsets[i+1].

    Subgraph v's real slots are its first sizes[v], the only record of the
    padding; `layout` (kernels.SlotLayout) and `real_offsets`, where graph i's
    real slots run, are derived from it once. nodes holds the graph node of
    each real slot in layout order. `gather` turns a per-node feature matrix
    into the padded attribute tensor, `scatter` is its adjoint; both touch the
    real slots only.
    """

    nodes: np.ndarray  # (R,) int64
    adjacency: np.ndarray  # (N, k_max, k_max), 0 outside the real slots
    sizes: np.ndarray  # (N,) int64
    offsets: np.ndarray  # (G+1,) int64

    @functools.cached_property
    def layout(self) -> SlotLayout:
        return SlotLayout.from_sizes(self.sizes, self.adjacency.shape[1])

    @functools.cached_property
    def real_offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.sizes)))[self.offsets]

    def gather(self, feats: np.ndarray) -> np.ndarray:
        """(N, k_max, d) padded attribute tensor of per-node feats."""
        n, k = self.adjacency.shape[:2]
        out = np.zeros((n * k, feats.shape[1]))
        out[self.layout.real] = feats[self.nodes]
        return out.reshape(n, k, feats.shape[1])

    def scatter(self, grad: np.ndarray) -> np.ndarray:
        """(N, d) per-node sums of an (N, k_max, d) tensor over the real slots
        that hold each node: the adjoint of gather. One bincount over the flat
        entries node * d + column adds in slot order, as np.add.at would, so
        the sums are the same bit for bit."""
        n, d = self.adjacency.shape[0], grad.shape[2]
        flat = (self.nodes[:, None] * d + np.arange(d)).ravel()
        real = grad.reshape(-1, d)[self.layout.real]
        return np.bincount(flat, weights=real.ravel(), minlength=n * d).reshape(n, d)

    @classmethod
    def concatenate(cls, stacks, k_max: int, rows: int | None = None) -> "SubgraphStack":
        """One stack over the disjoint union of the stacks' graphs, in order.
        A stack holds one subgraph per node, so nodes and offsets are shifted
        by the subgraphs before it. No stacks give an empty stack of k_max
        slots. Given rows, the count of all their subgraphs, the stacks may be
        any iterable: each adjacency is copied into one array of that many
        rows as it comes, so a generator's stacks are never held all at once."""
        if rows is None:
            stacks = list(stacks)
            rows = sum(len(s.adjacency) for s in stacks)
        adjacency = np.zeros((rows, k_max, k_max))
        empty = np.zeros(0, dtype=np.int64)
        nodes, sizes, offsets = [empty], [empty], [np.zeros(1, dtype=np.int64)]
        row = 0
        for s in stacks:
            n = len(s.adjacency)
            adjacency[row:row + n] = s.adjacency
            nodes.append(s.nodes + row)
            sizes.append(s.sizes)
            offsets.append(s.offsets[1:] + row)
            row += n
        return cls(nodes=np.concatenate(nodes), adjacency=adjacency, sizes=np.concatenate(sizes),
                   offsets=np.concatenate(offsets))

    def take(self, idx: np.ndarray) -> "SubgraphStack":
        """The stack of the graphs at idx, equal byte for byte to concatenate
        of their own stacks: one gather of each graph's run of rows and of
        real slots, its nodes shifted to the batch's own rows."""
        lo, count = self.offsets[idx], np.diff(self.offsets)[idx]
        real_lo, real_count = self.real_offsets[idx], np.diff(self.real_offsets)[idx]
        offsets = np.concatenate(([0], np.cumsum(count)))
        row_shift = lo - offsets[:-1]  # per graph, stack row minus batch row
        rows = np.arange(offsets[-1]) + np.repeat(row_shift, count)
        reals = np.arange(real_count.sum()) + np.repeat(real_lo - (np.cumsum(real_count) - real_count),
                                                        real_count)
        return SubgraphStack(nodes=self.nodes[reals] - np.repeat(row_shift, real_count),
                             adjacency=self.adjacency[rows], sizes=self.sizes[rows], offsets=offsets)


# Rows of the hop-limited reachability built at a time: the (chunk, n) key
# and frontier blocks of a DD-sized graph (~5.7k nodes) stay ~12 MB each.
_ROW_CHUNK = 256
# sort key of a node not within `hops`: after every reached node
_UNREACHED = np.iinfo(np.int64).max


def stack_subgraphs(g: Graph, hops: int, k_max: int) -> SubgraphStack:
    """Every node's padded subgraph, equal per node to extract_subgraph.

    With sub = extract_subgraph(g, v, hops, k_max), subgraph v's real slots
    are its first sub.size, its run of nodes is sub.node_ids, and adjacency[v]
    is sub.adjacency, byte for byte. Rows are built in blocks of _ROW_CHUNK:
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
    nodes, sizes = [np.zeros(0, dtype=np.int64)], np.zeros(n, dtype=np.int64)
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
        nodes.append(order[real])  # row-major: subgraph by subgraph, slot ascending
        sizes[block] = real.sum(axis=1)
        # a copy into the zeroed output, so padding stays +0.0 whatever the weights
        pairs = order[:, :, None] * n + order[:, None, :]
        both = real[:, :, None] & real[:, None, :]
        np.copyto(adj[block, :k, :k], a.ravel().take(pairs), where=both)
    return SubgraphStack(nodes=np.concatenate(nodes), adjacency=adj, sizes=sizes, offsets=np.array([0, n]))


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
