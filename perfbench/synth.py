"""Seeded generators for TUDataset-shaped benchmark inputs.

The real MUTAG and IMDB-BINARY files are not part of the repository, so the
benchmark writes synthetic datasets of the same shape with `save_tudataset`
and hands the program only those files. Each generator plants a class signal
that a sum readout can see, so "CV accuracy above the majority rate" is a
meaningful output check.
"""

from __future__ import annotations

import numpy as np

from kergnn.graphs import Dataset, Graph

# MUTAG: 188 graphs, 125 mutagenic / 63 not, ~18 nodes, 7 atom labels.
MUTAG_GRAPHS, MUTAG_POSITIVE = 188, 125
CARBON, NITROGEN, OXYGEN = 0, 1, 2
HALOGENS = (3, 4, 5, 6)
# IMDB-BINARY: 1000 ego-networks, 500 per genre, ~20 nodes.
IMDB_GRAPHS = 1000


class _Molecule:
    def __init__(self):
        self.labels: list[int] = []
        self.edges: list[tuple[int, int]] = []
        self.degree: list[int] = []

    def add(self, label: int, attach: int | None = None) -> int:
        v = len(self.labels)
        self.labels.append(label)
        self.degree.append(0)
        if attach is not None:
            self.connect(attach, v)
        return v

    def connect(self, a: int, b: int):
        self.edges.append((a, b))
        self.degree[a] += 1
        self.degree[b] += 1

    def free_carbons(self) -> list[int]:
        return [v for v, lab in enumerate(self.labels) if lab == CARBON and self.degree[v] < 3]


def _quota(rng: np.random.Generator, total: int, values, weights) -> list:
    """`total` draws with the exact weighted composition, in random order.

    Fixed composition keeps the dataset's total size, and so the work per
    epoch, nearly the same from seed to seed.
    """
    counts = np.floor(np.asarray(weights) * total).astype(int)
    order = np.argsort(-(np.asarray(weights) * total - counts), kind="stable")
    counts[order[: total - counts.sum()]] += 1
    out = np.repeat(np.asarray(values), counts)
    rng.shuffle(out)
    return out.tolist()


def _molecule(rng: np.random.Generator, rings: int, nitro: int, extra: int) -> _Molecule:
    """`rings` fused six-rings, `nitro` NO2 groups and `extra` substituents."""
    mol = _Molecule()
    ring = [mol.add(CARBON) for _ in range(6)]
    for a, b in zip(ring, ring[1:] + ring[:1]):
        mol.connect(a, b)
    ring_edges = list(zip(ring, ring[1:] + ring[:1]))
    for _ in range(rings - 1):
        fusable = [(a, b) for a, b in ring_edges if mol.degree[a] == 2 and mol.degree[b] == 2]
        if not fusable:
            break
        a, b = fusable[rng.integers(len(fusable))]
        path = [a] + [mol.add(CARBON) for _ in range(4)] + [b]
        for u, w in zip(path, path[1:]):
            mol.connect(u, w)
        ring_edges.extend(zip(path, path[1:]))

    for _ in range(nitro):
        free = mol.free_carbons()
        if not free:
            break
        n = mol.add(NITROGEN, free[rng.integers(len(free))])
        mol.add(OXYGEN, n)
        mol.add(OXYGEN, n)
    for _ in range(extra):
        free = mol.free_carbons()
        if not free:
            break
        r = rng.random()
        if r < 0.4:
            label = CARBON
        elif r < 0.55:
            label = OXYGEN
        elif r < 0.65:
            label = NITROGEN
        else:
            label = HALOGENS[rng.integers(len(HALOGENS))]
        mol.add(label, free[rng.integers(len(free))])
    return mol


def _shuffled_labels(rng, total: int, positive: int) -> np.ndarray:
    labels = np.zeros(total, dtype=np.int64)
    labels[:positive] = 1
    rng.shuffle(labels)
    return labels


def mutag_like(seed: int, name: str = "MUTAG") -> Dataset:
    """MUTAG-shaped dataset: sparse molecule-like graphs, 7 one-hot atom labels.

    Mutagenic graphs (label 1) carry one to three nitro groups and only a
    few non-mutagenic ones carry one, so N and O counts separate the classes.
    """
    rng = np.random.default_rng([seed, 0x4D55])
    plans = {}
    for y, total in ((1, MUTAG_POSITIVE), (0, MUTAG_GRAPHS - MUTAG_POSITIVE)):
        rings = _quota(rng, total, [1, 2, 3, 4], [0.1, 0.3, 0.4, 0.2])
        nitro = (_quota(rng, total, [1, 2, 3], [0.5, 0.35, 0.15]) if y
                 else _quota(rng, total, [0, 1], [0.85, 0.15]))
        extra = (_quota(rng, total, [1, 2, 3], [1 / 3] * 3) if y
                 else _quota(rng, total, [1, 2, 3, 4], [0.25] * 4))
        plans[y] = list(zip(rings, nitro, extra))
    graphs = []
    for y in _shuffled_labels(rng, MUTAG_GRAPHS, MUTAG_POSITIVE):
        mol = _molecule(rng, *plans[int(y)].pop())
        n = len(mol.labels)
        perm = rng.permutation(n)
        adj = np.zeros((n, n))
        for a, b in mol.edges:
            adj[perm[a], perm[b]] = adj[perm[b], perm[a]] = 1.0
        node_labels = np.empty(n, dtype=np.int64)
        node_labels[perm] = mol.labels
        onehot = np.zeros((n, 1 + max(HALOGENS)))
        onehot[np.arange(n), node_labels] = 1.0
        graphs.append(Graph(n, adj, onehot, graph_label=int(y), node_labels=node_labels))
    return Dataset(name, graphs, 2, 1 + max(HALOGENS))


def imdb_like(seed: int, name: str = "IMDB-BINARY") -> Dataset:
    """IMDB-BINARY-shaped dataset: dense ego-networks made of cast cliques.

    Genre 0 graphs are unions of several small casts, genre 1 of few large
    ones, so edge counts (the sum of the degree feature) differ by class.
    """
    rng = np.random.default_rng([seed, 0x494D])
    graphs = []
    for y in _shuffled_labels(rng, IMDB_GRAPHS, IMDB_GRAPHS // 2):
        n = int(12 + rng.poisson(8))
        adj = np.zeros((n, n))
        uncovered = set(range(1, n))
        movies = 0
        frac = (0.15, 0.30) if y == 0 else (0.30, 0.45)
        while uncovered or movies < 3:
            size = max(2, int(round(rng.uniform(*frac) * (n - 1))))
            cast = rng.choice(np.arange(1, n), size=size, replace=False)
            if uncovered:
                cast[0] = min(uncovered)
            members = np.concatenate([[0], cast])
            adj[np.ix_(members, members)] = 1.0
            uncovered.difference_update(int(c) for c in cast)
            movies += 1
        np.fill_diagonal(adj, 0.0)
        perm = rng.permutation(n)
        adj = adj[np.ix_(perm, perm)]
        graphs.append(Graph(n, adj, adj.sum(axis=1, keepdims=True), graph_label=int(y)))
    return Dataset(name, graphs, 2, 1)


def shape(ds, hops: int, k_max: int) -> dict:
    """Realised shape: size, density and how full the padded subgraphs are.

    A node's subgraph holds min(reachable within `hops`, k_max) real slots of
    k_max; it is truncated when more than k_max nodes are reachable.
    """
    nodes = edges = real = slots = truncated = 0
    for g in ds.graphs:
        a = np.asarray(g.adjacency) != 0
        reach = np.eye(g.num_nodes, dtype=bool) | a
        for _ in range(hops - 1):
            reach = reach | ((reach.astype(np.int64) @ a.astype(np.int64)) > 0)
        counts = reach.sum(axis=1)
        nodes += g.num_nodes
        edges += int(a.sum()) // 2
        real += int(np.minimum(counts, k_max).sum())
        slots += g.num_nodes * k_max
        truncated += int((counts > k_max).sum())
    return {
        "graphs": len(ds),
        "mean_nodes": nodes / len(ds),
        "mean_degree": 2.0 * edges / nodes,
        "pad_fill": real / slots,
        "truncated_frac": truncated / nodes,
    }
