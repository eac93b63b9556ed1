"""A fixed reference computation that measures how fast the machine is now.

On a shared machine the same code can run up to ~1.9x slower for seconds to
tens of seconds at a time, which put a 25-45% spread on raw medians from run
to run. So every timed sample is paired with this computation: a pass before
and after it, and one short probe every PROBE_INTERVAL_S during it from an
interval timer. The benchmark reports

    sample seconds (less the probes) x REFERENCE_S / seconds per repetition

where seconds per repetition is the trimmed mean over the sample's passes and
probes: seconds at the speed at which one repetition takes REFERENCE_S.
The pass imitates the program's mix (a per-node Python BFS with small NumPy
calls, padded gathers, batched small matmuls, an einsum reduction) so that
both slow down alike; on 20 back-to-back CV runs the sample-to-sample
coefficient of variation fell from 0.19 raw to 0.05. It is frozen benchmark
code that never calls the package, so a change to the package moves the
samples and not the calibration.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_S = 0.002  # reference seconds for one repetition of the pass
PROBE_INTERVAL_S = 0.05
_GRAPHS, _NODES, _WIDTH, _K = 6, 18, 7, 10
_FILTERS, _FILTER_NODES = 16, 6


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20240101)
        self.graphs = []
        for _ in range(_GRAPHS):
            adj = np.triu((rng.random((_NODES, _NODES)) < 0.13).astype(float), 1)
            self.graphs.append((adj + adj.T, rng.random((_NODES, _WIDTH))))
        self.filters = rng.random((_FILTERS * _FILTER_NODES, _WIDTH))
        self.filter_adj = rng.random((_FILTERS, _FILTER_NODES, _FILTER_NODES))
        self.probes = []  # (seconds per repetition) measured by the interval timer
        self.probe_s = 0.0  # wall time the probes took

    def _once(self) -> float:
        total = 0.0
        walked = (self.filter_adj @ self.filters.reshape(_FILTERS, _FILTER_NODES, _WIDTH))
        walked = walked.reshape(-1, _WIDTH)
        for adj, x in self.graphs:
            idx = np.zeros((_NODES, _K), dtype=np.int64)
            mask = np.zeros((_NODES, _K))
            sub = np.zeros((_NODES, _K, _K))
            for v in range(_NODES):
                hop = {v: 0}
                for w in np.flatnonzero(adj[v]):
                    hop.setdefault(int(w), 1)
                order = sorted(hop, key=lambda u: (hop[u], u))[:_K]
                idx[v, : len(order)] = order
                mask[v, : len(order)] = 1.0
                sub[v, : len(order), : len(order)] = adj[np.ix_(order, order)]
            xs = x[idx] * mask[:, :, None]
            s = self.filters @ xs.reshape(-1, _WIDTH).T
            m = walked @ (sub @ xs).reshape(-1, _WIDTH).T
            total += float(np.einsum("ij,ij->j", s, m).sum())
        return total

    def measure(self, repetitions: int = 8) -> float:
        """Seconds per repetition of the pass."""
        start = time.perf_counter()
        for _ in range(repetitions):
            self._once()
        return (time.perf_counter() - start) / repetitions

    def _probe(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(self.measure(1))
        self.probe_s += time.perf_counter() - start

    def timed(self, fn):
        """(wall seconds less probe time, probe measurements, result) of fn().

        An interval timer runs one repetition of the pass every
        PROBE_INTERVAL_S while fn runs, so a long sample gets the machine's
        speed throughout, not only at its ends.
        """
        self.probes, self.probe_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            start = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return wall - self.probe_s, list(self.probes), result
