"""Spans around the package's public functions, recorded from outside it.

Each traced symbol is replaced, in the module that looks it up at call time,
by a wrapper that records a span: label, phase, start, end, self time and the
span that caused it. Spans stay in memory until `write`. A symbol that no
longer exists is listed in `absent` instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict

# (module:attribute path, label). A function is wrapped where its caller
# looks it up, e.g. training.py calls forward_graph through its own globals.
TRACED = (
    ("kergnn.graphs:load_tudataset", "graphs.load_tudataset"),
    ("kergnn.training:stack_subgraphs", "graphs.stack_subgraphs"),
    ("kergnn.model:stack_subgraphs", "graphs.stack_subgraphs"),
    ("kergnn.model:stacked_kernel_forward", "kernels.forward"),
    ("kergnn.model:stacked_kernel_backward", "kernels.backward"),
    ("kergnn.training:forward_graph", "model.forward_graph"),
    ("kergnn.training:backward_graph", "model.backward_graph"),
    ("kergnn.training:save_checkpoint", "model.save_checkpoint"),
    ("kergnn.model:load_checkpoint", "model.load_checkpoint"),
    ("kergnn.training:cross_validate", "training.cross_validate"),
    ("kergnn.training:train_fold", "training.train_fold"),
    ("kergnn.training:Adam.step", "training.adam_step"),
    ("kergnn.training:evaluate", "training.evaluate"),
)


def _kernel_forward_work(args, kwargs) -> dict:
    """Computed (not measured) work of one Hadamard-form forward call.

    attr_h (f, n, d), pows_h [A_H^1..A_H^P], x_sub (N, k, d), weights set for
    the deep variant. Matmuls: S and P walk terms of (fn x d)(d x Nk), the
    U_p/V_p powers, lambda-weighted sums and the final reduction. Memory: the
    (f, n, N, k) float64 tensors kept for backward (S, the walk sum, and
    W*S for the deep variant).
    """
    attr_h, pows_h, x_sub = args[0], args[1], args[2]
    weights = args[5] if len(args) > 5 else kwargs.get("weights")
    f, n, d = attr_h.shape
    big_n, k, _ = x_sub.shape
    p = len(pows_h)
    deep = weights is not None
    fnnk = f * n * big_n * k
    flop = (2 * fnnk * d * (p + 1) + p * (2 * f * n * n * d + 2 * big_n * k * k * d)
            + 2 * fnnk * (p + 1) + fnnk * (1 + deep))
    real = int((x_sub != 0).any(axis=2).sum())
    return {"gflop": flop / 1e9, "intermediate_gb": 8 * fnnk * (2 + deep) / 1e9,
            "real_slots": real, "slots": big_n * k}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or -1, label, phase, start, end, self seconds)
        self.absent = []
        self.phase = "idle"
        self.counters = defaultdict(float)  # (phase, name) -> total
        self.stack_keys = []  # one set of (graph, layer config) keys per traced CV run
        self._open = []  # [span id, child seconds] of spans not yet closed
        self._next_id = 0
        self._patched = []

    def install(self):
        for path, label in TRACED:
            module_name, attr_path = path.split(":")
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(path)
                continue
            setattr(owner, attr, self._wrap(original, label))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def new_cv_run(self):
        self.stack_keys.append(set())

    def _wrap(self, original, label):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            frame = [span_id, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append((span_id, parent[0] if parent else -1, label, self.phase,
                                   start, end, end - start - frame[1]))
            observed = time.perf_counter()
            self._observe(label, args, kwargs)
            if parent is not None:  # bookkeeping is not the caller's self time
                parent[1] += time.perf_counter() - observed
            return result

        return traced

    def _observe(self, label, args, kwargs):
        phase = self.phase
        if label == "kernels.forward":
            for name, value in _kernel_forward_work(args, kwargs).items():
                self.counters[(phase, f"kernels.forward.{name}")] += value
        elif label == "training.evaluate":
            self.counters[(phase, "training.evaluate.graphs")] += len(args[1])
        elif label == "graphs.stack_subgraphs" and phase == "cv" and self.stack_keys:
            key = (id(args[0]),) + tuple(args[1:]) + tuple(sorted(kwargs.items()))
            self.stack_keys[-1].add(key)

    def totals(self, phase: str) -> dict:
        """label -> {"busy": s, "self": s, "calls": n} over one phase."""
        out = defaultdict(lambda: {"busy": 0.0, "self": 0.0, "calls": 0})
        for _, _, label, span_phase, start, end, self_s in self.spans:
            if span_phase == phase:
                entry = out[label]
                entry["busy"] += end - start
                entry["self"] += self_s
                entry["calls"] += 1
        return out

    def durations(self, phase: str, label: str) -> list:
        return [end - start for _, _, lab, ph, start, end, _ in self.spans
                if ph == phase and lab == label]

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "label", "phase", "start", "end", "self_s"],
                       "absent": self.absent, "spans": self.spans}, fh)
