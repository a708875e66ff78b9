"""Span tracer that wraps symcone's module functions from outside.

Inside the ``with Tracer():`` block every public function of the traced
modules is replaced, in every symcone namespace that binds it, by a wrapper
that records a span (id, parent id, name, start, end) in memory.  Modules bind
functions by name (``harness`` imports ``eigvals_batch`` from ``algebra``), so
replacing the attribute of the defining module alone would leave calls
uncounted.  ``geometry`` and ``rng`` are not wrapped: their time is part of
their callers' self time.  The program itself is not modified.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("algebra", "eigh", "wishart", "harness", "dcor", "funceq", "cli")
# methods traced as spans, and methods only counted (one call per evaluation
# of a field would otherwise dominate the trace of the funceq sweeps)
SPAN_METHODS = {"wishart": {"SampleBatch": ("to_json_dict", "write_csv")}}
COUNT_METHODS = {"funceq": {"ScalarField": ("__call__",)}}

SELF_TIME_GROUPS = {
    "eigh.self_s": (
        "eigh.jacobi_eigh_batch", "eigh.jacobi_eigvals_batch", "eigh.jacobi_eigh",
        "eigh.jacobi_eigvals",
    ),
    "algebra.batch.self_s": (
        "algebra.eigvals_batch", "algebra.spectral_map_batch", "algebra.coords_to_mats",
        "algebra.mats_to_coords",
    ),
    "algebra.scalar.self_s": (
        "algebra.eigenvalues", "algebra.quadratic_action", "algebra.inv_sqrt_in_cone",
        "algebra.inner", "algebra.trace",
    ),
    "wishart.sample.self_s": ("wishart.sample",),
    "wishart.serialize.self_s": (
        "wishart.SampleBatch.to_json_dict", "wishart.SampleBatch.write_csv",
    ),
    "harness.split_batch.self_s": ("harness.split_batch",),
    "harness.experiment.self_s": (
        "harness.forward_experiment", "harness.negative_experiment",
        "harness.relative_scale_gap",
    ),
    "dcor.permutation_test.self_s": ("dcor.permutation_test",),
    "dcor.distances.self_s": ("dcor.pairwise_distances", "dcor.double_center"),
    "funceq.sweep.self_s": (
        "funceq.olkin_baker_residual", "funceq.log_quadratic_residual",
        "funceq.cocycle_residual", "funceq.homogeneity_defect",
    ),
    "funceq.points.self_s": (
        "funceq.sample_cone_points", "funceq.sample_cone_pairs", "funceq.sample_cone_triples",
    ),
    "cli.run.self_s": ("cli.run", "cli.parse"),
}
COUNTERS = (
    "eigh.calls", "eigh.matrices", "eigh.vector_matrices", "algebra.eigenvalues.calls",
    "wishart.sample.draws", "harness.resampled", "dcor.permutations", "funceq.field_evals",
)


def _count_eigh(counts, fn):
    def count(args, kwargs, result):
        w, v = result
        n_mats, order = w.shape
        counts["eigh.calls"] += 1
        counts["eigh.matrices"] += n_mats
        counts["eigh.rows"] += n_mats * order
        if v is not None:
            counts["eigh.vector_matrices"] += n_mats

    return count


def _count_permutations(counts, fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        b = bound.arguments["n_permutations"]
        m = len(bound.arguments["x"])
        counts["dcor.permutations"] += b
        # computed, not measured: gather read, gather write and product read
        # of one m x m float64 matrix per permutation
        counts["dcor.gather_bytes"] += b * m * m * 8 * 3

    return count


def _counter(key, amount):
    def factory(counts, fn):
        def count(args, kwargs, result):
            counts[key] += amount(result)

        return count

    return factory


COUNT_HOOKS = {
    "eigh.jacobi_eigh_batch": _count_eigh,
    "dcor.permutation_test": _count_permutations,
    "algebra.eigenvalues": _counter("algebra.eigenvalues.calls", lambda r: 1),
    "wishart.sample": _counter("wishart.sample.draws", len),
    "harness.forward_experiment": _counter("harness.resampled", lambda r: r.resampled),
    "harness.negative_experiment": _counter("harness.resampled", lambda r: r.resampled),
    "funceq.ScalarField.__call__": _counter("funceq.field_evals", lambda r: 1),
}


class Tracer:
    """Context manager that records spans and counts of symcone calls."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _span(self, name, fn):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        hook = COUNT_HOOKS.get(name)
        count = hook(self.counts, fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if count:
                count(args, kwargs, result)
            return result

        return wrapper

    def _count_only(self, name, fn):
        count = COUNT_HOOKS[name](self.counts, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "symcone"]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"symcone.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self._span(f"{layer}.{attr}", obj))
            for methods, make in ((SPAN_METHODS, self._span), (COUNT_METHODS, self._count_only)):
                for cls_name, names in methods.get(layer, {}).items():
                    cls = getattr(module, cls_name)
                    for attr in names:
                        self._patch(cls, attr, make(f"{layer}.{cls_name}.{attr}", vars(cls)[attr]))
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patch(namespace, attr, wrapped[id(obj)][1])
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            totals[name] += (end - start) - child[sid]
        return dict(totals)

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of per-name self times and counts."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")
            fh.write(json.dumps({"self_s": self.self_times(), "counts": self.counts}) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round of the workload."""
        totals = self.self_times()
        out = {
            key: sum(totals.get(name, 0.0) for name in names) / rounds
            for key, names in SELF_TIME_GROUPS.items()
        }
        for key in COUNTERS:
            out[key] = self.counts[key] / rounds
        matrices = self.counts["eigh.matrices"]
        out["eigh.mean_order"] = self.counts["eigh.rows"] / matrices if matrices else 0.0
        out["dcor.gather_mb"] = self.counts["dcor.gather_bytes"] / 1e6 / rounds
        return out
