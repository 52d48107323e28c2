"""Span tracer that times calls into the public functions of collabnet.

`Tracer.install` rebinds module attributes to timing wrappers. Code inside
the package looks those names up at call time (module globals, or attribute
access on an imported module), so nested calls go through the wrappers too
and record parent-linked spans: compute_stats -> betweenness_centralization
-> betweenness_centrality. Spans stay in memory until the run writes them
out. Counters are updated by hooks that read a wrapped call's arguments and
return value; they run after the span has closed.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
import time
from collections import Counter

# Module short name -> layer. `countries` is part of the corpus layer.
LAYERS = {"syngen": "syngen", "corpus": "corpus", "countries": "corpus",
          "netbuild": "netbuild", "metrics": "metrics", "impact": "impact",
          "lmm": "lmm", "longit": "longit", "cli": "cli"}
LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values()))

# Counts derived from input sizes rather than from what the code did.
# corpus.filter_scanned is the corpus size on every filter_records call, so
# it and corpus.filter_yield are fixed by the input: they cannot show a
# filter that stops scanning the whole corpus.
COMPUTED = {"corpus.filter_scanned", "corpus.filter_yield",
            "netbuild.pair_increments", "metrics.bfs_edge_visits"}

# Helpers called once per record, country or observation: a wrapper would
# cost more than the call, so their time stays in the caller's span.
PER_ITEM = {"corpus.parse_record", "countries.normalize_country",
            "countries.is_known_country", "impact.cell_key", "impact.fwci",
            "impact.make_observation", "metrics.stats_row"}

# Public methods worth a span (plain functions are found automatically).
METHODS = {"corpus": {"Corpus": ("load", "save"),
                      "SpecialtyMap": ("from_csv", "bundled")}}

# Per-layer duration metric -> wrapped functions whose self time it sums.
DURATIONS = {
    "syngen.generate_s": ("syngen.generate",),
    "syngen.serialize_s": ("syngen.records_jsonl", "syngen.write_records"),
    "corpus.ingest_s": ("corpus.ingest",),
    "corpus.filter_s": ("corpus.filter_records",),
    "corpus.load_s": ("corpus.Corpus.load",),
    "netbuild.build_s": ("netbuild.build_network",),
    "netbuild.cosine_s": ("netbuild.cosine_weights",),
    "netbuild.export_s": ("netbuild.export_edgelist", "netbuild.export",
                          "netbuild.export_graphml", "netbuild.export_dot"),
    "netbuild.read_s": ("netbuild.read_edgelist", "netbuild.read_graphml"),
    "metrics.compute_stats_s": ("metrics.compute_stats",),
    "metrics.degree_s": ("metrics.degree_stats",),
    "metrics.diameter_s": ("metrics.diameter", "metrics.connected_components"),
    "metrics.betweenness_s": ("metrics.betweenness_centralization",
                              "metrics.betweenness_centrality"),
    "metrics.clustering_s": ("metrics.clustering", "metrics.triangle_counts"),
    "metrics.powerlaw_s": ("metrics.powerlaw_fit",),
    "impact.baselines_s": ("impact.compute_baselines",),
    "impact.fwci_s": ("impact.attach_fwci",),
    "impact.observations_s": ("impact.build_observations",),
    "lmm.fit_s": ("lmm.fit", "lmm.fit_random_intercept"),
    "lmm.report_s": ("lmm.report", "lmm.report_csv", "lmm.format_cell",
                     "lmm.p_value", "lmm.stars"),
    "longit.trends_s": ("longit.series_from_stats", "longit.trends_csv",
                        "longit.format_change_table", "longit.convergence",
                        "longit.growth", "longit.change_cells",
                        "longit.round_half_up"),
}


def _count_lines(source) -> int:
    with open(source, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _n_edges(net) -> int:
    edges = getattr(net, "edges", None)
    if edges is not None:
        return len(edges)
    return sum(len(nbrs) for nbrs in net.values()) // 2


# Count hooks: hook(counts, args, result, exc). Counts marked "computed" in
# the metric list come from input sizes, the rest from return values.
def _ingest(c, args, result, exc):
    if exc is None:
        c["corpus.records_in"] += _count_lines(args[0])
        c["corpus.accepted"] += len(result)
        c["corpus.rejected"] += len(result.rejections)


def _filter(c, args, result, exc):
    if exc is None:
        c["corpus.filter_scanned"] += len(args[0])
        c["corpus.filter_returned"] += len(result)


def _build(c, args, result, exc):
    if exc is None:
        c["netbuild.pair_increments"] += sum(
            math.comb(len(r.countries), 2) for r in args[0])
        c["netbuild.nodes"] += result.n_nodes
        c["netbuild.edges"] += result.n_edges


def _compute_stats(c, args, result, exc):
    if exc is None:
        c["metrics.snapshots"] += 1
        c["metrics.bfs_edge_visits"] += 2 * result.n_edges * result.n_nodes


def _diameter(c, args, result, exc):
    if exc is None:
        c["metrics.bfs_edge_visits"] += 2 * _n_edges(args[0]) * result.component_size


def _lmm_fit(c, args, result, exc):
    if isinstance(exc, ValueError):
        c["lmm.fits_skipped"] += 1
    elif exc is None:
        c["lmm.fits"] += 1
        c["lmm.boundary_fits"] += result.psi == 0.0
        c["lmm.n_obs"] += result.n
        c["lmm.n_groups"] += result.n_groups


HOOKS = {
    "syngen.generate": lambda c, a, r, e: c.update(
        {"syngen.papers": len(r[0])} if e is None else {}),
    "corpus.ingest": _ingest,
    "corpus.filter_records": _filter,
    "netbuild.build_network": _build,
    "metrics.compute_stats": _compute_stats,
    "metrics.diameter": _diameter,
    "impact.compute_baselines": lambda c, a, r, e: c.update(
        {"impact.cells": len(r)} if e is None else {}),
    "impact.attach_fwci": lambda c, a, r, e: c.update(
        {"impact.excluded": len(r[1])} if e is None else {}),
    "impact.build_observations": lambda c, a, r, e: c.update(
        {"impact.observations": len(r)} if e is None else {}),
    "lmm.fit": _lmm_fit,
    "longit.series_from_stats": lambda c, a, r, e: c.update(
        {"longit.series": len(r)} if e is None else {}),
    "cli.main": lambda c, a, r, e: c.update({"cli.calls": 1}),
}


class Tracer:
    """Collects spans (id, parent, name, layer, start, end) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a span; used by the wrappers and for harness roots."""
        stack = self._stack()
        span = [len(self.spans), stack[-1] if stack else None, name, layer, 0.0, 0.0]
        self.spans.append(span)
        stack.append(span[0])
        result, exc = None, None
        span[4] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            span[5] = time.perf_counter()
            stack.pop()
            hook = HOOKS.get(name)
            if hook is not None:
                hook(self.counts, args, result, exc)

    def _wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)
        return wrapper

    def install(self, modules) -> None:
        """Wrap every public function (and listed method) of the modules."""
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            layer = LAYERS[short]
            for attr, obj in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in PER_ITEM
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                self._undo.append((module, attr, obj))
                setattr(module, attr, self._wrap(name, layer, obj))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(module, cls_name)
                for attr in methods:
                    raw = vars(cls)[attr]
                    self._undo.append((cls, attr, raw))
                    name = f"{short}.{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self._wrap(name, layer, raw.__func__)))
                    else:
                        setattr(cls, attr, self._wrap(name, layer, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the child spans' durations."""
        own = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[5] - s[4]
        out: Counter = Counter()
        for s, t in zip(self.spans, own):
            out[s[2]] += t
        return dict(out)

    def layer_self_times(self) -> dict[str, float]:
        out: Counter = Counter()
        times = self.self_times()
        layer_of = {s[2]: s[3] for s in self.spans}
        for name, t in times.items():
            out[layer_of[name]] += t
        return dict(out)
