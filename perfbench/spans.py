"""Span tracer for the traced benchmark run.

The tracer replaces public functions of the package at the module
attribute their callers look up (``volume.sample_simplex``, the kernel
module's ``count_hits``, ``cli._classify_state`` and so on), so no file
of the package changes. Each call becomes a span: name, start, end,
parent span, thread and a few attributes. Spans stay in memory; the
benchmark folds each traced round into per-layer totals and writes the
last round's spans out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

# (name, unit, better) of every per-layer metric; BENCHMARK.json lists the same
CLI_SUBCOMMANDS = ("classify", "mermin", "extremes", "facets", "volume", "certify", "report")
PER_LAYER = [
    ("volume.sample_simplex.busy_s", "s/round", "lower"),
    ("volume.sample_simplex.rows", "rows/round", "lower"),
    ("volume.sample_simplex.ns_per_value", "ns", "lower"),
    ("volume.sample_simplex.bytes_computed", "B/round", "lower"),
    ("kernel.count_hits.busy_s", "s/round", "lower"),
    ("kernel.count_hits.rows", "rows/round", "lower"),
    ("kernel.count_hits.ns_per_value", "ns", "lower"),
    ("kernel.count_hits.bytes_computed", "B/round", "lower"),
    ("volume.mc_relative_volume.calls", "calls/round", "lower"),
    ("volume.mc_relative_volume.chunks", "chunks/round", "lower"),
    ("volume.mc_relative_volume.self_s", "s/round", "lower"),
    ("volume.mc_relative_volume.chunks_per_call", "count", "lower"),
    ("volume.mc_relative_volume.rows_per_call", "count", "lower"),
    ("volume.pool_utilisation", "ratio", "higher"),
    ("states.GhzDiagonalState.us_per_call", "us", "lower"),
    ("classify.classify.us_per_call", "us", "lower"),
    ("classify.classify.self_us", "us", "lower"),
    ("classify.is_fully_biseparable.us_per_call", "us", "lower"),
    ("classify.az_from_prob.calls_per_classify", "count", "lower"),
    ("mermin.violates_mermin.us_per_call", "us", "lower"),
    ("polytopes.iter_facets_fbi.per_s", "1/s", "higher"),
    ("polytopes.iter_extreme_points_fbi.per_s", "1/s", "higher"),
    ("indices.to_bits.calls", "calls/round", "lower"),
    ("decompose.certify_midpoint.us_per_call", "us", "lower"),
    ("decompose.cube_vertex_decomposition.us_per_call", "us", "lower"),
    ("classify.is_ppt_bipartition.calls", "calls/round", "lower"),
    *((f"cli.main.self_ms.{sub}", "ms", "lower") for sub in CLI_SUBCOMMANDS),
    *((f"cli.output_bytes.{sub}", "B", "lower") for sub in CLI_SUBCOMMANDS),
    ("import.ghzpolytope_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("host.reference_ms", "ms", "lower"),
]


def null_span(name, **attrs):
    """Stand-in for :meth:`Tracer.span` in untraced rounds."""
    return nullcontext(attrs)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, thread id, attrs)
        self.counts = defaultdict(int)
        self._ids = itertools.count(1)
        self._stacks = {}  # thread id -> ids of the spans open on that thread
        self._main = threading.main_thread().ident
        self._patches = []

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)

    def _push(self):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            # a pool worker's first span belongs to the call that is blocked
            # on the main thread waiting for it
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def _close(self, sid, name, start, parent, stack, attrs):
        end = perf_counter()
        stack.pop()
        self.spans.append((sid, name, start, end, parent, threading.get_ident(), attrs))

    @contextmanager
    def span(self, name, **attrs):
        sid, parent, stack = self._push()
        start = perf_counter()
        try:
            yield attrs
        finally:
            self._close(sid, name, start, parent, stack, attrs)

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, stack = self._push()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, parent, stack,
                            attrs(args, kwargs) if attrs else None)
        return traced

    def wrap_iter(self, name, fn):
        """Each ``next`` of the generator is one span; consumer time is not."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with self.span(name) as attrs:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    attrs["items"] = 1
                yield item
        return traced

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        mod = {name: importlib.import_module(f"ghzpolytope.{name}") for name in
               ("volume", "states", "classify", "mermin", "polytopes", "decompose", "indices", "cli")}
        vol, cls, cli, dec = mod["volume"], mod["classify"], mod["cli"], mod["decompose"]

        def shape_of_sample(args, kwargs):  # sample_simplex(rng, m, d)
            return {"rows": args[1], "d": args[2]}

        def shape_of_batch(args, kwargs):  # count_hits(p, family, nu)
            rows, d = args[0].shape
            return {"rows": rows, "d": d}

        def thread_count(args, kwargs):
            return {"threads": kwargs.get("threads", args[4] if len(args) > 4 else 1)}

        def traced(owner, attr, name, attrs=None):
            return owner, attr, lambda fn: self.wrap(name, fn, attrs)

        def counted(owner, attr, name):
            return owner, attr, lambda fn: self.count(name, fn)

        table = [
            traced(vol, "sample_simplex", "volume.sample_simplex", shape_of_sample),
            traced(vol._default_kernel, "count_hits", "kernel.count_hits", shape_of_batch),
            traced(vol, "mc_relative_volume", "volume.mc_relative_volume", thread_count),
            traced(mod["states"].GhzDiagonalState, "__init__", "states.GhzDiagonalState"),
            traced(cls, "classify", "classify.classify"),
            traced(cli, "_classify_state", "classify.classify"),
            traced(cls, "is_fully_biseparable", "classify.is_fully_biseparable"),
            traced(cls, "az_from_prob", "classify.az_from_prob"),
            traced(mod["mermin"], "violates_mermin", "mermin.violates_mermin"),
            (mod["polytopes"], "iter_facets_fbi",
             lambda fn: self.wrap_iter("polytopes.iter_facets_fbi", fn)),
            (mod["polytopes"], "iter_extreme_points_fbi",
             lambda fn: self.wrap_iter("polytopes.iter_extreme_points_fbi", fn)),
            traced(cli, "certify_midpoint", "decompose.certify_midpoint"),
            traced(cli, "cube_vertex_decomposition", "decompose.cube_vertex_decomposition"),
            traced(dec, "is_ppt_bipartition", "classify.is_ppt_bipartition"),
            traced(cls, "is_ppt_bipartition", "classify.is_ppt_bipartition"),
            *(counted(owner, "to_bits", "indices.to_bits")
              for owner in (mod["indices"], mod["polytopes"], cls, dec)),
        ]
        for owner, attr, make in table:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def round_totals(spans, counts):
    """Fold one round's spans into raw sums keyed by layer quantity."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals = defaultdict(float)
    for sid, name, start, end, _, _, attrs in spans:
        dur = end - start
        self_s = dur - _covered(children.get(sid, ()), start, end)
        totals[f"{name}.calls"] += 1
        totals[f"{name}.busy"] += dur
        if name in ("volume.sample_simplex", "kernel.count_hits"):
            totals[f"{name}.rows"] += attrs["rows"]
            totals[f"{name}.values"] += attrs["rows"] * attrs["d"]
        elif name == "volume.mc_relative_volume":
            totals[f"{name}.self"] += self_s
            if attrs["threads"] > 1:
                totals["pool.capacity"] += dur * attrs["threads"]
                totals["pool.busy"] += sum(hi - lo for lo, hi in children.get(sid, ()))
        elif name == "classify.classify":
            totals[f"{name}.self"] += self_s
        elif name.startswith("polytopes.iter_"):
            totals[f"{name}.items"] += attrs.get("items", 0)
        elif name == "cli.main":
            sub = attrs["subcommand"]
            totals[f"cli.{sub}.calls"] += 1
            totals[f"cli.{sub}.self"] += self_s
            if attrs["bytes"]:
                totals[f"cli.{sub}.outputs"] += 1
                totals[f"cli.{sub}.bytes"] += attrs["bytes"]
    for name, n in counts.items():
        totals[f"{name}.calls"] += n
    return totals


def per_layer_metrics(totals, rounds, imports, overhead_pct, reference_s):
    """The PER_LAYER values from totals summed over ``rounds`` traced rounds.

    Quantities of a fixed amount of work are given per round (one pass
    over the workload's mix); a layer the workload never reaches reads 0.
    """
    t = defaultdict(float, totals)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    values = {}
    for layer in ("volume.sample_simplex", "kernel.count_hits"):
        values[f"{layer}.busy_s"] = t[f"{layer}.busy"] / rounds
        values[f"{layer}.rows"] = t[f"{layer}.rows"] / rounds
        values[f"{layer}.ns_per_value"] = ratio(t[f"{layer}.busy"], t[f"{layer}.values"], 1e9)
        values[f"{layer}.bytes_computed"] = 8 * t[f"{layer}.values"] / rounds
    mc = "volume.mc_relative_volume"
    values[f"{mc}.calls"] = t[f"{mc}.calls"] / rounds
    values[f"{mc}.chunks"] = t["volume.sample_simplex.calls"] / rounds
    values[f"{mc}.self_s"] = t[f"{mc}.self"] / rounds
    values[f"{mc}.chunks_per_call"] = ratio(t["volume.sample_simplex.calls"], t[f"{mc}.calls"])
    values[f"{mc}.rows_per_call"] = ratio(t["volume.sample_simplex.rows"], t[f"{mc}.calls"])
    values["volume.pool_utilisation"] = ratio(t["pool.busy"], t["pool.capacity"])
    for name in ("states.GhzDiagonalState", "classify.classify", "classify.is_fully_biseparable",
                 "mermin.violates_mermin", "decompose.certify_midpoint",
                 "decompose.cube_vertex_decomposition"):
        values[f"{name}.us_per_call"] = ratio(t[f"{name}.busy"], t[f"{name}.calls"], 1e6)
    values["classify.classify.self_us"] = ratio(
        t["classify.classify.self"], t["classify.classify.calls"], 1e6)
    values["classify.az_from_prob.calls_per_classify"] = ratio(
        t["classify.az_from_prob.calls"], t["classify.classify.calls"])
    for name in ("polytopes.iter_facets_fbi", "polytopes.iter_extreme_points_fbi"):
        values[f"{name}.per_s"] = ratio(t[f"{name}.items"], t[f"{name}.busy"])
    values["indices.to_bits.calls"] = t["indices.to_bits.calls"] / rounds
    values["classify.is_ppt_bipartition.calls"] = t["classify.is_ppt_bipartition.calls"] / rounds
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.main.self_ms.{sub}"] = ratio(t[f"cli.{sub}.self"], t[f"cli.{sub}.calls"], 1e3)
        values[f"cli.output_bytes.{sub}"] = ratio(t[f"cli.{sub}.bytes"], t[f"cli.{sub}.outputs"])
    values["import.ghzpolytope_s"] = imports["ghzpolytope_s"]
    values["import.numpy_s"] = imports["numpy_s"]
    values["trace.overhead_pct"] = overhead_pct
    # the host's speed during the run, to set the raw times above against
    values["host.reference_ms"] = 1e3 * reference_s
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}


def spans_as_json(spans):
    return [
        {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
         "thread": thread, "attrs": attrs}
        for sid, name, start, end, parent, thread, attrs in spans
    ]
