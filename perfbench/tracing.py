"""Spans and counts recorded around fr3sim's layers, from outside the package.

``install`` replaces module-level names that ``fr3sim.harness`` and
``fr3sim.coefficients`` call into with wrappers that record a span (name,
start, end, parent span, link id) or bump a counter.  No file of fr3sim
changes; the wrappers live only in the traced process and in the pool
workers it forks, which inherit them.  A worker appends what it recorded to
``<dump_dir>/worker-<pid>.jsonl`` after each chunk of links, and
``Tracer.merge_worker_dumps`` folds those files back in.

``layer_metrics`` turns spans and counts into the per-layer metrics listed
in ``LAYER_METRICS``.  A span's self time is its duration minus the part of
its interval that its child spans cover.
"""

import functools
import json
import multiprocessing
import os
import pathlib
import statistics
import time
import warnings
from collections import Counter, defaultdict

# metric -> names of the spans whose durations it sums
SPAN_GROUPS = {
    "geometry.drop_s": ("drop_ues",),
    "geometry.serve_s": ("_serve",),
    "scenario.states_s": ("assign_states",),
    "largescale.lsp_field_s": ("correlated_standard_normals",),
    "largescale.link_s": ("lsps_from_standardized", "path_loss",
                          "o2i_penetration"),
    "smallscale.cluster_s": ("build_cluster_set",),
    "nearfield.source_s": ("source_distances",),
    "sns.stochastic_s": ("stochastic_attenuation",),
    "sns.ue_mask_s": ("ue_sns_mask",),
    "antenna.mount_s": ("mount_bs_array", "mount_ue_device"),
    "antenna.field_pattern_s": ("field_pattern",),
    "coefficients.synth_s": ("synthesize",),
    "coefficients.cir_write_s": ("apply_large_scale", "write_cir"),
    "harness.link_s": ("process_link",),
    "harness.metrics_s": ("capacity", "coupling_loss", "gini", "_tap_powers",
                          "_angular_spread", "_rms_delay_spread"),
    "harness.output_s": ("_write_outputs",),
    "harness.pool_s": ("pool",),
    "harness.worker_busy_s": ("_worker_chunk",),
}

# counters bumped by the wrappers, reported under the same names
COUNTS = ("geometry.wrap_calls", "scenario.value_calls",
          "scenario.expr_evals", "largescale.field_cells",
          "smallscale.clusters", "smallscale.rays", "coefficients.taps",
          "coefficients.cir_bytes")

# warning categories fr3sim emits; anything else is counted as "other"
WARNING_CATEGORIES = ("ValidityWarning", "UserWarning")

# every per-layer metric the traced pass reports, with its unit
LAYER_METRICS = {
    "setup.import_s": "s",
    "scenario.load_s": "s",
    "geometry.drop_s": "s",
    "geometry.serve_s": "s",
    "geometry.wrap_calls": "count",
    "scenario.states_s": "s",
    "scenario.value_calls": "count",
    "scenario.expr_evals": "count",
    "largescale.lsp_field_s": "s",
    "largescale.lsp_groups": "count",
    "largescale.field_cells": "count",
    "largescale.cells_per_link": "count",
    "largescale.link_s": "s",
    "smallscale.cluster_s": "s",
    "smallscale.clusters": "count",
    "smallscale.rays": "count",
    "nearfield.source_s": "s",
    "sns.stochastic_s": "s",
    "sns.ue_mask_s": "s",
    "antenna.mount_s": "s",
    "antenna.field_pattern_s": "s",
    "antenna.field_pattern_calls": "count",
    "coefficients.synth_s": "s",
    "coefficients.synth_self_s": "s",
    "coefficients.taps": "count",
    "coefficients.cir_write_s": "s",
    "coefficients.cir_bytes": "bytes",
    "harness.run_s": "s",
    "harness.links": "count",
    "harness.link_s": "s",
    "harness.link_ms_p50": "ms",
    "harness.link_ms_p90": "ms",
    "harness.link_overhead_s": "s",
    "harness.metrics_s": "s",
    "harness.output_s": "s",
    "harness.pool_s": "s",
    "harness.worker_busy_s": "s",
    "harness.parallel_eff": "ratio",
    "harness.unattributed_s": "s",
    **{f"harness.warn.{c}": "count" for c in WARNING_CATEGORIES},
    "harness.warn.other": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self, dump_dir):
        self.spans = []           # (id, parent id, name, t0, t1, link id)
        self.stack = []           # ids of the open spans, innermost last
        self.counts = Counter()
        self.link = None          # link id of the process_link call in flight
        self.pool_span = None
        self.dump_dir = pathlib.Path(dump_dir)
        self._seq = 0

    def open(self):
        self._seq += 1
        sid = f"{os.getpid()}.{self._seq}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, name, opened):
        sid, parent, t0 = opened
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans.append((sid, parent, name, t0, t1, self.link))

    def wrap(self, owner, attr, on_result=None, link_of=None):
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``attr``; ``on_result(counts, args, result)`` may count its output
        and ``link_of(args)`` names the link the call works on."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_link = self.link
            if link_of is not None:
                self.link = link_of(args)
            opened = self.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(attr, opened)
                self.link = outer_link
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        setattr(owner, attr, traced)

    def count(self, owner, attr, key, amount=None):
        """Replace ``owner.attr`` with a wrapper that adds one (or
        ``amount(result)``) to counter ``key`` per call."""
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1 if amount is None else amount(result)
            return result

        setattr(owner, attr, counted)

    def dump(self):
        """Append this worker's spans and counts to its dump file."""
        path = self.dump_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as f:
            f.write(json.dumps({"spans": self.spans,
                                "counts": dict(self.counts)}) + "\n")

    def merge_worker_dumps(self):
        for path in sorted(self.dump_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                self.spans.extend(tuple(s) for s in rec["spans"])
                self.counts.update(rec["counts"])


def count_warnings(counts):
    """Count every warning by category instead of printing it, so per-link
    warnings stay out of the timed process's stderr."""
    warnings.simplefilter("always")

    def show(message, category, filename, lineno, file=None, line=None):
        counts[f"warn.{category.__name__}"] += 1

    warnings.showwarning = show


def install(tracer):
    """Wrap the names fr3sim's harness and coefficients modules call into."""
    from fr3sim import coefficients, harness, largescale, scenario

    if multiprocessing.get_start_method() != "fork":
        raise RuntimeError("tracing needs the fork start method, so that pool "
                           "workers inherit the wrappers")
    counts = tracer.counts

    def clusters(c, args, cs):
        c["smallscale.clusters"] += cs.n
        c["smallscale.rays"] += cs.n * cs.m

    def taps(c, args, h):
        c["coefficients.taps"] += h.n_taps

    def cir_bytes(c, args, _):
        c["coefficients.cir_bytes"] += os.path.getsize(args[0])

    hooks = {"build_cluster_set": clusters, "synthesize": taps,
             "write_cir": cir_bytes}
    wrapped = {n for names in SPAN_GROUPS.values() for n in names}
    wrapped -= {"field_pattern", "pool", "process_link", "_worker_chunk"}
    for name in sorted(wrapped) + ["run"]:
        tracer.wrap(harness, name, on_result=hooks.get(name))
    tracer.wrap(harness, "process_link", link_of=lambda args: args[1].link_id)
    tracer.wrap(coefficients, "field_pattern")

    # Pool workers are forked while the pool span is open and inherit these
    # wrappers.  Each chunk drops what the fork copied, records its own
    # spans under the pool span and dumps them for the parent to merge.
    tracer.wrap(harness, "_worker_chunk")
    chunk = harness._worker_chunk

    @functools.wraps(chunk)
    def worker_chunk(*args, **kwargs):
        tracer.spans.clear()
        counts.clear()
        tracer.stack[:] = [tracer.pool_span]
        try:
            return chunk(*args, **kwargs)
        finally:
            tracer.dump()

    harness._worker_chunk = worker_chunk

    class TracedPool(harness.ProcessPoolExecutor):
        def __enter__(self):
            self._opened = tracer.open()
            tracer.pool_span = self._opened[0]
            counts["harness.workers"] = self._max_workers
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close("pool", self._opened)

    harness.ProcessPoolExecutor = TracedPool

    tracer.count(harness, "effective_ue_position", "geometry.wrap_calls")
    tracer.count(scenario.ScenarioParams, "value", "scenario.value_calls")
    tracer.count(scenario, "eval_expression", "scenario.expr_evals")
    tracer.count(largescale, "fftconvolve", "largescale.field_cells",
                 amount=lambda grid: grid.size)


def _covered(intervals, t0, t1):
    """Length of [t0, t1] covered by the union of ``intervals``."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans, counts):
    """Per-layer metrics (see LAYER_METRICS) from one traced run's spans and
    counts; the setup timers and the tracing overhead are added by the
    caller."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for sid, parent, name, t0, t1, _link in spans:
        by_name[name].append((sid, t0, t1))
        children[parent].append((t0, t1))

    def total(names):
        return sum(t1 - t0 for n in names for _, t0, t1 in by_name[n])

    def self_time(name):
        return sum(t1 - t0 - _covered(children[sid], t0, t1)
                   for sid, t0, t1 in by_name[name])

    m = {metric: total(names) for metric, names in SPAN_GROUPS.items()}
    for key in COUNTS:
        m[key] = counts.get(key, 0)
    n_links = len(by_name["process_link"])
    (run_id, run0, run1), = by_name["run"]
    m["harness.run_s"] = run1 - run0
    m["harness.links"] = n_links
    m["harness.unattributed_s"] = self_time("run")
    m["largescale.lsp_groups"] = len(by_name["correlated_standard_normals"])
    m["largescale.cells_per_link"] = m["largescale.field_cells"] / n_links
    m["antenna.field_pattern_calls"] = len(by_name["field_pattern"])
    m["coefficients.synth_self_s"] = self_time("synthesize")
    m["harness.link_overhead_s"] = self_time("process_link")
    link_ms = sorted(1e3 * (t1 - t0) for _, t0, t1 in by_name["process_link"])
    deciles = statistics.quantiles(link_ms, n=10) if n_links > 1 else link_ms * 9
    m["harness.link_ms_p50"] = deciles[4]
    m["harness.link_ms_p90"] = deciles[8]
    workers = counts.get("harness.workers", 0)
    m["harness.parallel_eff"] = (m["harness.worker_busy_s"]
                                 / (workers * m["harness.pool_s"])
                                 if workers else 0.0)
    for cat in WARNING_CATEGORIES:
        m[f"harness.warn.{cat}"] = counts.get(f"warn.{cat}", 0)
    m["harness.warn.other"] = sum(
        v for k, v in counts.items() if k.startswith("warn.")
        and k[5:] not in WARNING_CATEGORIES)
    m["trace.spans"] = len(spans)
    return m
