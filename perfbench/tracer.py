"""Span tracing of cflab from outside the library.

The traced run replaces selected functions and methods of the imported cflab
modules with wrappers that record a span (name, start, end, parent) around
each call, keep the spans in memory and write them out at the end.  Nothing
under src/ changes.  A layer is the prefix of a span name (cf, farey, stats,
harness, cli, bench); a span's self time is its duration minus the time its
child spans cover.

`<layer>.self_s` sums the self time of every span of a layer;
`harness.run_self_s` and `stats.classical_stats_s` are the self time of one
function; the other `_s` metrics are inclusive span times.
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import math
import time
from collections import defaultdict

# Computed traffic of one chi_mask call per table entry: the lower and upper
# float64 endpoint arrays read and the boolean mask written.
CHI_MASK_BYTES_PER_ENTRY = 8 + 8 + 1


class BoundTap:
    """Pass-through around stats.weight_log_series that keeps every returned
    tail bound; mq_level_expectation states its bound only through it."""

    def __init__(self, stats_module):
        self.bounds: list[float] = []
        inner = stats_module.weight_log_series

        def weight_log_series(*args, **kwargs):
            value, bound = inner(*args, **kwargs)
            self.bounds.append(bound)
            return value, bound

        stats_module.weight_log_series = weight_log_series


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start_ns, end_ns, parent]
        self._stack: list[int] = []
        self.streams: list[tuple] = []       # (stream, bits after construction)
        self.max_index: dict[int, int] = {}  # id(stream) -> highest index asked
        self.tables: dict[int, object] = {}
        self.mask_hits = 0
        self.mask_entries = 0
        self.intermediates_count = 0
        self.rows = 0
        self.weight_calls = 0
        self.units_from = 0  # index of the first span that counts for per-unit times

    def span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None):
        setattr(owner, attr, self.span(name, getattr(owner, attr), after))

    # -- instrumentation ------------------------------------------------------

    def install_experiment(self, experiment: str):
        from cflab import cli, harness
        from cflab.cf import DyadicStream
        from cflab.stats import WeightFunction

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "run", "harness.run", self._after_run)
        self.patch(cli, "aggregate", "harness.aggregate")
        self.patch(cli, "write_csv", "harness.write_csv")
        self.patch(harness, "sample_stream", "harness.sample_stream")
        for attr in ("mq_count_closed", "mq_count_intermediates",
                     "mq_count_farey", "mq_value"):
            self.patch(harness, attr, f"harness.{attr}")
        self.patch(harness, "classical_stats", "stats.classical_stats")
        self.patch(harness, "terminal_quotient", "stats.terminal_quotient")
        self.patch(harness, "cutoff", "cf.cutoff")
        self.patch(harness, "intermediates", "cf.intermediates", self._after_intermediates)
        self.patch(harness, "farey_table", "farey.farey_table", self._after_table)
        self.patch(harness, "chi_mask", "farey.chi_mask", self._after_mask)
        self.patch(DyadicStream, "__init__", "cf.stream_init", self._after_init)
        self.patch(DyadicStream, "quotient", "cf.quotient", self._after_quotient)
        self.patch(DyadicStream, "compare_fraction", "cf.compare_fraction")
        exp = harness.REGISTRY[experiment]
        harness.REGISTRY[experiment] = dataclasses.replace(
            exp, compute=self.span("harness.compute", exp.compute))

        weight = WeightFunction.__call__

        def counted(g, m):
            self.weight_calls += 1
            return weight(g, m)

        WeightFunction.__call__ = counted

    def _after_run(self, args, rows):
        self.rows += len(rows)

    def _after_intermediates(self, args, recs):
        self.intermediates_count += len(recs)

    def _after_table(self, args, table):
        self.tables[id(table)] = table

    def _after_mask(self, args, mask):
        import numpy as np
        self.mask_hits += int(np.count_nonzero(mask))
        self.mask_entries += mask.size

    def _after_init(self, args, _):
        self.streams.append((args[0], args[0].bits))

    def _after_quotient(self, args, _):
        key = id(args[0])
        if args[1] > self.max_index.get(key, 0):
            self.max_index[key] = args[1]

    # -- reduction ----------------------------------------------------------------

    def reduce(self) -> tuple[dict, dict, dict, dict]:
        """(inclusive seconds, self seconds, call counts) per span name and
        self seconds per layer."""
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        layer: dict = defaultdict(float)
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = (end - start) / 1e9
            self_s = dur - child[i] / 1e9
            total[name] += dur
            own[name] += self_s
            calls[name] += 1
            layer[name.split(".")[0]] += self_s
        return total, own, calls, layer

    def mark_units(self) -> None:
        self.units_from = len(self.spans)

    def unit_times_ms(self) -> list[float]:
        """Per-unit compute time of a serial replay since mark_units: a
        sample_stream span opens a unit and the compute spans after it
        belong to it."""
        units: list[float] = []
        for name, start, end, _ in self.spans[self.units_from:]:
            if name == "harness.sample_stream":
                units.append(0.0)
            if units and name in ("harness.sample_stream", "harness.compute"):
                units[-1] += (end - start) / 1e6
        return units

    def metrics(self, series_bounds: list[float]) -> dict:
        total, own, calls, layer = self.reduce()
        units = sorted(self.unit_times_ms())
        certified = sum(len(s.certified()) for s, _ in self.streams)
        asked = sum(self.max_index.get(id(s), 0) for s, _ in self.streams)
        guard = sum(1 for name, _, _, parent in self.spans
                    if name == "cf.compare_fraction" and parent >= 0
                    and self.spans[parent][0] == "farey.chi_mask")
        table_bytes = sum(v.nbytes for t in self.tables.values()
                          for v in vars(t).values() if hasattr(v, "nbytes"))
        return {
            "cf.stream_init_s": (total["cf.stream_init"], "s"),
            "cf.quotient_s": (total["cf.quotient"], "s"),
            "cf.quotient_calls": (calls["cf.quotient"], "count"),
            "cf.bits_drawn": (sum(s.bits for s, _ in self.streams), "bits"),
            "cf.refinements": (sum((s.bits - b0) // s.BLOCK for s, b0 in self.streams), "count"),
            "cf.quotients_certified": (certified, "count"),
            "cf.certified_use_ratio": (asked / certified if certified else 0.0, "ratio"),
            "cf.cutoff_s": (total["cf.cutoff"], "s"),
            "cf.intermediates_s": (total["cf.intermediates"], "s"),
            "cf.intermediates_count": (self.intermediates_count, "count"),
            "cf.self_s": (layer["cf"], "s"),
            "farey.table_build_s": (total["farey.farey_table"], "s"),
            "farey.table_entries": (sum(len(t) for t in self.tables.values()), "count"),
            "farey.table_bytes": (table_bytes, "bytes_computed"),
            "farey.chi_mask_s": (total["farey.chi_mask"], "s"),
            "farey.chi_mask_calls": (calls["farey.chi_mask"], "count"),
            "farey.chi_mask_bytes": (self.mask_entries * CHI_MASK_BYTES_PER_ENTRY, "bytes_computed"),
            "farey.guard_band_checks": (guard, "count"),
            "farey.mask_hit_ratio": (self.mask_hits / self.mask_entries
                                     if self.mask_entries else 0.0, "ratio"),
            "farey.row_sum_exact_s": (total["farey.row_sum_exact"], "s"),
            "farey.cumulative_expected_count_s": (total["farey.cumulative_expected_count"], "s"),
            "farey.self_s": (layer["farey"], "s"),
            "stats.terminal_quotient_s": (total["stats.terminal_quotient"], "s"),
            "stats.terminal_quotient_calls": (calls["stats.terminal_quotient"], "count"),
            "stats.weight_calls": (self.weight_calls, "count"),
            "stats.classical_stats_s": (own["stats.classical_stats"], "s"),
            "stats.weight_log_series_s": (total["stats.weight_log_series"], "s"),
            "stats.mq_level_expectation_s": (total["stats.mq_level_expectation"], "s"),
            "stats.series_tail_bound": (max(series_bounds, default=0.0), "abs_err"),
            "stats.self_s": (layer["stats"], "s"),
            "harness.samples": (len(units), "count"),
            "harness.sample_ms_p50": (_rank(units, 0.50), "ms"),
            "harness.sample_ms_p99": (_rank(units, 0.99), "ms"),
            "harness.mq_count_closed_s": (total["harness.mq_count_closed"], "s"),
            "harness.mq_count_intermediates_s": (total["harness.mq_count_intermediates"], "s"),
            "harness.mq_count_farey_s": (total["harness.mq_count_farey"], "s"),
            "harness.mq_value_s": (total["harness.mq_value"], "s"),
            "harness.run_self_s": (own["harness.run"], "s"),
            "harness.rows": (self.rows, "count"),
            "harness.aggregate_s": (total["harness.aggregate"], "s"),
            "harness.csv_s": (total["harness.write_csv"], "s"),
            "harness.self_s": (layer["harness"], "s"),
            "cli.self_s": (layer["cli"], "s"),
            "trace.spans": (len(self.spans), "count"),
        }

    def layer_self(self) -> dict:
        return dict(self.reduce()[3])

    def write(self, path, workload: str, seed: int) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start_ns", "end_ns", "workload", "seed"])
            t0 = self.spans[0][1] if self.spans else 0
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([i, parent, name, start - t0, end - t0, workload, seed])


def _rank(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]
