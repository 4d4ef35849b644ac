"""Tracing of dpcr layers from the benchmark's own files.

The tracer wraps the public functions of each dpcr module in place, at
every binding a caller can reach: the defining module, every other
loaded ``dpcr`` module that imported the function by name, and the
package namespace. ``Changelog.filter`` is a method, so it is patched
on the class. Nothing inside ``src/dpcr`` is edited.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` and
are only reduced to metrics after the workload ends. A span's self time
is its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable

# (layer, module attribute or "Class.method") for every traced function.
TRACED = (
    ("changelog", "load_changelog"),
    ("changelog", "validate_constraint"),
    ("changelog", "Changelog.filter"),
    ("mechanisms", "linear_query_change"),
    ("mechanisms", "named_stream"),
    ("mechanisms", "perturb"),
    ("accounting", "dcr_folds"),
    ("accounting", "swcr_folds"),
    ("accounting", "hdcr_folds"),
    ("accounting", "hdcr_time_bounded_nominal_folds"),
    ("accounting", "local_folds"),
    ("accounting", "most_span"),
    ("engines", "run_dcr"),
    ("engines", "run_swcr"),
    ("engines", "build_hdcr"),
    ("engines", "derive_swcr_from_hdcr"),
    ("engines", "cover_range"),
    ("engines", "aggregate"),
    ("engines", "result_to_csv"),
    ("engines", "result_to_jsonl"),
    ("randomized_response", "load_answer_log"),
    ("randomized_response", "net_mutation"),
    ("randomized_response", "invert_rule"),
    ("randomized_response", "sample_responses"),
    ("randomized_response", "estimate_delta_v"),
    ("randomized_response", "estimate_from_counts"),
    ("randomized_response", "rr_dcr"),
    ("randomized_response", "rr_hdcr"),
    ("oracles", "min_cover_oracle"),
    ("oracles", "affected_count_oracle"),
    ("oracles", "snapshot_oracle"),
    ("oracles", "monte_carlo"),
    ("verification", "check_cover_bounds"),
    ("verification", "check_most_span"),
    ("verification", "check_dominance"),
    ("verification", "check_laplace_moments"),
    ("verification", "check_response_rule"),
    ("verification", "check_dcr_against_snapshots"),
    ("verification", "check_aggregate_exactness"),
    ("verification", "check_estimator_unbiasedness"),
    ("cli", "main"),
    ("cli", "release_accounting"),
)

VERIFY_CHECKS = tuple(fn for layer, fn in TRACED if layer == "verification")

# Groups of functions reported as one layer metric. A group's time counts
# only its outermost spans, so nested members (hdcr_folds -> most_span,
# estimate_delta_v -> estimate_from_counts) are not counted twice.
GROUPS = {
    "folds": ("accounting.dcr_folds", "accounting.swcr_folds", "accounting.hdcr_folds",
              "accounting.hdcr_time_bounded_nominal_folds", "accounting.local_folds",
              "accounting.most_span"),
    "release": ("engines.run_dcr", "engines.run_swcr", "engines.build_hdcr",
                "engines.derive_swcr_from_hdcr"),
    "serialize": ("engines.result_to_csv", "engines.result_to_jsonl"),
    "estimate": ("randomized_response.estimate_delta_v",
                 "randomized_response.estimate_from_counts"),
}

# Names of the per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("changelog.load_s", "s"),
    ("changelog.validate_s", "s"),
    ("changelog.filter_calls", "count"),
    ("changelog.filter_s", "s"),
    ("changelog.filter_scanned", "count"),
    ("changelog.filter_hit_ratio", "ratio"),
    ("mechanisms.linear_query_change_calls", "count"),
    ("mechanisms.linear_query_change_s", "s"),
    ("mechanisms.mutations_evaluated", "count"),
    ("mechanisms.named_stream_calls", "count"),
    ("mechanisms.named_stream_s", "s"),
    ("mechanisms.named_stream_p50_us", "us"),
    ("mechanisms.named_stream_p99_us", "us"),
    ("mechanisms.perturb_calls", "count"),
    ("mechanisms.perturb_s", "s"),
    ("accounting.folds_calls", "count"),
    ("accounting.folds_s", "s"),
    ("engines.release_s", "s"),
    ("engines.release_self_s", "s"),
    ("engines.nodes", "count"),
    ("engines.cover_range_calls", "count"),
    ("engines.cover_range_s", "s"),
    ("engines.cover_nodes", "count"),
    ("engines.aggregate_calls", "count"),
    ("engines.aggregate_s", "s"),
    ("engines.serialize_s", "s"),
    ("engines.output_bytes", "bytes"),
    ("randomized_response.load_answer_log_s", "s"),
    ("randomized_response.net_mutation_calls", "count"),
    ("randomized_response.net_mutation_s", "s"),
    ("randomized_response.invert_rule_calls", "count"),
    ("randomized_response.invert_rule_s", "s"),
    ("randomized_response.sample_responses_s", "s"),
    ("randomized_response.estimate_s", "s"),
    ("randomized_response.rr_hdcr_self_s", "s"),
    ("cli.release_accounting_s", "s"),
    ("cli.self_s", "s"),
    *((f"verification.{check}_s", "s") for check in VERIFY_CHECKS),
    ("oracles.min_cover_oracle_s", "s"),
    ("oracles.affected_count_oracle_s", "s"),
    ("oracles.snapshot_oracle_s", "s"),
    ("oracles.monte_carlo_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _count_filter(counters, args, result) -> None:
    counters["changelog.filter_scanned"] += len(args[0])
    counters["changelog.filter_returned"] += len(result)


def _count_mutations(counters, args, result) -> None:
    counters["mechanisms.mutations_evaluated"] += len(args[0])


def _count_records(counters, args, result) -> None:
    counters["engines.nodes"] += len(result.records)


def _count_tree(counters, args, result) -> None:
    counters["engines.nodes"] += len(result.nodes)


def _count_cover(counters, args, result) -> None:
    counters["engines.cover_nodes"] += len(result)


COUNTERS: dict[str, Callable] = {
    "changelog.Changelog.filter": _count_filter,
    "mechanisms.linear_query_change": _count_mutations,
    "engines.run_dcr": _count_records,
    "engines.run_swcr": _count_records,
    "engines.build_hdcr": _count_tree,
    "engines.cover_range": _count_cover,
}


class Tracer:
    """Patches dpcr in place while installed and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self.run_id += 1  # a root span starts a new traced call
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        for layer in {layer for layer, _ in TRACED}:
            importlib.import_module(f"dpcr.{layer}")
        from dpcr.changelog import Changelog

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dpcr" or key.startswith("dpcr."))]
        for layer, attr in TRACED:
            if attr == "Changelog.filter":
                original = Changelog.filter
                self._patch(Changelog, "filter", self._wrap("changelog.Changelog.filter", original))
                continue
            original = getattr(sys.modules[f"dpcr.{layer}"], attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write_spans(self, path) -> None:
        """All spans as CSV rows: name, start, end, parent index, run id."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start", "end", "parent", "run_id"))
            writer.writerows(self.spans)

    def function_table(self, calls: int) -> dict[str, dict[str, float]]:
        """Per traced function: calls, total and self seconds, per traced call."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for layer, attr in TRACED:
            table[f"{layer}.{attr}"] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        for row in table.values():
            row["calls"] //= calls
            row["total_s"] /= calls
            row["self_s"] /= calls
        return table

    def _group_seconds(self, members: tuple[str, ...]) -> float:
        """Time covered by the outermost spans of a set of functions."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in members:
                continue
            while parent >= 0 and self.spans[parent][0] not in members:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def metrics(self, calls: int, output_bytes: int, overhead_ratio: float) -> dict[str, float]:
        """The per-layer metrics, each given per traced call."""
        fn = self.function_table(calls)
        group = {key: self._group_seconds(members) / calls for key, members in GROUPS.items()}
        count = {key: value // calls for key, value in self.counters.items()}
        folds_calls = sum(fn[name]["calls"] for name in GROUPS["folds"])
        stream_us = sorted(
            (end - start) * 1e6 for name, start, end, _, _ in self.spans
            if name == "mechanisms.named_stream"
        )
        scanned = count.get("changelog.filter_scanned", 0)
        values = {
            "changelog.load_s": fn["changelog.load_changelog"]["total_s"],
            "changelog.validate_s": fn["changelog.validate_constraint"]["total_s"],
            "changelog.filter_calls": fn["changelog.Changelog.filter"]["calls"],
            "changelog.filter_s": fn["changelog.Changelog.filter"]["total_s"],
            "changelog.filter_scanned": scanned,
            "changelog.filter_hit_ratio":
                count.get("changelog.filter_returned", 0) / scanned if scanned else 0.0,
            "mechanisms.linear_query_change_calls": fn["mechanisms.linear_query_change"]["calls"],
            "mechanisms.linear_query_change_s": fn["mechanisms.linear_query_change"]["total_s"],
            "mechanisms.mutations_evaluated": count.get("mechanisms.mutations_evaluated", 0),
            "mechanisms.named_stream_calls": fn["mechanisms.named_stream"]["calls"],
            "mechanisms.named_stream_s": fn["mechanisms.named_stream"]["total_s"],
            "mechanisms.named_stream_p50_us": _quantile(stream_us, 0.50),
            "mechanisms.named_stream_p99_us": _quantile(stream_us, 0.99),
            "mechanisms.perturb_calls": fn["mechanisms.perturb"]["calls"],
            "mechanisms.perturb_s": fn["mechanisms.perturb"]["total_s"],
            "accounting.folds_calls": folds_calls,
            "accounting.folds_s": group["folds"],
            "engines.release_s": group["release"],
            "engines.release_self_s": sum(
                fn[name]["self_s"] for name in GROUPS["release"]
            ),
            "engines.nodes": count.get("engines.nodes", 0),
            "engines.cover_range_calls": fn["engines.cover_range"]["calls"],
            "engines.cover_range_s": fn["engines.cover_range"]["total_s"],
            "engines.cover_nodes": count.get("engines.cover_nodes", 0),
            "engines.aggregate_calls": fn["engines.aggregate"]["calls"],
            "engines.aggregate_s": fn["engines.aggregate"]["total_s"],
            "engines.serialize_s": group["serialize"],
            "engines.output_bytes": output_bytes,
            "randomized_response.load_answer_log_s":
                fn["randomized_response.load_answer_log"]["total_s"],
            "randomized_response.net_mutation_calls":
                fn["randomized_response.net_mutation"]["calls"],
            "randomized_response.net_mutation_s":
                fn["randomized_response.net_mutation"]["total_s"],
            "randomized_response.invert_rule_calls":
                fn["randomized_response.invert_rule"]["calls"],
            "randomized_response.invert_rule_s": fn["randomized_response.invert_rule"]["total_s"],
            "randomized_response.sample_responses_s":
                fn["randomized_response.sample_responses"]["total_s"],
            "randomized_response.estimate_s": group["estimate"],
            "randomized_response.rr_hdcr_self_s": fn["randomized_response.rr_hdcr"]["self_s"],
            "cli.release_accounting_s": fn["cli.release_accounting"]["total_s"],
            "cli.self_s": fn["cli.main"]["self_s"],
            "oracles.min_cover_oracle_s": fn["oracles.min_cover_oracle"]["total_s"],
            "oracles.affected_count_oracle_s": fn["oracles.affected_count_oracle"]["total_s"],
            "oracles.snapshot_oracle_s": fn["oracles.snapshot_oracle"]["total_s"],
            "oracles.monte_carlo_s": fn["oracles.monte_carlo"]["total_s"],
            "trace.overhead_ratio": overhead_ratio,
        }
        for check in VERIFY_CHECKS:
            values[f"verification.{check}_s"] = fn[f"verification.{check}"]["total_s"]
        return values


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    cuts = statistics.quantiles(sorted_values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
