"""Release engines: disjoint, sliding-window, and hierarchical releases.

Every released value is a ``ReleaseRecord``: a disjoint or sliding-window
query, a hierarchy node (a disjoint query over a wider interval) and an
aggregate (a sum of nodes) alike. One evaluator, ``_run_filters``,
evaluates the exact linear-query change for every window and perturbs it
with Laplace noise read by position from one stream per noise vector:
query ``i`` of a disjoint or sliding-window release takes draw ``i`` of
``named_stream(seed, "dcr")`` (or ``"swcr"``), and hierarchy node
``(layer, index)`` takes draw ``index`` of
``named_stream(seed, "hdcr", layer)``. A value's noise is therefore a
function of the seed, the stream name and its position only: it does
not depend on evaluation order, and extending a schedule or a span
leaves earlier values' noise unchanged. A release evaluates ``f`` once
per mutation (``_change_terms``), and each window sums the terms of its
contiguous row slice of the log. Exact values ride along in the
in-memory results for verification; the serializers drop them unless
explicitly asked.

Every hierarchy, Laplace or survey, values each node once into a
``node_table`` and answers a grid range with ``cover_values``: the nodes
``cover_range`` finds in one left-to-right walk. Sums add the nodes in
that order, so a sum's bits are fixed by the range alone.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .accounting import HdcrParams, ReleaseSchedule, SwcrParams
from .changelog import (
    AtMostK,
    Changelog,
    Hybrid,
    TimeBounded,
    TimeRangeFilter,
)
from .mechanisms import LinearQuerySpec, NoiseSpec, named_stream, perturb


V = TypeVar("V")


class RangeTooWideError(ValueError):
    """The requested range is wider than the hierarchy can cover."""


class UnsupportedConstraintError(TypeError):
    """The variance comparison is defined for atomic constraints only."""


@dataclass(frozen=True)
class ReleaseRecord:
    """One released value over ``window``; ``exact`` is for verification only.

    Aggregates of hierarchy nodes also carry their ``node_count`` and
    nominal Laplace ``variance``.
    """

    window: TimeRangeFilter
    noisy: float
    exact: float
    node_count: int | None = None
    variance: float | None = None


@dataclass(frozen=True)
class ReleaseResult:
    records: tuple[ReleaseRecord, ...]

    def noisy_values(self) -> list[float]:
        return [r.noisy for r in self.records]

    def exact_values(self) -> list[float]:
        return [r.exact for r in self.records]


def run_dcr(
    log: Changelog,
    schedule: ReleaseSchedule,
    spec: LinearQuerySpec,
    noise: NoiseSpec,
) -> ReleaseResult:
    """Disjoint release: query ``i`` reads the mutations since query ``i-1``.

    The first query reads everything up to the first endpoint. Queries
    are non-adaptive and use mutually independent noise streams.
    """
    return _run_filters(log, _change_terms(log, spec), schedule.filters(), noise, "dcr")


def run_swcr(
    log: Changelog,
    params: SwcrParams,
    spec: LinearQuerySpec,
    noise: NoiseSpec,
) -> ReleaseResult:
    """Sliding-window release: query ``i`` reads ``(t_i - window, t_i]``."""
    return _run_filters(log, _change_terms(log, spec), params.filters(), noise, "swcr")


def _change_terms(log: Changelog, spec: LinearQuerySpec) -> np.ndarray:
    """``-f(prev)`` and ``+f(new)`` of every mutation, interleaved in log order."""
    terms = np.empty(2 * len(log))
    terms[0::2] = -spec.evaluate_column(log.prev, log.has_prev)
    terms[1::2] = spec.evaluate_column(log.new, log.has_new)
    return terms


def _run_filters(
    log: Changelog, terms: np.ndarray, filters: Sequence[TimeRangeFilter],
    noise: NoiseSpec, *stream: int | str,
) -> ReleaseResult:
    """Perturb filter ``i``'s exact change with draw ``i`` of ``(seed, *stream)``.

    A window's exact change adds its rows' ``terms`` one at a time from
    ``0.0``, so it equals ``linear_query_change(log.filter(window), spec)``
    bit for bit.
    """
    # cumsum adds left to right, where np.add.reduce would sum pairwise; "+ 0.0"
    # turns the -0.0 that a run of -0.0 terms leaves into the 0.0 a sum from 0.0 gives
    exacts = [
        float(np.cumsum(terms[2 * rows.start:2 * rows.stop])[-1]) + 0.0
        if rows.start < rows.stop else 0.0
        for rows in log.rows(filters)
    ]
    noisy = perturb(np.array(exacts), noise, named_stream(noise.seed, *stream)).tolist()
    return ReleaseResult(tuple(map(ReleaseRecord, filters, noisy, exacts)))


def cover_range(low: int, high: int, branching: int, height: int) -> tuple[tuple[int, int], ...]:
    """Disjoint ``(layer, index)`` nodes exactly covering grid range ``(low, high]``.

    A node ``(layer, j)`` spans ``(j * branching**layer,
    (j+1) * branching**layer]`` grid units. One walk from ``low`` takes
    at each position the widest node aligned there that still ends by
    ``high``, so nodes come out left to right: widths rise to the widest
    fitting layer, then fall, with at most ``branching - 1`` nodes per
    layer on each side.
    """
    if low < 0 or high <= low:
        raise ValueError(f"need 0 <= low < high, got ({low}, {high}]")
    if high - low > branching**height:
        raise RangeTooWideError(
            f"range ({low}, {high}] is wider than {branching}**{height} grid units"
        )
    cover = []
    pos, layer, width = low, 0, 1
    while pos < high:
        wider = width * branching
        while layer < height - 1 and pos % wider == 0 and pos + wider <= high:
            layer, width, wider = layer + 1, wider, wider * branching
        # pos is a multiple of width: it starts on layer 0 and moves by whole nodes
        while pos + width > high:
            layer -= 1
            width //= branching
        cover.append((layer, pos // width))
        pos += width
    return tuple(cover)


@dataclass(frozen=True)
class HdcrTree:
    """The ``node_table`` of a hierarchical release and its per-node Laplace noise."""

    params: HdcrParams
    noise: NoiseSpec
    nodes: Mapping[tuple[int, int], ReleaseRecord]

    def node(self, layer: int, index: int) -> ReleaseRecord:
        return self.nodes[(layer, index)]


def node_table(
    params: HdcrParams, value_layer: Callable[[int, list[TimeRangeFilter]], Iterable[V]]
) -> dict[tuple[int, int], V]:
    """Every node's value keyed ``(layer, index)``, valued one layer at a time.

    ``value_layer(layer, windows)`` values a layer's node filters in
    index order; the last may be truncated at the hierarchy end.
    """
    return {
        (layer, index): value
        for layer in range(params.height)
        for index, value in enumerate(value_layer(
            layer, [params.node_filter(layer, i) for i in range(params.layer_size(layer))]
        ))
    }


def cover_values(
    nodes: Mapping[tuple[int, int], V], params: HdcrParams, low: int, high: int
) -> list[V]:
    """The values of the nodes covering grid range ``(low, high]``, left to right."""
    if high > params.grid_size():
        raise ValueError(f"range ({low}, {high}] ends beyond the {params.grid_size()}-unit grid")
    return [nodes[node] for node in cover_range(low, high, params.branching, params.height)]


def build_hdcr(
    log: Changelog,
    params: HdcrParams,
    spec: LinearQuerySpec,
    noise_per_node: NoiseSpec,
) -> HdcrTree:
    """Evaluate every node of the hierarchy over the changelog.

    Each layer is a disjoint release over its node filters: node
    ``(layer, index)`` takes draw ``index`` of
    ``named_stream(seed, "hdcr", layer)``.
    """
    terms = _change_terms(log, spec)
    nodes = node_table(params, lambda layer, windows: _run_filters(
        log, terms, windows, noise_per_node, "hdcr", layer
    ).records)
    return HdcrTree(params, noise_per_node, nodes)


def aggregate(tree: HdcrTree, low: int, high: int) -> ReleaseRecord:
    """Answer the grid range ``(low, high]`` by summing a node cover.

    Grid units are bottom-layer intervals from the hierarchy start; the
    record's window is ``params.grid_filter(low, high)``, capped at the
    hierarchy end when the span is not a multiple of the top node width.
    Variance is ``node_count * 2 * scale**2`` for the per-node Laplace scale.
    """
    cover = cover_values(tree.nodes, tree.params, low, high)
    noisy = 0.0
    exact = 0.0
    for record in cover:
        noisy += record.noisy
        exact += record.exact
    variance = len(cover) * 2 * tree.noise.scale**2
    return ReleaseRecord(tree.params.grid_filter(low, high), noisy, exact, len(cover), variance)


def check_prefix_cover(params: HdcrParams) -> None:
    """Raise RangeTooWideError if no cover can span the hierarchy's whole grid.

    A hierarchy that flat has no prefix release: its last prefixes
    cannot be answered.
    """
    grid = params.grid_size()
    if grid > params.branching**params.height:
        raise RangeTooWideError(f"a {params.height}-layer hierarchy cannot cover {grid} grid units")


def run_hdcr(
    log: Changelog, params: HdcrParams, spec: LinearQuerySpec, noise_per_node: NoiseSpec
) -> ReleaseResult:
    """Hierarchical release: one prefix aggregate per bottom-layer endpoint.

    Raises RangeTooWideError before any work if no cover can span the grid.
    """
    check_prefix_cover(params)
    tree = build_hdcr(log, params, spec, noise_per_node)
    return ReleaseResult(tuple(aggregate(tree, 0, j) for j in range(1, params.grid_size() + 1)))


def swcr_equivalent_hdcr_params(swcr: SwcrParams, branching: int) -> HdcrParams:
    """The hierarchy whose aggregates answer every window of ``swcr``.

    The bottom interval is ``gcd(window, period)`` and the height is the
    smallest that lets one cover span a window, floored at one layer
    (the formula gives zero height for window == interval).
    """
    if branching < 2:  # checked before the height search, which would not end
        raise ValueError(f"branching must be >= 2, got {branching}")
    dt = math.gcd(swcr.window, swcr.period)
    height = 1
    while branching**height < swcr.window // dt:
        height += 1
    return HdcrParams(
        height=height,
        branching=branching,
        start=swcr.first_release - swcr.window,
        span=swcr.window + (swcr.count - 1) * swcr.period,
        interval=dt,
    )


def derive_swcr_from_hdcr(
    log: Changelog,
    swcr: SwcrParams,
    branching: int,
    noise_per_node: NoiseSpec,
    spec: LinearQuerySpec,
) -> ReleaseResult:
    """Answer a sliding-window release from hierarchy aggregates.

    Each window ``(t_i - window, t_i]`` maps to a grid range of the
    equivalent hierarchy and is answered by ``aggregate``; the expected
    answer equals the exact window change.
    """
    params = swcr_equivalent_hdcr_params(swcr, branching)
    tree = build_hdcr(log, params, spec, noise_per_node)
    dt = params.interval
    # window i is (first_release + i*period - window, first_release + i*period]
    # and the hierarchy starts at first_release - window
    return ReleaseResult(tuple(
        aggregate(tree, i * swcr.period // dt, (i * swcr.period + swcr.window) // dt)
        for i in range(swcr.count)
    ))


@dataclass(frozen=True)
class VarianceComparison:
    """Outcome of the equal-privacy hierarchy-vs-window variance test.

    ``hdcr_wins`` is exact (integer/rational arithmetic); ``lhs < rhs``
    means the hierarchy-derived release has the lower per-window
    variance at equal total privacy loss, with per-node epsilon scaled
    by ``epsilon_prime_factor``.
    """

    lhs: float
    rhs: float
    hdcr_wins: bool
    epsilon_prime_factor: float
    height: int


def compare_hdcr_swcr(
    swcr: SwcrParams, branching: int, constraint: AtMostK | TimeBounded
) -> VarianceComparison:
    """Evaluate the variance-comparison inequality for pure epsilon noise.

    At-most-k: ``2(c-1)h^3 < ceil(W/P)^2``. Time-bounded:
    ``2(c-1)h(q*ceil(B/dt) + h)^2 < ceil((W+B)/P)^2`` with
    ``q = (c^h - 1)/(c^h - c^(h-1))``. Both sides are evaluated exactly.
    """
    if isinstance(constraint, Hybrid):
        raise UnsupportedConstraintError("compare one atomic constraint at a time")
    c = branching
    params = swcr_equivalent_hdcr_params(swcr, c)
    dt, h = params.interval, params.height
    if isinstance(constraint, AtMostK):
        lhs = Fraction(2 * (c - 1) * h**3)
        per_window = -(-swcr.window // swcr.period)
        rhs = Fraction(per_window**2)
        factor = Fraction(per_window, h)
    elif isinstance(constraint, TimeBounded):
        q = Fraction(c**h - 1, c**h - c ** (h - 1))
        term = q * -(-constraint.bound // dt) + h
        lhs = 2 * (c - 1) * h * term**2
        folds = -(-(swcr.window + constraint.bound) // swcr.period)
        rhs = Fraction(folds**2)
        factor = folds / term
    else:
        raise UnsupportedConstraintError(f"unsupported constraint {constraint!r}")
    return VarianceComparison(
        lhs=float(lhs),
        rhs=float(rhs),
        hdcr_wins=lhs < rhs,
        epsilon_prime_factor=float(factor),
        height=h,
    )


def result_to_csv(
    result: ReleaseResult, fh: IO[str], include_exact: bool = False
) -> None:
    """Columns ``query_index, t_start, t_end, noisy`` (+ ``exact`` if asked)."""
    writer = csv.writer(fh, lineterminator="\n")
    header = ["query_index", "t_start", "t_end", "noisy"]
    if include_exact:
        header.append("exact")
    writer.writerow(header)
    for i, r in enumerate(result.records):
        row = [i, _start_repr(r.window.start), r.window.end, repr(r.noisy)]
        if include_exact:
            row.append(repr(r.exact))
        writer.writerow(row)


def result_to_jsonl(
    result: ReleaseResult, fh: IO[str], include_exact: bool = False
) -> None:
    """One JSON object per query; aggregates carry node_count and variance."""
    for i, r in enumerate(result.records):
        rec: dict[str, object] = {
            "query_index": i,
            "t_start": None if r.window.start == float("-inf") else int(r.window.start),
            "t_end": r.window.end,
            "noisy": r.noisy,
        }
        if r.node_count is not None:
            rec["node_count"] = r.node_count
            rec["variance"] = r.variance
        if include_exact:
            rec["exact"] = r.exact
        fh.write(json.dumps(rec))
        fh.write("\n")


def _start_repr(start: float) -> str:
    return "-inf" if start == float("-inf") else str(int(start))
