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
leaves earlier values' noise unchanged. Exact values ride along in the
in-memory results for verification; the serializers drop them unless
explicitly asked.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Mapping, Sequence

import numpy as np

from .accounting import HdcrParams, ReleaseSchedule, SwcrParams
from .changelog import (
    AtMostK,
    Changelog,
    Hybrid,
    TimeBounded,
    TimeRangeFilter,
)
from .mechanisms import LinearQuerySpec, NoiseSpec, linear_query_change, named_stream, perturb


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
    return _run_filters(log, schedule.filters(), spec, noise, "dcr")


def run_swcr(
    log: Changelog,
    params: SwcrParams,
    spec: LinearQuerySpec,
    noise: NoiseSpec,
) -> ReleaseResult:
    """Sliding-window release: query ``i`` reads ``(t_i - window, t_i]``."""
    return _run_filters(log, params.filters(), spec, noise, "swcr")


def _run_filters(
    log: Changelog, filters: Sequence[TimeRangeFilter], spec: LinearQuerySpec,
    noise: NoiseSpec, *stream: int | str,
) -> ReleaseResult:
    """Perturb filter ``i``'s exact change with draw ``i`` of ``(seed, *stream)``."""
    exacts = [linear_query_change(log.filter(window), spec) for window in filters]
    noisy = perturb(np.array(exacts), noise, named_stream(noise.seed, *stream)).tolist()
    return ReleaseResult(tuple(map(ReleaseRecord, filters, noisy, exacts)))


def cover_range(low: int, high: int, branching: int, height: int) -> tuple[tuple[int, int], ...]:
    """Disjoint ``(layer, index)`` nodes exactly covering grid range ``(low, high]``.

    A node ``(layer, j)`` spans ``(j * branching**layer,
    (j+1) * branching**layer]`` grid units. The range is split at the
    most-aligned grid point inside it; each side is then peeled off
    greedily with the widest aligned node that still fits, which needs at
    most ``branching - 1`` nodes per layer per side.
    """
    if low < 0 or high <= low:
        raise ValueError(f"need 0 <= low < high, got ({low}, {high}]")
    if high - low > branching**height:
        raise RangeTooWideError(
            f"range ({low}, {high}] is wider than {branching}**{height} grid units"
        )
    level = height - 1
    while level > 0 and (low // branching**level + 1) * branching**level > high:
        level -= 1
    split = (low // branching**level + 1) * branching**level

    left: list[tuple[int, int]] = []
    pos = split
    for lv in range(level, -1, -1):
        width = branching**lv
        while pos % width == 0 and pos - width >= low:
            pos -= width
            left.append((lv, pos // width))
    left.reverse()

    right: list[tuple[int, int]] = []
    pos = split
    for lv in range(level, -1, -1):
        width = branching**lv
        while pos % width == 0 and pos + width <= high:
            right.append((lv, pos // width))
            pos += width
    return tuple(left) + tuple(right)


@dataclass(frozen=True)
class HdcrTree:
    """All per-node records of a hierarchical release, keyed ``(layer, index)``."""

    params: HdcrParams
    noise: NoiseSpec
    nodes: Mapping[tuple[int, int], ReleaseRecord]

    def node(self, layer: int, index: int) -> ReleaseRecord:
        return self.nodes[(layer, index)]


def build_hdcr(
    log: Changelog,
    params: HdcrParams,
    spec: LinearQuerySpec,
    noise_per_node: NoiseSpec,
) -> HdcrTree:
    """Evaluate every node of the hierarchy over the changelog.

    Each layer is a disjoint release over its (possibly truncated) node
    filters: node ``(layer, index)`` takes draw ``index`` of
    ``named_stream(seed, "hdcr", layer)``.
    """
    nodes = {}
    for layer in range(params.height):
        windows = [params.node_filter(layer, index) for index in range(params.layer_size(layer))]
        records = _run_filters(log, windows, spec, noise_per_node, "hdcr", layer).records
        nodes.update(((layer, index), record) for index, record in enumerate(records))
    return HdcrTree(params, noise_per_node, nodes)


def aggregate(tree: HdcrTree, low: int, high: int) -> ReleaseRecord:
    """Answer the grid range ``(low, high]`` by summing a node cover.

    Grid units are bottom-layer intervals from the hierarchy start; the
    record's window is ``params.grid_filter(low, high)``, capped at the
    hierarchy end when the span is not a multiple of the top node width.
    Variance is ``node_count * 2 * scale**2`` for the per-node Laplace scale.
    """
    params = tree.params
    if high > params.grid_size():
        raise ValueError(f"range ({low}, {high}] ends beyond the {params.grid_size()}-unit grid")
    cover = cover_range(low, high, params.branching, params.height)
    noisy = 0.0
    exact = 0.0
    for node in cover:
        record = tree.nodes[node]
        noisy += record.noisy
        exact += record.exact
    variance = len(cover) * 2 * tree.noise.scale**2
    return ReleaseRecord(params.grid_filter(low, high), noisy, exact, len(cover), variance)


def check_prefix_cover(params: HdcrParams) -> None:
    """Raise RangeTooWideError if no cover can span the hierarchy's whole grid.

    A hierarchy that flat has no prefix release: its last prefixes
    cannot be answered.
    """
    grid = params.grid_size()
    if grid > params.branching**params.height:
        raise RangeTooWideError(f"a {params.height}-layer hierarchy cannot cover {grid} grid units")


def prefix_windows(params: HdcrParams) -> list[tuple[int, TimeRangeFilter]]:
    """Grid range ``(0, j]`` and the real range it answers, per grid unit ``j``.

    Raises RangeTooWideError before any work if no cover can span the grid.
    """
    check_prefix_cover(params)
    return [(j, params.grid_filter(0, j)) for j in range(1, params.grid_size() + 1)]


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
    dt = math.gcd(swcr.window, swcr.period)
    height = max(1, _ceil_log(branching, swcr.window // dt))
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
) -> tuple[ReleaseResult, HdcrTree]:
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
    result = ReleaseResult(tuple(
        aggregate(tree, i * swcr.period // dt, (i * swcr.period + swcr.window) // dt)
        for i in range(swcr.count)
    ))
    return result, tree


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
    dt = math.gcd(swcr.window, swcr.period)
    h = max(1, _ceil_log(c, swcr.window // dt))
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


def _ceil_log(base: int, value: int) -> int:
    """Smallest ``e`` with ``base**e >= value`` (exact integer search)."""
    if base < 2:
        raise ValueError(f"branching must be >= 2, got {base}")
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    e, power = 0, 1
    while power < value:
        power *= base
        e += 1
    return e


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
