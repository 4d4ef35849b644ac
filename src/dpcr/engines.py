"""Release engines: disjoint, sliding-window, and hierarchical releases.

Every released value is a ``ReleaseRecord``: a disjoint or sliding-window
query, a hierarchy node (a disjoint query over a wider interval) and an
aggregate (a sum of nodes) alike. One evaluator, ``_window_values``,
values a list of windows: it sums every window's exact linear-query
change in one array pass and perturbs it with Laplace noise read by
position from one stream per noise vector: query ``i`` of a disjoint or
sliding-window release takes draw ``i`` of ``named_stream(seed, "dcr")``
(or ``"swcr"``), and hierarchy node ``(layer, index)`` takes draw
``index`` of ``named_stream(seed, "hdcr", layer)``. A value's noise is
therefore a function of the seed, the stream name and its position only:
it does not depend on evaluation order, and extending a schedule or a
span leaves earlier values' noise unchanged. A release evaluates ``f``
once per mutation (``_change_terms``), and each window adds the terms of
its contiguous row slice of the log left to right from ``0.0``. Exact
values ride along in the in-memory results for verification; the
serializers drop them unless explicitly asked.

Every hierarchy, Laplace or survey, values each layer once into a
``node_table``, one list per layer in index order, and answers a grid
range with ``cover_values``: the nodes ``cover_range`` finds in one
left-to-right walk. Sums add the nodes in that order, so a sum's bits
are fixed by the range alone. No prefix cover climbs above the first
one-node layer, so a prefix release values only the layers up to it
(``check_prefix_cover``); its header still accounts every layer. A
Laplace hierarchy keeps each node as a ``(noisy, exact)`` pair of
floats; ``HdcrTree`` builds its nodes' ``ReleaseRecord``s only when
they are first read.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property
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
    return _run_filters(log, spec, schedule.filters(), noise, "dcr")


def run_swcr(
    log: Changelog,
    params: SwcrParams,
    spec: LinearQuerySpec,
    noise: NoiseSpec,
) -> ReleaseResult:
    """Sliding-window release: query ``i`` reads ``(t_i - window, t_i]``."""
    return _run_filters(log, spec, params.filters(), noise, "swcr")


def _run_filters(
    log: Changelog, spec: LinearQuerySpec, filters: Sequence[TimeRangeFilter],
    noise: NoiseSpec, stream: str,
) -> ReleaseResult:
    """One record per filter, valued by ``_window_values``."""
    noisy, exact = _window_values(log, _change_terms(log, spec), filters, noise, stream)
    return ReleaseResult(tuple(map(ReleaseRecord, filters, noisy, exact)))


def _change_terms(log: Changelog, spec: LinearQuerySpec) -> np.ndarray:
    """``-f(prev)`` and ``+f(new)`` of every mutation, interleaved in log order."""
    terms = np.empty(2 * len(log))
    terms[0::2] = -spec.evaluate_column(log.prev, log.has_prev)
    terms[1::2] = spec.evaluate_column(log.new, log.has_new)
    return terms


def _window_values(
    log: Changelog, terms: np.ndarray, windows: Sequence[TimeRangeFilter],
    noise: NoiseSpec, *stream: int | str,
) -> tuple[list[float], list[float]]:
    """The noisy and exact values of every window, in order.

    A window's exact change adds the ``terms`` of its rows
    (``Changelog.rows``) one at a time from ``0.0``, so it equals
    ``linear_query_change(log.filter(window), spec)`` bit for bit.
    Window ``i`` is perturbed with draw ``i`` of ``(seed, *stream)``.
    """
    exact = _window_sums(terms, log.rows(windows))
    noisy = perturb(exact, noise, named_stream(noise.seed, *stream))
    return noisy.tolist(), exact.tolist()


# Terms gathered into one padded block at a time, however many and however
# long the windows are: sliding windows overlap, so their lengths can add up
# to far more than the log. A block's float arrays take 64 KiB each.
_GATHER_TERMS = 1 << 13


def _window_sums(terms: np.ndarray, rows: Sequence[slice]) -> np.ndarray:
    """Each row slice's terms, two per row, added left to right from ``0.0``.

    Windows are taken longest first, in groups of as many as fit
    ``_GATHER_TERMS`` terms once padded to the group's longest (at least
    one). A group is gathered into a ``length x windows`` block padded
    with ``0.0`` and summed by one ``np.add.accumulate`` down its columns,
    which adds each column in order, where a reduction may add pairwise. A
    window longer than ``_GATHER_TERMS`` goes alone, in blocks of that
    many terms, each block starting from the sum of the ones before.
    Empty windows sum to ``0.0``.
    """
    starts = 2 * np.array([r.start for r in rows], dtype=np.int64)
    lengths = 2 * np.array([r.stop for r in rows], dtype=np.int64) - starts
    order = np.argsort(-lengths, kind="stable")
    ordered = lengths[order].tolist()
    sums = np.zeros(len(rows))
    i = 0
    while i < len(ordered) and ordered[i]:
        group = order[i:i + max(1, _GATHER_TERMS // ordered[i])]
        sums[group] = _padded_sums(terms, starts[group], lengths[group], ordered[i])
        i += len(group)
    return sums


def _padded_sums(
    terms: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int
) -> np.ndarray:
    """Sums of ``terms[start:start + length]``, gathered ``_GATHER_TERMS`` at a time."""
    total = np.zeros(len(starts))
    step = max(1, _GATHER_TERMS // len(starts))
    for first in range(0, width, step):
        cols = np.arange(first, min(first + step, width))[:, None]
        block = np.where(cols < lengths, terms.take(starts + cols, mode="clip"), 0.0)
        # the running sum starts at 0.0, so a run of -0.0 terms sums to 0.0
        block[0] += total
        total = np.add.accumulate(block, axis=0)[-1]
    return total


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
    """The ``node_table`` of a hierarchical release and its per-node Laplace noise.

    ``layers[layer][index]`` is node ``(layer, index)``'s ``(noisy, exact)``
    pair. ``nodes`` gives them as ``ReleaseRecord``s over their node
    windows, keyed by ``(layer, index)`` and built for the whole tree on
    first access.
    """

    params: HdcrParams
    noise: NoiseSpec
    layers: Sequence[Sequence[tuple[float, float]]]

    @cached_property
    def nodes(self) -> Mapping[tuple[int, int], ReleaseRecord]:
        return {
            (layer, index): ReleaseRecord(window, noisy, exact)
            for layer, values in enumerate(self.layers)
            for index, (window, (noisy, exact)) in enumerate(
                zip(self.params.layer_filters(layer), values)
            )
        }


def node_table(
    params: HdcrParams, value_layer: Callable[[int, list[TimeRangeFilter]], Iterable[V]]
) -> list[list[V]]:
    """Every node's value, one list per layer, bottom first, in index order.

    ``value_layer(layer, windows)`` values a layer's node windows
    (``HdcrParams.layer_filters``) in index order; the last may be
    truncated at the hierarchy end.
    """
    return [list(value_layer(layer, params.layer_filters(layer))) for layer in range(params.height)]


def cover_values(
    layers: Sequence[Sequence[V]], params: HdcrParams, low: int, high: int
) -> list[V]:
    """The values of the nodes covering grid range ``(low, high]``, left to right."""
    grid = len(layers[0])  # the bottom layer has one node per grid unit
    if high > grid:
        raise ValueError(f"range ({low}, {high}] ends beyond the {grid}-unit grid")
    return [layers[layer][index]
            for layer, index in cover_range(low, high, params.branching, params.height)]


def build_hdcr(
    log: Changelog,
    params: HdcrParams,
    spec: LinearQuerySpec,
    noise_per_node: NoiseSpec,
) -> HdcrTree:
    """Value every node of the hierarchy over the changelog, one layer at a time.

    Each layer is one ``_window_values`` call over its node windows: node
    ``(layer, index)`` takes draw ``index`` of
    ``named_stream(seed, "hdcr", layer)``. No ``ReleaseRecord`` is built
    here; ``HdcrTree.nodes`` builds them when read.
    """
    terms = _change_terms(log, spec)
    layers = node_table(params, lambda layer, windows: zip(*_window_values(
        log, terms, windows, noise_per_node, "hdcr", layer
    )))
    return HdcrTree(params, noise_per_node, layers)


def aggregate(tree: HdcrTree, low: int, high: int) -> ReleaseRecord:
    """Answer the grid range ``(low, high]`` by summing a node cover.

    Grid units are bottom-layer intervals from the hierarchy start; the
    record's window is ``params.grid_filter(low, high)``, capped at the
    hierarchy end when the span is not a multiple of the top node width.
    Variance is ``node_count * 2 * scale**2`` for the per-node Laplace scale.
    """
    cover = cover_values(tree.layers, tree.params, low, high)
    noisy = 0.0
    exact = 0.0
    for node_noisy, node_exact in cover:
        noisy += node_noisy
        exact += node_exact
    variance = len(cover) * 2 * tree.noise.scale**2
    return ReleaseRecord(tree.params.grid_filter(low, high), noisy, exact, len(cover), variance)


def check_prefix_cover(params: HdcrParams) -> HdcrParams:
    """The hierarchy cut to the layers its prefix covers read; RangeTooWideError if too flat.

    No cover climbs above the first one-node layer, ``len(widths)``: the layer
    above is wider than the grid. Only a hierarchy without it can be too flat
    for its last prefixes, and builds ``branching**height``, then small.
    """
    read, grid = len(params.widths) + 1, params.grid_size()
    if params.height < read and grid > params.branching**params.height:
        raise RangeTooWideError(f"a {params.height}-layer hierarchy cannot cover {grid} grid units")
    return replace(params, height=min(params.height, read))


def run_hdcr(
    log: Changelog, params: HdcrParams, spec: LinearQuerySpec, noise_per_node: NoiseSpec
) -> ReleaseResult:
    """Hierarchical release: one prefix aggregate per bottom-layer endpoint.

    Values only the layers a cover reads; RangeTooWideError before any work if too flat.
    """
    params = check_prefix_cover(params)
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
    """One JSON object per query; aggregates carry node_count and variance.

    Each row is written as ``json.dumps`` would write its object, keys in
    the order below, without building the object.
    """
    for i, r in enumerate(result.records):
        start = "null" if r.window.start == float("-inf") else int(r.window.start)
        row = (f'{{"query_index": {i}, "t_start": {start}, "t_end": {r.window.end}, '
               f'"noisy": {_json_float(r.noisy)}')
        if r.node_count is not None:
            row += f', "node_count": {r.node_count}, "variance": {_json_float(r.variance)}'
        if include_exact:
            row += f', "exact": {_json_float(r.exact)}'
        fh.write(row + "}\n")


def _json_float(x: float) -> str:
    """``json.dumps(x)``: the float's repr, a non-finite value by its JavaScript name."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _start_repr(start: float) -> str:
    return "-inf" if start == float("-inf") else str(int(start))
