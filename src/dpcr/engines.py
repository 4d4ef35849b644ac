"""Release engines: disjoint, sliding-window, and hierarchical releases.

A release is a ``ReleaseResult``: columns of window bounds, noisy and
exact values, and node counts for hierarchy aggregates; its
``ReleaseRecord``s are built only when read. One evaluator, ``_window_values``,
values a list of windows: it sums every window's exact linear-query
change in one array pass and perturbs it with Laplace noise read by
position from one stream per noise vector: query ``i`` of a disjoint or
sliding-window release takes draw ``i`` of ``named_stream(seed, "dcr")``
(or ``"swcr"``), and hierarchy node ``(layer, index)`` takes draw
``index`` of ``named_stream(seed, "hdcr", layer)``. A value's noise is
therefore a function of the seed, the stream name and its position only:
it does not depend on evaluation order, and extending a schedule or a
span leaves earlier values' noise unchanged. A release evaluates ``f``
once per mutation (``_change_terms``). Exact values ride along in the
in-memory results for verification; the writers drop them unless asked.
``write_rows`` writes every release row, Laplace or randomized response, CSV
or JSON Lines, from column texts a block at a time; ``float_texts`` every float.

Every value is one ordered sum (``_ordered_sums``): a run of table rows,
floats or vectors, added left to right from ``0.0``, overflowing to ``inf``
silently, as Python floats add. A window's run is its row slice of the log.
Every hierarchy, Laplace or survey, values each layer once into a
``node_table``: one row per node, layer after layer, each layer's rows
sliced from the log by one ``np.searchsorted``. ``cover_sums`` answers all
of a release's grid ranges at once: one ``cover_range`` call finds every
cover, whose node rows, in cover order, are the range's run, so a sum's
bits are fixed by the range alone. No prefix cover climbs above the first
one-node layer, so a prefix release values only the layers up to it
(``check_prefix_cover``); its header still accounts every layer.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import chain, repeat
from typing import IO, Callable, Iterable, Mapping, Sequence

import numpy as np

from .accounting import HdcrParams, ReleaseSchedule, SwcrParams
from .changelog import (
    BLOCK_LINES,
    NEG_INF,
    AtMostK,
    Changelog,
    Hybrid,
    TimeBounded,
    TimeRangeFilter,
)
from .mechanisms import LinearQuerySpec, NoiseSpec, named_stream, perturb


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
    """Released values as columns, value ``i`` over ``(starts[i], ends[i]]`` (Python ints
    or a ``-inf`` start). Aggregates carry ``node_count``, and nominal variance
    ``node_count * node_variance``. ``records`` are built when first read.
    """

    starts: Sequence[float]
    ends: Sequence[int]
    noisy: Sequence[float]
    exact: Sequence[float]
    node_count: Sequence[int] | None = None
    node_variance: float | None = None

    @cached_property
    def records(self) -> tuple[ReleaseRecord, ...]:
        windows = map(TimeRangeFilter, self.starts, self.ends)
        if self.node_count is None:
            return tuple(map(ReleaseRecord, windows, self.noisy, self.exact))
        variances = [n * self.node_variance for n in self.node_count]
        return tuple(map(ReleaseRecord, windows, self.noisy, self.exact, self.node_count,
                         variances))


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
    return _run_windows(log, spec, schedule.windows(), noise, "dcr")


def run_swcr(
    log: Changelog,
    params: SwcrParams,
    spec: LinearQuerySpec,
    noise: NoiseSpec,
) -> ReleaseResult:
    """Sliding-window release: query ``i`` reads ``(t_i - window, t_i]``."""
    return _run_windows(log, spec, params.windows(), noise, "swcr")


def _run_windows(
    log: Changelog, spec: LinearQuerySpec, windows: tuple[Sequence[float], Sequence[int]],
    noise: NoiseSpec, stream: str,
) -> ReleaseResult:
    """One value per window ``(starts[i], ends[i]]``, valued by ``_window_values``."""
    noisy, exact = _window_values(_change_terms(log, spec), *map(log.ranks, windows), noise, stream)
    return ReleaseResult(*windows, noisy.tolist(), exact.tolist())


def _change_terms(log: Changelog, spec: LinearQuerySpec) -> np.ndarray:
    """``-f(prev)`` and ``+f(new)`` of every mutation, interleaved in log order."""
    terms = np.empty(2 * len(log))
    terms[0::2] = -spec.evaluate_column(log.prev, log.has_prev)
    terms[1::2] = spec.evaluate_column(log.new, log.has_new)
    return terms


def _window_values(
    terms: np.ndarray, first: np.ndarray, stop: np.ndarray, noise: NoiseSpec, *stream: int | str,
) -> tuple[np.ndarray, np.ndarray]:
    """The noisy and exact values of the windows of rows ``first[i]:stop[i]``, in order.

    A window's exact change is the ``_ordered_sums`` run of its ``terms``, two per row
    (``Changelog.ranks``), so it equals ``linear_query_change(log.filter(window), spec)``
    bit for bit. Window ``i`` is perturbed with draw ``i`` of ``(seed, *stream)``.
    """
    exact = _ordered_sums(terms, 2 * first, 2 * (stop - first))
    return perturb(exact, noise, named_stream(noise.seed, *stream)), exact


# Values gathered into one padded block at a time, however many and however long the
# runs are: sliding windows overlap, so their lengths can add up to far more than the
# log. A block's float arrays take 64 KiB each, or one row where a row is wider.
_GATHER_TERMS = 1 << 13


def _ordered_sums(
    table: np.ndarray, starts: np.ndarray, lengths: np.ndarray, index: np.ndarray | None = None,
) -> np.ndarray:
    """The sum of each run ``rows[start:start + length]`` of float or vector rows, added left
    to right from ``0.0``, where ``rows`` is ``table``, or ``table[index]`` if given.

    Runs are taken longest first, in groups of as many as fit ``_GATHER_TERMS`` values,
    counting a row's width, once padded to the group's longest (at least one run). A group
    is gathered into a ``length x runs`` block padded with ``0.0`` and summed by one
    ``np.add.accumulate`` down its columns, which adds each column in order, where a
    reduction may add pairwise. A run too long for one block goes alone, in blocks of
    ``_GATHER_TERMS`` values (at least one row), each starting from the sum of the ones
    before. Empty runs sum to ``0.0``. Sums overflow silently, as Python floats add.
    """
    width = math.prod(table.shape[1:])
    order = np.argsort(-lengths, kind="stable")
    ordered = lengths[order].tolist()
    sums = np.zeros((len(starts), *table.shape[1:]))
    i = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while i < len(ordered) and ordered[i]:
            group = order[i:i + max(1, _GATHER_TERMS // (ordered[i] * width))]
            sums[group] = _padded_sums(table, index, starts[group], lengths[group], ordered[i])
            i += len(group)
    return sums


def _padded_sums(
    table: np.ndarray, index: np.ndarray | None, starts: np.ndarray, lengths: np.ndarray,
    longest: int,
) -> np.ndarray:
    """Sums of the runs of ``_ordered_sums``, gathered ``_GATHER_TERMS`` values at a time."""
    total = np.zeros((len(starts), *table.shape[1:]))
    step = max(1, _GATHER_TERMS // total.size)
    for first in range(0, longest, step):
        cols = np.arange(first, min(first + step, longest))[:, None]
        rows = starts + cols if index is None else index.take(starts + cols, mode="clip")
        block = table.take(rows, axis=0, mode="clip")
        block[cols >= lengths] = 0.0
        # the running sum starts at 0.0, so a run of -0.0 terms sums to 0.0
        block[0] += total
        total = np.add.accumulate(block, axis=0)[-1]
    return total


def cover_range(low, high, branching: int, height: int) -> np.ndarray:
    """The disjoint nodes exactly covering each grid range ``(low, high]``, one
    ``(range, layer, index)`` row per node: range after range, each left to right.

    ``low`` and ``high`` are integers or integer arrays, one range per element.
    Node ``(layer, j)`` spans ``(j * branching**layer, (j+1) * branching**layer]``
    grid units. One lockstep walk advances every range from ``low``: at each
    step, each range short of ``high`` takes the widest node aligned at its
    position that still ends by ``high``, so widths rise to the widest fitting
    layer, then fall, with at most ``branching - 1`` nodes per layer on each
    side. The steps' rows, stably sorted by range, keep each range's nodes in
    step order. The node widths stop at the widest any range can use, so no
    ``branching**height`` is built. The rows' ``.T`` is one contiguous ``(3, n)`` array.
    """
    lows, highs = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=np.int64))
                                        for x in (low, high)))
    bad = (lows < 0) | (highs <= lows)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"need 0 <= low < high, got ({lows[i]}, {highs[i]}]")
    widest, widths = int((highs - lows).max(initial=1)), [1]
    while len(widths) < height and widths[-1] * branching <= widest:
        widths.append(widths[-1] * branching)
    if len(widths) == height and widest > widths[-1] * branching:
        i = int(np.argmax(highs - lows))
        raise RangeTooWideError(
            f"range ({lows[i]}, {highs[i]}] is wider than {branching}**{height} grid units"
        )
    widths, pos, live = np.array(widths), lows.copy(), np.arange(len(lows))
    steps = [(live[:0],) * 3]  # an empty first step, so no ranges give no rows
    while live.size:
        at, rest = pos[live], highs[live] - pos[live]
        # the layers a node aligned at ``at`` may take, and those that fit ``rest``,
        # are each every layer up to some top
        layer = np.minimum(np.count_nonzero(at[:, None] % widths == 0, axis=1),
                           np.searchsorted(widths, rest, side="right")) - 1
        steps.append((live, layer, at // widths[layer]))
        pos[live] = at + widths[layer]
        live = live[widths[layer] < rest]
    cover = np.concatenate(steps, axis=1)  # one (range, layer, index) column per node
    del steps  # copied: not held through the sort and the gather
    return cover.take(np.argsort(cover[0], kind="stable"), axis=1).T


@dataclass(frozen=True)
class HdcrTree:
    """The ``node_table`` of a hierarchical release and its per-node Laplace noise.

    Row ``offsets[layer] + index`` of ``values`` is node ``(layer, index)``'s
    ``(noisy, exact)`` pair. ``nodes`` gives them as ``ReleaseRecord``s over their node
    windows, keyed by ``(layer, index)`` and built for the whole tree on
    first access.
    """

    params: HdcrParams
    noise: NoiseSpec
    values: np.ndarray
    offsets: np.ndarray

    @cached_property
    def nodes(self) -> Mapping[tuple[int, int], ReleaseRecord]:
        pairs = iter(self.values.tolist())
        return {
            (layer, index): ReleaseRecord(TimeRangeFilter(start, end), *next(pairs))
            for layer in range(self.params.height)
            for index, (start, end) in enumerate(zip(*self.params.windows(layer)))
        }


def node_table(
    params: HdcrParams, log: Changelog,
    value_layer: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Every node's value row, layer after layer in index order, and each layer's first row
    (then the row count). ``value_layer(layer, first, stop)`` values a layer's nodes from
    their rows of ``log``: a layer's windows are contiguous, so one ``Changelog.ranks`` of
    its first start and its ends gives every node's first row and the next one's.
    """
    table = None
    offsets = np.cumsum([0] + [params.layer_size(layer) for layer in range(params.height)])
    for layer in range(params.height):
        starts, ends = params.windows(layer)
        edges = log.ranks([starts[0], *ends])
        values = value_layer(layer, edges[:-1], edges[1:])
        if table is None:  # the bottom layer gives the row shape
            table = np.empty((offsets[-1], *values.shape[1:]), values.dtype)
        table[offsets[layer]:offsets[layer + 1]] = values
        del values  # no layer is held twice while the next is valued
    return table, offsets


def cover_sums(
    values: np.ndarray, offsets: np.ndarray, params: HdcrParams, low, high
) -> tuple[np.ndarray, np.ndarray]:
    """The sums of the ``node_table`` rows covering each grid range ``(low, high]``, and
    their node counts. One ``cover_range`` call finds every cover, and each range's node
    rows, floats or vectors, in cover order, are one ``_ordered_sums`` run, so a sum's bits
    are fixed by the range alone.
    """
    grid = offsets[1]  # the bottom layer has one node per grid unit
    if np.max(high) > grid:
        raise ValueError(f"a range ends at {np.max(high)}, beyond the {grid}-unit grid")
    ranges, layer, index = cover_range(low, high, params.branching, params.height).T
    sizes = np.bincount(ranges, minlength=np.broadcast(low, high).size)
    return _ordered_sums(values, np.cumsum(sizes) - sizes, sizes, offsets[layer] + index), sizes


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
    values, offsets = node_table(params, log, lambda layer, first, stop: np.column_stack(
        _window_values(terms, first, stop, noise_per_node, "hdcr", layer)
    ))
    return HdcrTree(params, noise_per_node, values, offsets)


def aggregate(tree: HdcrTree, low, high) -> ReleaseResult:
    """Answer each grid range ``(low, high]`` (integers or integer arrays) by summing a node
    cover (``cover_sums``). Grid units are the bottom-layer nodes, so a range's window runs
    from the start of node ``low`` to the end of node ``high - 1``. Variance is
    ``node_count * 2 * scale * scale`` for the per-node Laplace scale, ``inf`` past the
    float range.
    """
    sums, sizes = cover_sums(tree.values, tree.offsets, tree.params, low, high)
    starts, ends = tree.params.windows(0)
    lows, highs = (np.ravel(x).tolist() for x in np.broadcast_arrays(low, high))
    return ReleaseResult([starts[i] for i in lows], [ends[i - 1] for i in highs],
                         *sums.T.tolist(), sizes.tolist(), 2 * tree.noise.scale * tree.noise.scale)


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
    return aggregate(tree, 0, np.arange(1, params.grid_size() + 1))


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
    equivalent hierarchy, and one ``aggregate`` call answers them all; the
    expected answer equals the exact window change.
    """
    params = swcr_equivalent_hdcr_params(swcr, branching)
    tree = build_hdcr(log, params, spec, noise_per_node)
    dt = params.interval  # divides both the period and the window
    # window i is (first_release + i*period - window, first_release + i*period]
    # and the hierarchy starts at first_release - window
    low = np.arange(swcr.count) * (swcr.period // dt)
    return aggregate(tree, low, low + swcr.window // dt)


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
    """Columns ``query_index, t_start, t_end, noisy`` (+ ``exact`` if asked), for aggregates too."""
    _write_result(result, fh, "csv", include_exact)


def result_to_jsonl(
    result: ReleaseResult, fh: IO[str], include_exact: bool = False
) -> None:
    """One JSON object per query, as ``json.dumps`` writes it; aggregates add ``node_count``
    and ``variance`` before ``exact`` (if asked), and a ``-inf`` start is ``null``."""
    _write_result(result, fh, "jsonl", include_exact)


def _write_result(result: ReleaseResult, fh: IO[str], fmt: str, include_exact: bool) -> None:
    """A release's rows by ``write_rows``; a variance is formatted once per node count."""
    neg_inf = "null" if fmt == "jsonl" else "-inf"  # the text of a -inf start
    columns = {
        "query_index": lambda rows: map(str, range(len(result.noisy))[rows]),
        "t_start": lambda rows: [neg_inf if s == NEG_INF else str(s) for s in result.starts[rows]],
        "t_end": lambda rows: map(str, result.ends[rows]),
        "noisy": lambda rows: float_texts(result.noisy[rows], fmt),
    }
    if fmt == "jsonl" and result.node_count is not None:
        counts = list(set(result.node_count))
        variance = dict(zip(counts, float_texts([n * result.node_variance for n in counts], fmt)))
        columns["node_count"] = lambda rows: map(str, result.node_count[rows])
        columns["variance"] = lambda rows: map(variance.__getitem__, result.node_count[rows])
    if include_exact:
        columns["exact"] = lambda rows: float_texts(result.exact[rows], fmt)
    write_rows(fh, fmt, len(result.noisy), columns)


def write_rows(
    fh: IO[str], fmt: str, length: int, columns: Mapping[str, Callable[[slice], Iterable[str]]]
) -> None:
    """Write ``length`` rows as CSV or JSON Lines (``fmt``), one string per ``BLOCK_LINES``
    rows: ``columns`` maps each column's name to the value texts of a slice of its rows.
    CSV joins each row with ``,`` under a header ``csv.writer`` quotes; JSON Lines writes
    each row as ``json.dumps`` writes an object with the columns as keys, in order."""
    if fmt == "csv":
        csv.writer(fh, lineterminator="\n").writerow(columns)
        leads, end = ["", *[","] * (len(columns) - 1)], "\n"
    else:
        leads, end = [f", {json.dumps(name)}: " for name in columns], "}\n"
        leads[0] = "{" + leads[0][2:]
    for first in range(0, length, BLOCK_LINES):
        texts = (column(slice(first, first + BLOCK_LINES)) for column in columns.values())
        cells = chain.from_iterable(zip(map(repeat, leads), texts))
        fh.write("".join(chain.from_iterable(zip(*cells, repeat(end)))))


def float_texts(values: Sequence[float], fmt: str) -> list[str]:
    """``float.__repr__`` of each value; in JSON Lines, ``json.dumps``'s non-finite names."""
    values = np.asarray(values, dtype=float)
    texts = list(map(float.__repr__, values.tolist()))
    if fmt == "jsonl":
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[i] = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[texts[i]]
    return texts
