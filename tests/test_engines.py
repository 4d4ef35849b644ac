import csv
import hashlib
import io
import json
import math
import os
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from dpcr.accounting import HdcrParams, ReleaseSchedule, SwcrParams
from dpcr.changelog import (
    INT64_MAX,
    INT64_MIN,
    AtMostK,
    Changelog,
    Hybrid,
    TimeBounded,
    TimeRangeFilter,
    delete,
    insert,
    modify,
)
from dpcr.engines import (
    RangeTooWideError,
    ReleaseRecord,
    ReleaseResult,
    UnsupportedConstraintError,
    aggregate,
    build_hdcr,
    check_prefix_cover,
    compare_hdcr_swcr,
    cover_range,
    cover_sums,
    derive_swcr_from_hdcr,
    node_table,
    result_to_csv,
    result_to_jsonl,
    run_dcr,
    run_hdcr,
    run_swcr,
    swcr_equivalent_hdcr_params,
    _GATHER_TERMS,
    _window_values,
)
from dpcr.mechanisms import (
    LinearQuerySpec,
    NoiseSpec,
    linear_query_change,
    named_stream,
    sensitivity,
)
from dpcr.oracles import min_cover_oracle, snapshot_oracle

from conftest import changelogs

SPEC = LinearQuerySpec("identity", 0.0, 100.0)
NOISE = NoiseSpec(1.0, sensitivity(SPEC), seed=13)


def small_log() -> Changelog:
    return Changelog.from_unsorted(
        [
            insert("a", 1, 10.0),
            insert("b", 4, 20.0),
            modify("a", 5, 10.0, 30.0),
            insert("c", 9, 5.0),
            modify("b", 11, 20.0, 0.0),
        ]
    )


class TestRunDcr:
    def test_empty_changelog_gives_zero_exact(self):
        result = run_dcr(Changelog(()), ReleaseSchedule.uniform(2, 2, 5), SPEC, NOISE)
        assert result.exact == [0.0] * 5

    def test_single_mutation_hits_one_query(self):
        log = Changelog([insert("x", 5, 50.0)])
        result = run_dcr(log, ReleaseSchedule((3, 6, 9)), SPEC, NOISE)
        assert result.exact == [0.0, 50.0, 0.0]

    def test_cumulative_exact_equals_snapshot_sum(self):
        log = small_log()
        result = run_dcr(log, ReleaseSchedule.uniform(3, 3, 5), SPEC, NOISE)
        running = 0.0
        for record in result.records:
            running += record.exact
            assert running == pytest.approx(
                snapshot_oracle(log, record.window.end, SPEC), abs=1e-9
            )

    def test_window_bounds_compare_as_exact_integers(self):
        # 2**53 + 1 rounds to 2**53 as a float64, which would put it in the first window
        log = Changelog([insert("x", 2**53 + 1, 50.0)])
        result = run_dcr(log, ReleaseSchedule((2**53, 2**53 + 2)), SPEC, NOISE)
        assert result.exact == [0.0, 50.0]

    def test_negative_zero_values_sum_to_positive_zero(self):
        # a change summed from 0.0 is never -0.0, even when every term is -0.0
        log = Changelog([insert("x", 1, -0.0), insert("y", 1, -0.0)])
        spec = LinearQuerySpec("identity", -1.0, 1.0)
        result = run_dcr(log, ReleaseSchedule((2,)), spec, NOISE)
        assert repr(result.records[0].exact) == repr(linear_query_change(log, spec)) == "0.0"

    def test_overflowing_sum_is_inf_without_a_warning(self):
        # a window adds its terms as Python floats do: past the float range the sum is
        # inf, silently (the suite turns warnings into errors)
        log = Changelog([insert("x", 1, 1e308), insert("y", 1, 1e308)])
        spec = LinearQuerySpec("identity", 0.0, 1e308)
        result = run_dcr(log, ReleaseSchedule((2,)), spec, NOISE)
        assert result.exact == [linear_query_change(log, spec)] == [math.inf]

    def test_deterministic_per_seed(self):
        result = run_dcr(small_log(), ReleaseSchedule.uniform(3, 3, 5), SPEC, NOISE)
        again = run_dcr(small_log(), ReleaseSchedule.uniform(3, 3, 5), SPEC, NOISE)
        assert result.noisy == again.noisy
        other = run_dcr(
            small_log(), ReleaseSchedule.uniform(3, 3, 5), SPEC,
            NoiseSpec(1.0, sensitivity(SPEC), seed=14),
        )
        assert result.noisy != other.noisy


class TestRunSwcr:
    def test_tumbling_window_equals_uniform_dcr_exacts(self):
        log = small_log()
        swcr = run_swcr(log, SwcrParams(window=3, period=3, first_release=3, count=5), SPEC, NOISE)
        dcr = run_dcr(log, ReleaseSchedule.uniform(3, 3, 5), SPEC, NOISE)
        # first DCR query reads everything before t=3, the first window only (0, 3]
        assert swcr.exact[1:] == dcr.exact[1:]
        assert [(r.window.start, r.window.end) for r in swcr.records[1:]] == [
            (r.window.start, r.window.end) for r in dcr.records[1:]
        ]

    def test_single_mutation_hits_two_windows(self):
        log = Changelog([insert("x", 15, 50.0)])
        params = SwcrParams(window=14, period=7, first_release=14, count=6)
        result = run_swcr(log, params, SPEC, NOISE)
        assert [r.exact for r in result.records] == [0.0, 50.0, 50.0, 0.0, 0.0, 0.0]

    def test_all_zero_changelog(self):
        params = SwcrParams(window=4, period=2, first_release=4, count=4)
        result = run_swcr(Changelog(()), params, SPEC, NOISE)
        assert result.exact == [0.0] * 4


def value_specs(log: Changelog) -> list[LinearQuerySpec]:
    """All four value functions, with bounds that clamp some of the log's values."""
    values = sorted({v for m in log for v in (m.prev_value, m.new_value) if v is not None})
    table = {v: (i % 5) * 1.5 - 3.0 for i, v in enumerate(values)}
    return [
        LinearQuerySpec("identity", 5.0, 60.0),
        LinearQuerySpec("indicator", 0.0, 1.0, threshold=40.0),
        LinearQuerySpec("second_moment", 10.0, 5000.0),
        LinearQuerySpec("table", -2.0, 2.0, table=table),
    ]


def reference_exacts(log: Changelog, windows, spec: LinearQuerySpec) -> list[str]:
    """``linear_query_change`` over a full scan of the log per window ``(starts[i], ends[i]]``
    of a ``(starts, ends)`` pair, as reprs."""
    return [
        repr(linear_query_change([m for m in log.mutations if start < m.time <= end], spec))
        for start, end in zip(*windows)
    ]


class TestReferenceScan:
    """Exact values equal, bit for bit, a full scan of the log per window."""

    @given(changelogs(), st.lists(st.integers(-10, 40), min_size=1, max_size=6, unique=True))
    def test_dcr(self, log, ticks):
        schedule = ReleaseSchedule(tuple(sorted(ticks)))  # first window starts at -inf
        for spec in value_specs(log):
            result = run_dcr(log, schedule, spec, NOISE)
            got = [repr(r.exact) for r in result.records]
            assert got == reference_exacts(log, schedule.windows(), spec)

    @given(changelogs(), st.integers(1, 12), st.integers(1, 12), st.integers(-10, 40),
           st.integers(1, 8))
    def test_swcr(self, log, window, period, first, count):
        params = SwcrParams(window=window, period=period, first_release=first, count=count)
        for spec in value_specs(log):
            result = run_swcr(log, params, spec, NOISE)
            got = [repr(r.exact) for r in result.records]
            assert got == reference_exacts(log, params.windows(), spec)

    @given(changelogs(), st.integers(1, 4), st.integers(2, 3), st.integers(-10, 40),
           st.integers(1, 30), st.integers(1, 5))
    def test_hdcr_nodes(self, log, height, branching, start, span, interval):
        params = HdcrParams(height, branching, start, span, interval)
        for spec in value_specs(log):
            tree = build_hdcr(log, params, spec, NOISE)
            keys = sorted(tree.nodes)
            got = [repr(tree.nodes[k].exact) for k in keys]
            windows = [[params.windows(layer)[side][index] for layer, index in keys]
                       for side in (0, 1)]
            assert got == reference_exacts(log, windows, spec)


def insert_log(times) -> Changelog:
    """One insertion of a new entry per sorted time: many rows, built from columns."""
    n = len(times)
    return Changelog.from_columns(
        np.asarray(times, dtype=np.int64), np.arange(n), [f"e{i:07d}" for i in range(n)],
        np.zeros(n), np.ones(n), np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
    )


def cumsum_exacts(log: Changelog, terms: np.ndarray, windows) -> list[str]:
    """Each window's terms summed by its own ``np.cumsum``, plus ``0.0``, as reprs."""
    return [
        repr(float(np.cumsum(terms[2 * first:2 * stop])[-1]) + 0.0) if first < stop else "0.0"
        for first, stop in zip(*map(log.ranks, windows))
    ]


# finite terms small enough that no sum of 80 of them overflows, with signed
# zeros and subnormals drawn often
TERMS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 0.1, 1e300]),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
)


@st.composite
def windows(draw, horizon: int):
    """Arbitrary, often empty and overlapping ranges, or a sliding-window release's, as one
    ``(starts, ends)`` pair."""
    if draw(st.booleans()):
        params = SwcrParams(draw(st.integers(1, 12)), draw(st.integers(1, 6)),
                            draw(st.integers(-5, horizon + 5)), draw(st.integers(1, 12)))
        return params.windows()
    bounds = st.tuples(st.integers(-5, horizon + 5), st.integers(1, 12))
    drawn = draw(st.lists(bounds, min_size=1, max_size=12))
    return [start for start, _ in drawn], [start + width for start, width in drawn]


class TestWindowValues:
    """``_window_values`` sums all windows at once, bit for bit as one scan per window."""

    @given(st.lists(st.integers(0, 30), max_size=40), st.data())
    def test_exact_equals_per_window_cumsum(self, times, data):
        log = insert_log(sorted(times))
        terms = np.array(data.draw(st.lists(TERMS, min_size=2 * len(log), max_size=2 * len(log))))
        if data.draw(st.booleans()):
            terms = -np.abs(terms) * 0.0  # every term -0.0
        drawn = data.draw(windows(30))
        values = _window_values(terms, *map(log.ranks, drawn), NOISE, "test")
        noisy, exact = (x.tolist() for x in values)
        assert [repr(x) for x in exact] == cumsum_exacts(log, terms, drawn)
        draws = named_stream(NOISE.seed, "test").laplace(0.0, NOISE.scale, len(drawn[1]))
        assert noisy == [x + d for x, d in zip(exact, draws.tolist())]

    def test_one_full_window_among_many_empty_ones(self):
        # 8e5 terms, many times what one gather holds, in the first window;
        # 10^4 windows after the last row hold none
        n = 400_000
        log = insert_log(np.arange(1, n + 1))
        terms = np.random.default_rng(7).standard_normal(2 * n)
        pair = [0, *range(n, n + 10**4)], [n, *range(n + 1, n + 10**4 + 1)]
        tracemalloc.start()
        try:
            _, exact = _window_values(terms, *map(log.ranks, pair), NOISE, "test")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [repr(x) for x in exact.tolist()] == cumsum_exacts(log, terms, pair)
        # a windows x longest-window block would take 64 GB, one gather of the
        # whole first window 6.4 MB per float array
        assert peak < 4 * 2**20
        assert 2 * n > 10 * _GATHER_TERMS

    def test_long_overlapping_windows(self):
        # 1001 windows of 10^4 rows each, 2 * 10^7 terms in all
        n = 20_000
        log = insert_log(np.arange(1, n + 1))
        terms = np.random.default_rng(8).standard_normal(2 * n)
        pair = SwcrParams(window=10_000, period=10, first_release=10_000, count=1001).windows()
        tracemalloc.start()
        try:
            _, exact = _window_values(terms, *map(log.ranks, pair), NOISE, "test")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [repr(x) for x in exact.tolist()] == cumsum_exacts(log, terms, pair)
        assert peak < 4 * 2**20  # a windows x longest-window block would take 160 MB


# times at and next to both ends of int64, and near zero
EDGE_TIMES = st.sampled_from([INT64_MIN, INT64_MIN + 1, -5, 0, 3, INT64_MAX - 1, INT64_MAX])
# hierarchy starts at, next to and beyond both ends of int64
EDGE_STARTS = st.sampled_from([-(2**64), INT64_MIN - 3, INT64_MIN, -7, 0, INT64_MAX - 20,
                               INT64_MAX, 2**63 + 1, 2**64])


def bisected_rows(log: Changelog, windows) -> list[tuple[int, int]]:
    """Reference for ``Changelog.ranks`` of window starts and ends: two bisections per window
    of a ``(starts, ends)`` pair over the times as Python ints, so every bound, of any size
    or ``-inf``, compares exactly."""
    ticks = log.times.tolist()
    return [(bisect_right(ticks, start), bisect_right(ticks, end)) for start, end in zip(*windows)]


class TestRowSlices:
    """Row slices from one clamped ``np.searchsorted`` equal the bisected ones."""

    @given(st.lists(st.one_of(EDGE_TIMES, st.integers(-20, 20), st.integers(INT64_MIN, INT64_MAX)),
                    max_size=30),
           st.lists(st.tuples(st.one_of(st.just(float("-inf")), EDGE_STARTS, st.integers(-20, 20),
                                        st.integers(-(2**65), 2**65)),
                              st.one_of(st.integers(1, 5), st.integers(1, 2**66))), max_size=12))
    def test_rows_equal_the_bisected_rows(self, times, bounds):
        log = insert_log(sorted(times))
        windows = ([start for start, _ in bounds],
                   [(0 if start == float("-inf") else start) + width for start, width in bounds])
        got = map(log.ranks, windows)
        assert list(zip(*(rows.tolist() for rows in got))) == bisected_rows(log, windows)

    @given(st.integers(1, 6), st.integers(2, 4), st.one_of(EDGE_STARTS, st.integers(-(2**64), 2**64)),
           st.one_of(st.integers(1, 9), st.integers(1, 2**65)), st.integers(1, 40), st.data())
    def test_node_table_slices_equal_the_rows_of_the_layer_windows(
        self, height, branching, start, interval, nodes, data
    ):
        span = interval * (nodes - 1) + data.draw(st.integers(1, interval))
        # times at the int64 ends, and on and around the node edges that fit int64
        near = st.integers(-3, 3 * interval + 3).map(lambda d: start + d)
        times = data.draw(st.lists(st.one_of(EDGE_TIMES, near.filter(
            lambda t: INT64_MIN <= t <= INT64_MAX)), max_size=30))
        log = insert_log(sorted(times))
        params = HdcrParams(height, branching, start, span, interval)
        # each node's value is its own row slice
        table, offsets = node_table(params, log, lambda layer, first, stop: np.column_stack(
            [first, stop]))
        for layer in range(height):
            windows = params.windows(layer)
            got = [tuple(rows) for rows in table[offsets[layer]:offsets[layer + 1]].tolist()]
            assert got == list(zip(*(rows.tolist() for rows in map(log.ranks, windows))))
            assert got == bisected_rows(log, windows)


class TestNoiseLayout:
    """Noise is read by position from one stream per release or hierarchy layer."""

    def test_extending_a_dcr_schedule_keeps_earlier_noise(self):
        short = run_dcr(small_log(), ReleaseSchedule.uniform(3, 3, 3), SPEC, NOISE)
        long = run_dcr(small_log(), ReleaseSchedule.uniform(3, 3, 6), SPEC, NOISE)
        added = [r.noisy - r.exact for r in long.records]
        assert added[:3] == [r.noisy - r.exact for r in short.records]

    @pytest.mark.parametrize("stream", ["dcr", "swcr"])
    def test_query_i_takes_draw_i_of_the_release_stream(self, stream):
        if stream == "dcr":
            result = run_dcr(small_log(), ReleaseSchedule.uniform(3, 3, 5), SPEC, NOISE)
        else:
            params = SwcrParams(window=4, period=2, first_release=4, count=5)
            result = run_swcr(small_log(), params, SPEC, NOISE)
        draws = named_stream(NOISE.seed, stream).laplace(0.0, NOISE.scale, 5)
        assert [r.noisy for r in result.records] == [
            r.exact + draws[i] for i, r in enumerate(result.records)
        ]

    @pytest.mark.parametrize("span", [12, 16, 40])
    def test_hdcr_node_takes_its_index_in_the_layer_stream(self, span):
        # draws are read from a fixed-length prefix, so the same draw serves
        # a node whatever the span, and so whatever the layer's size
        params = HdcrParams(height=3, branching=2, start=0, span=span, interval=2)
        tree = build_hdcr(small_log(), params, SPEC, NOISE)
        for layer in range(params.height):
            draws = named_stream(NOISE.seed, "hdcr", layer).laplace(0.0, NOISE.scale, 64)
            for index in range(params.layer_size(layer)):
                node = tree.nodes[layer, index]
                assert node.noisy == node.exact + draws[index]
                assert type(node.noisy) is float


def reference_cover(low: int, high: int, branching: int, height: int) -> list[tuple[int, int]]:
    """The cover of ``(low, high]`` by one left-to-right walk, one range at a time.

    At each position it takes the widest node aligned there that still ends
    by ``high``. The range must be at most ``branching**height`` wide.
    """
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
    return cover


def cover_nodes(cover: np.ndarray) -> list[list[tuple[int, int]]]:
    """Each range's ``(layer, index)`` nodes, left to right."""
    return [[(layer, index) for _, layer, index in rows]
            for _, rows in groupby(cover.tolist(), key=itemgetter(0))]


@st.composite
def grid_ranges(draw):
    """Branching, height, and ranges with ``low > 0`` up to ``branching**height`` wide."""
    branching = draw(st.integers(2, 5))
    height = draw(st.one_of(st.integers(1, 8), st.integers(1, 10**12)))
    widest = min(branching ** min(height, 40), 2**61)  # grid units fit int64
    ranges = draw(st.lists(st.tuples(
        st.one_of(st.integers(1, 200), st.integers(1, 2**40)),
        st.one_of(st.integers(1, 200), st.integers(1, widest), st.just(widest)),
    ).map(lambda r: (r[0], r[0] + min(r[1], widest))), min_size=1, max_size=12))
    return branching, height, ranges


class TestCoverRange:
    def test_unit_range_is_one_bottom_node(self):
        assert cover_nodes(cover_range(3, 4, 2, 4)) == [[(0, 3)]]

    def test_reference_case(self):
        assert len(cover_range(0, 99, 10, 2)) == 18

    def test_too_wide_rejected(self):
        with pytest.raises(RangeTooWideError):
            cover_range(0, 17, 2, 4)
        with pytest.raises(RangeTooWideError, match=r"\(1, 18\]"):
            cover_range([0, 1], [16, 18], 2, 4)

    @given(grid_ranges())
    def test_walk_equals_the_reference_walk(self, case):
        """Every range's nodes, in order, are the one-range walk's, at any height."""
        branching, height, ranges = case
        lows, highs = zip(*ranges)
        got = cover_nodes(cover_range(lows, highs, branching, height))
        assert got == [reference_cover(low, high, branching, height) for low, high in ranges]
        assert got[0] == cover_nodes(cover_range(lows[0], highs[0], branching, height))[0]

    def test_tall_hierarchy_builds_no_power_of_its_height(self):
        # branching**height alone would be a 125 GB integer
        assert cover_nodes(cover_range(5, 9, 2, 10**12)) == [[(0, 5), (1, 3), (0, 8)]]

    @pytest.mark.parametrize("branching,height,top", [(2, 4, 16), (3, 3, 27), (10, 2, 100)])
    def test_exhaustive_small_universes(self, branching, height, top):
        minima = {high: min_cover_oracle(high, branching, height) for high in range(1, top + 1)}
        ranges = [(low, high) for low in range(top) for high in range(low + 1, top + 1)]
        covers = cover_nodes(cover_range(*zip(*ranges), branching, height))
        for (low, high), cover in zip(ranges, covers):
            # left to right as returned: aggregates add in this order
            segments = [(i * branching**lv, (i + 1) * branching**lv) for lv, i in cover]
            assert segments[0][0] == low
            assert segments[-1][1] == high
            assert all(a[1] == b[0] for a, b in zip(segments, segments[1:]))
            width = high - low
            levels = 0  # ceil(log_c(width)), in integers
            while branching**levels < width:
                levels += 1
            bound = 1 if width == 1 else 2 * (branching - 1) * levels
            assert len(cover) <= bound
            assert len(cover) >= minima[high][low]


# node values for the sums, special ones drawn often
NODE_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 0.1, 1e308]),
    st.floats(),
)


class TestCoverSums:
    """A lockstep sum adds each range's cover rows left to right from ``0.0``."""

    @given(st.integers(2, 5), st.integers(1, 60), st.integers(0, 3), st.data())
    def test_sums_equal_a_left_to_right_sum(self, branching, span, width, data):
        params = HdcrParams(len(HdcrParams(1, branching, 0, span, 1).widths) + 1,
                            branching, 0, span, 1)
        nodes = sum(params.layer_size(layer) for layer in range(params.height))
        offsets = np.cumsum([0] + [params.layer_size(layer) for layer in range(params.height)])
        shape = (nodes, width) if width else (nodes,)  # a width gives vector rows, as RR has
        values = np.array(data.draw(st.lists(NODE_VALUES, min_size=int(np.prod(shape)),
                                             max_size=int(np.prod(shape))))).reshape(shape)
        ranges = data.draw(st.lists(
            st.integers(0, span - 1).flatmap(lambda low: st.tuples(st.just(low), st.integers(low + 1, span))),
            min_size=1, max_size=10,
        ))
        self.assert_left_to_right(values, offsets, params, *zip(*ranges))

    def test_rows_wider_than_a_gather(self):
        # a 91-label survey row: 91 values, then 91 x 91 covariances, 8,372 columns in all;
        # every 7th column holds 1e308, so a cover of two or more nodes overflows to inf
        # there, without a warning
        params = HdcrParams(4, 2, 0, 8, 1)
        offsets = np.cumsum([0] + [params.layer_size(layer) for layer in range(params.height)])
        values = np.random.default_rng(3).standard_normal((offsets[-1], 91 + 91 * 91))
        values[:, ::7] = 1e308
        assert values.shape[1] > _GATHER_TERMS
        lows, highs = [0, 0, 1, 3, 0], [8, 7, 6, 5, 3]
        self.assert_left_to_right(values, offsets, params, lows, highs)
        assert np.isinf(cover_sums(values, offsets, params, 0, 7)[0]).any()

    @staticmethod
    def assert_left_to_right(values, offsets, params, lows, highs):
        sums, sizes = cover_sums(values, offsets, params, lows, highs)
        for low, high, got, size in zip(lows, highs, sums, sizes.tolist()):
            want = np.zeros(values.shape[1:])
            cover = reference_cover(low, high, params.branching, params.height)
            with np.errstate(over="ignore", invalid="ignore"):
                for layer, index in cover:
                    want = want + values[offsets[layer] + index]
            assert size == len(cover)
            # reprs are bit for bit, -0.0 included, except that every NaN reads nan
            assert list(map(repr, np.ravel(got).tolist())) == list(map(repr, np.ravel(want).tolist()))


class TestBuildHdcr:
    PARAMS = HdcrParams(height=3, branching=2, start=0, span=12, interval=2)

    def test_bottom_layer_equals_uniform_dcr_tail(self):
        log = small_log()
        tree = build_hdcr(log, self.PARAMS, SPEC, NOISE)
        grid = ReleaseSchedule.uniform(0, 2, self.PARAMS.layer_size(0) + 1)
        dcr = run_dcr(log, grid, SPEC, NOISE)
        # DCR query i+1 covers the same range as bottom node i
        for i in range(self.PARAMS.layer_size(0)):
            assert tree.nodes[0, i].exact == pytest.approx(dcr.records[i + 1].exact)

    def test_parent_exact_is_sum_of_children(self):
        tree = build_hdcr(small_log(), self.PARAMS, SPEC, NOISE)
        for layer in (1, 2):
            for index in range(self.PARAMS.layer_size(layer)):
                children = [
                    tree.nodes[layer - 1, j].exact
                    for j in range(
                        index * 2, min(index * 2 + 2, self.PARAMS.layer_size(layer - 1))
                    )
                ]
                assert tree.nodes[layer, index].exact == pytest.approx(
                    sum(children), abs=1e-12
                )

    def test_noise_is_per_node_and_seeded(self):
        tree_a = build_hdcr(small_log(), self.PARAMS, SPEC, NOISE)
        tree_b = build_hdcr(small_log(), self.PARAMS, SPEC, NOISE)
        other = build_hdcr(
            small_log(), self.PARAMS, SPEC, NoiseSpec(1.0, sensitivity(SPEC), seed=99)
        )
        for key, node in tree_a.nodes.items():
            assert node.noisy == tree_b.nodes[key].noisy
            assert node.noisy != other.nodes[key].noisy

    def test_truncated_tail_node(self):
        tree = build_hdcr(small_log(), self.PARAMS, SPEC, NOISE)
        assert tree.nodes[2, 1].window.end == 12

    def test_node_records_are_built_on_first_read(self):
        tree = build_hdcr(small_log(), self.PARAMS, SPEC, NOISE)
        aggregate(tree, 0, 5)
        assert "nodes" not in vars(tree)  # a release reads the node table only
        node = tree.nodes[1, 2]
        assert [node.noisy, node.exact] == tree.values[tree.offsets[1] + 2].tolist()
        starts, ends = self.PARAMS.windows(1)
        assert node.window == TimeRangeFilter(starts[2], ends[2])
        assert tree.nodes is tree.nodes
        assert len(tree.nodes) == len(tree.values) == tree.offsets[-1]


class TestAggregate:
    PARAMS = HdcrParams(height=4, branching=2, start=0, span=16, interval=1)

    def test_single_bottom_node(self):
        tree = build_hdcr(small_log(), self.PARAMS, SPEC, NOISE)
        agg = aggregate(tree, 4, 5).records[0]
        node = tree.nodes[0, 4]
        assert agg.noisy == node.noisy
        assert agg.node_count == 1

    def test_exact_part_matches_direct_change(self):
        log = small_log()
        tree = build_hdcr(log, self.PARAMS, SPEC, NOISE)
        lows, highs = [0, 1, 3, 5], [16, 11, 4, 13]
        for low, high, agg in zip(lows, highs, aggregate(tree, lows, highs).records):
            direct = linear_query_change(log.filter(TimeRangeFilter(low, high)), SPEC)
            assert agg.exact == pytest.approx(direct, abs=1e-9)
            assert agg.window == TimeRangeFilter(low, high)

    def test_variance_formula(self):
        tree = build_hdcr(small_log(), self.PARAMS, SPEC, NOISE)
        agg = aggregate(tree, 1, 11).records[0]
        assert agg.variance == pytest.approx(agg.node_count * 2 * NOISE.scale**2)
        # past the float range the variance is inf, as node_count * 2 * scale * scale is
        huge = run_hdcr(small_log(), HdcrParams(2, 2, 0, 4, 1), SPEC, NoiseSpec(1.0, 1e308, 1))
        assert [r.variance for r in huge.records] == [math.inf] * 4

    def test_range_beyond_grid_rejected(self):
        tree = build_hdcr(small_log(), self.PARAMS, SPEC, NOISE)
        with pytest.raises(ValueError):
            aggregate(tree, 0, 17)


class TestPrefixCover:
    @pytest.mark.parametrize(
        "branching,span,interval,read", [(2, 16, 1, 5), (3, 20, 2, 4), (2, 1, 3, 1)]
    )
    def test_cut_after_the_first_one_node_layer(self, branching, span, interval, read):
        for height, cut in [(10**12, read), (read + 1, read), (read, read)]:
            got = check_prefix_cover(HdcrParams(height, branching, 0, span, interval))
            assert got == HdcrParams(cut, branching, 0, span, interval)

    def test_too_flat_is_refused(self):
        assert check_prefix_cover(HdcrParams(4, 2, 0, 16, 1)).height == 4
        with pytest.raises(RangeTooWideError):
            check_prefix_cover(HdcrParams(3, 2, 0, 16, 1))

    @pytest.mark.parametrize("branching,span,interval", [(2, 16, 1), (3, 20, 2), (2, 13, 3)])
    def test_release_equals_the_whole_tree(self, branching, span, interval):
        params = HdcrParams(1, branching, 0, span, interval)
        params = HdcrParams(len(params.widths) + 50, branching, 0, span, interval)
        tree = build_hdcr(small_log(), params, SPEC, NOISE)  # every layer, none cut
        assert run_hdcr(small_log(), params, SPEC, NOISE).records == tuple(
            aggregate(tree, 0, j).records[0] for j in range(1, params.grid_size() + 1)
        )


class TestDeriveSwcr:
    def test_tumbling_case_uses_one_node_per_window(self):
        swcr = SwcrParams(window=4, period=4, first_release=4, count=3)
        params = swcr_equivalent_hdcr_params(swcr, branching=2)
        assert params.height == 1  # formula gives 0, floored to one layer
        result = derive_swcr_from_hdcr(small_log(), swcr, 2, NOISE, SPEC)
        assert [r.node_count for r in result.records] == [1, 1, 1]

    def test_two_bottom_nodes_per_window(self):
        swcr = SwcrParams(window=8, period=4, first_release=8, count=3)
        params = swcr_equivalent_hdcr_params(swcr, branching=2)
        assert (params.height, params.interval) == (1, 4)
        result = derive_swcr_from_hdcr(small_log(), swcr, 2, NOISE, SPEC)
        assert [r.node_count for r in result.records] == [2, 2, 2]

    def test_windows_match_direct_swcr_exacts(self):
        log = small_log()
        swcr = SwcrParams(window=6, period=2, first_release=6, count=4)
        derived = derive_swcr_from_hdcr(log, swcr, 2, NOISE, SPEC)
        direct = run_swcr(log, swcr, SPEC, NOISE)
        for a, b in zip(derived.records, direct.records):
            assert a.exact == pytest.approx(b.exact, abs=1e-9)
            assert (a.window.start, a.window.end) == (b.window.start, b.window.end)

    def test_aggregated_windows_are_unbiased(self):
        log = small_log()
        swcr = SwcrParams(window=8, period=4, first_release=8, count=2)
        trials = 400
        sums = np.zeros(2)
        exacts = None
        for seed in range(trials):
            noise = NoiseSpec(1.0, sensitivity(SPEC), seed=seed)
            result = derive_swcr_from_hdcr(log, swcr, 2, noise, SPEC)
            sums += result.noisy
            exacts = np.array(result.exact)
        means = sums / trials
        per_node_sigma = math.sqrt(2) * NOISE.scale
        stderr = per_node_sigma * math.sqrt(2) / math.sqrt(trials)
        assert np.all(np.abs(means - exacts) <= 4 * stderr)


class TestCompare:
    def test_wide_window_favors_hierarchy(self):
        swcr = SwcrParams(window=64, period=1, first_release=64, count=2)
        got = compare_hdcr_swcr(swcr, 2, AtMostK(1))
        assert (got.lhs, got.rhs) == (432.0, 4096.0)
        assert got.hdcr_wins
        assert got.epsilon_prime_factor == pytest.approx(64 / 6)

    def test_tumbling_window_cannot_win(self):
        swcr = SwcrParams(window=4, period=4, first_release=4, count=2)
        got = compare_hdcr_swcr(swcr, 2, AtMostK(3))
        assert got.rhs == 1.0
        assert not got.hdcr_wins

    def test_time_bounded_exact_arithmetic(self):
        swcr = SwcrParams(window=64, period=1, first_release=64, count=2)
        got = compare_hdcr_swcr(swcr, 2, TimeBounded(1))
        h = 6
        quotient = Fraction(2**h - 1, 2**h - 2 ** (h - 1))
        term = quotient * 1 + h
        assert got.lhs == pytest.approx(float(2 * 1 * h * term**2))
        assert got.rhs == float(65**2)
        assert got.hdcr_wins
        assert got.epsilon_prime_factor == pytest.approx(float(65 / term))

    def test_hybrid_rejected(self):
        swcr = SwcrParams(window=4, period=2, first_release=4, count=2)
        with pytest.raises(UnsupportedConstraintError):
            compare_hdcr_swcr(swcr, 2, Hybrid((AtMostK(1),)))


class TestSerialization:
    def result(self):
        return run_dcr(small_log(), ReleaseSchedule((3, 6)), SPEC, NOISE)

    def test_csv_hides_exact_by_default(self):
        buf = io.StringIO()
        result_to_csv(self.result(), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "query_index,t_start,t_end,noisy"
        assert lines[1].startswith("0,-inf,3,")
        assert "exact" not in buf.getvalue()

    def test_csv_with_exact_column(self):
        buf = io.StringIO()
        result_to_csv(self.result(), buf, include_exact=True)
        assert buf.getvalue().splitlines()[0].endswith(",exact")

    def test_jsonl_records(self):
        swcr = SwcrParams(window=8, period=4, first_release=8, count=2)
        derived = derive_swcr_from_hdcr(small_log(), swcr, 2, NOISE, SPEC)
        buf = io.StringIO()
        result_to_jsonl(derived, buf)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert rows[0]["node_count"] == 2
        assert "variance" in rows[0]
        assert "exact" not in rows[0]
        assert rows[0]["t_start"] == 0

    @pytest.mark.parametrize("include_exact", [False, True])
    def test_jsonl_rows_equal_json_dumps(self, include_exact):
        for node_count, node_variance in [(None, None), ([1, 2**64 + 1, 0, 3], 1 / 3),
                                          ([2, 2, 1, 2], 5e-324), ([1, 3, 3, 0], math.nan),
                                          ([1, 2, 3, 4], math.inf)]:
            result = ReleaseResult(
                [float("-inf"), -(2**70), 4, 4], [3, 2**70 + 1, 9, 9],
                [-0.0, 5e-324, 1e16, math.inf],
                [0.1 + 0.2, -2.2250738585072014e-308, 123456789.12345679, -math.inf],
                node_count, node_variance,
            )
            assert jsonl(result, include_exact) == dumps_jsonl(result, include_exact)

    @given(st.lists(st.tuples(
        st.one_of(st.just(float("-inf")), st.integers(-(2**70), 2**70)),
        st.integers(1, 2**70), st.floats(), st.floats(), st.integers(0, 2**70),
    ), max_size=8), st.one_of(st.none(), st.floats()), st.booleans())
    def test_jsonl_rows_equal_json_dumps_for_any_floats(self, rows, node_variance, include_exact):
        starts, widths, noisy, exact, counts = map(list, zip(*rows)) if rows else ([],) * 5
        ends = [(0 if start == float("-inf") else start) + width
                for start, width in zip(starts, widths)]
        result = ReleaseResult(starts, ends, noisy, exact,
                               None if node_variance is None else counts, node_variance)
        assert jsonl(result, include_exact) == dumps_jsonl(result, include_exact)

    @pytest.mark.parametrize("include_exact", [False, True])
    def test_csv_rows_equal_csv_writer(self, include_exact):
        # the json.dumps inputs above, with a -inf start in a later row as well
        for node_count, node_variance in [(None, None), ([1, 2**64 + 1, 0, 3], 1 / 3),
                                          ([1, 3, 3, 0], math.nan)]:
            result = ReleaseResult(
                [float("-inf"), -(2**70), float("-inf"), 4], [3, 2**70 + 1, 9, 9],
                [-0.0, 5e-324, 1e16, math.inf],
                [0.1 + 0.2, -2.2250738585072014e-308, math.nan, -math.inf],
                node_count, node_variance,
            )
            assert csv_rows(result, include_exact) == writer_csv(result, include_exact)
            assert jsonl(result, include_exact) == dumps_jsonl(result, include_exact)

    @given(st.lists(st.tuples(
        st.one_of(st.just(float("-inf")), st.integers(-(2**70), 2**70)),
        st.integers(1, 2**70), st.floats(), st.floats(), st.integers(0, 2**70),
    ), max_size=8), st.one_of(st.none(), st.floats()), st.booleans())
    def test_csv_rows_equal_csv_writer_for_any_floats(self, rows, node_variance, include_exact):
        starts, widths, noisy, exact, counts = map(list, zip(*rows)) if rows else ([],) * 5
        ends = [(0 if start == float("-inf") else start) + width
                for start, width in zip(starts, widths)]
        result = ReleaseResult(starts, ends, noisy, exact,
                               None if node_variance is None else counts, node_variance)
        assert csv_rows(result, include_exact) == writer_csv(result, include_exact)

    @pytest.mark.parametrize("write", [result_to_csv, result_to_jsonl])
    def test_writing_holds_one_block(self, write):
        # rows are formatted a block at a time, so memory does not grow with the release
        n = 50_000
        result = ReleaseResult([float("-inf"), *range(1, n)], range(1, n + 1),
                               np.linspace(-1e6, 1e6, n).tolist(), np.arange(n, dtype=float).tolist(),
                               [1 + i % 13 for i in range(n)], 0.5)
        with open(os.devnull, "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                write(result, fh, include_exact=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * 2**20


def csv_rows(result: ReleaseResult, include_exact: bool) -> str:
    buf = io.StringIO()
    result_to_csv(result, buf, include_exact)
    return buf.getvalue()


def writer_csv(result: ReleaseResult, include_exact: bool) -> str:
    """The reference writer: one ``csv.writer`` row per record, floats by ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["query_index", "t_start", "t_end", "noisy"] + ["exact"] * include_exact)
    for i, r in enumerate(result.records):
        writer.writerow([i, r.window.start, r.window.end, repr(r.noisy)]
                        + [repr(r.exact)] * include_exact)
    return buf.getvalue()


def jsonl(result: ReleaseResult, include_exact: bool) -> str:
    buf = io.StringIO()
    result_to_jsonl(result, buf, include_exact)
    return buf.getvalue()


def dumps_jsonl(result: ReleaseResult, include_exact: bool) -> str:
    """The reference writer: one ``json.dumps`` call per row, on a fresh dict."""
    lines = []
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
        lines.append(json.dumps(rec) + "\n")
    return "".join(lines)


def pinned_log() -> Changelog:
    """40 entries whose times and values follow fixed integer formulas."""
    mutations = []
    for i in range(40):
        t, value = 1 + (i * 37) % 50, ((i * 7919) % 1000) / 8
        mutations.append(insert(f"e{i:02d}", t, value))
        for k in range(1, 1 + i % 4):
            t += 1 + (i * k * 13) % 23
            new = ((i * 31 + k * 17) % 1000) / 3  # most thirds need all 17 digits
            mutations.append(modify(f"e{i:02d}", t, value, new))
            value = new
        if i % 5 == 0:
            mutations.append(delete(f"e{i:02d}", t + 3, value))
    return Changelog.from_unsorted(mutations)


PIN_SPEC = LinearQuerySpec("identity", 0.0, 400.0)
PIN_NOISE = NoiseSpec(0.5, sensitivity(PIN_SPEC), seed=2024)
PIN_RELEASES = {
    "hdcr": lambda log: run_hdcr(log, HdcrParams(7, 2, 0, 150, 2), PIN_SPEC, PIN_NOISE),
    "hdcr-branching-3": lambda log: run_hdcr(
        log, HdcrParams(4, 3, -3, 150, 3), PIN_SPEC, PIN_NOISE
    ),
    "swcr-from-hdcr": lambda log: derive_swcr_from_hdcr(
        log, SwcrParams(window=24, period=6, first_release=24, count=20), 2, PIN_NOISE, PIN_SPEC
    ),
}
# SHA-256 of each release's JSON Lines rows, recorded when every exact value was
# one np.cumsum per node and every row one json.dumps call
PINNED_SHA256 = {
    ("hdcr", False): "17b12a5b962c8afb8240014724399f07adf8256a26deed74ce444d92dcb6b5e7",
    ("hdcr", True): "f6f51571afb3d2b6c0024f9ff1fe0ed2fb961bc9057ff2692473dedf49b099f7",
    ("hdcr-branching-3", False): "0114771391404e174a3cddd3f15e03c2d61aa1ded697f1a560cb71af37d7dd53",
    ("hdcr-branching-3", True): "d14ff60b3bb9eb55af225ef9be71de42a71d9dc5567298cd3ad0a72da96eab34",
    ("swcr-from-hdcr", False): "f836dbe8df6e47f30c52acdc30d37ecc8da070e212041cad4dea2d90d0c245bd",
    ("swcr-from-hdcr", True): "1214761a0af42e56f2fa2d162502ba0c27753fd90679de4828a2f8be42f5ee79",
}


@pytest.mark.parametrize("release,include_exact", sorted(PINNED_SHA256))
def test_seeded_jsonl_release_bytes_are_pinned(release, include_exact):
    text = jsonl(PIN_RELEASES[release](pinned_log()), include_exact)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256[release, include_exact]
