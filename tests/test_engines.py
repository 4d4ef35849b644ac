import io
import json
import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from dpcr.accounting import HdcrParams, ReleaseSchedule, SwcrParams
from dpcr.changelog import (
    AtMostK,
    Changelog,
    Hybrid,
    TimeBounded,
    TimeRangeFilter,
    insert,
    modify,
)
from dpcr.engines import (
    RangeTooWideError,
    UnsupportedConstraintError,
    aggregate,
    build_hdcr,
    compare_hdcr_swcr,
    cover_range,
    derive_swcr_from_hdcr,
    result_to_csv,
    result_to_jsonl,
    run_dcr,
    run_swcr,
    swcr_equivalent_hdcr_params,
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
        assert result.exact_values() == [0.0] * 5

    def test_single_mutation_hits_one_query(self):
        log = Changelog([insert("x", 5, 50.0)])
        result = run_dcr(log, ReleaseSchedule((3, 6, 9)), SPEC, NOISE)
        assert result.exact_values() == [0.0, 50.0, 0.0]

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
        assert result.exact_values() == [0.0, 50.0]

    def test_negative_zero_values_sum_to_positive_zero(self):
        # a change summed from 0.0 is never -0.0, even when every term is -0.0
        log = Changelog([insert("x", 1, -0.0), insert("y", 1, -0.0)])
        spec = LinearQuerySpec("identity", -1.0, 1.0)
        result = run_dcr(log, ReleaseSchedule((2,)), spec, NOISE)
        assert repr(result.records[0].exact) == repr(linear_query_change(log, spec)) == "0.0"

    def test_deterministic_per_seed(self):
        result = run_dcr(small_log(), ReleaseSchedule.uniform(3, 3, 5), SPEC, NOISE)
        again = run_dcr(small_log(), ReleaseSchedule.uniform(3, 3, 5), SPEC, NOISE)
        assert result.noisy_values() == again.noisy_values()
        other = run_dcr(
            small_log(), ReleaseSchedule.uniform(3, 3, 5), SPEC,
            NoiseSpec(1.0, sensitivity(SPEC), seed=14),
        )
        assert result.noisy_values() != other.noisy_values()


class TestRunSwcr:
    def test_tumbling_window_equals_uniform_dcr_exacts(self):
        log = small_log()
        swcr = run_swcr(log, SwcrParams(window=3, period=3, first_release=3, count=5), SPEC, NOISE)
        dcr = run_dcr(log, ReleaseSchedule.uniform(3, 3, 5), SPEC, NOISE)
        # first DCR query reads everything before t=3, the first window only (0, 3]
        assert swcr.exact_values()[1:] == dcr.exact_values()[1:]
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
        assert result.exact_values() == [0.0] * 4


def value_specs(log: Changelog) -> list[LinearQuerySpec]:
    """All four value functions, with bounds that clamp some of the log's values."""
    values = sorted({v for m in log for v in (m.prev_value, m.new_value) if v is not None})
    table = {v: (i % 5) * 1.5 - 3.0 for i, v in enumerate(values)}
    return [
        LinearQuerySpec("identity", 5.0, 60.0),
        LinearQuerySpec("indicator", 0.0, 1.0, predicate=lambda v: v > 40.0),
        LinearQuerySpec("second_moment", 10.0, 5000.0),
        LinearQuerySpec("table", -2.0, 2.0, table=table),
    ]


def reference_exacts(log: Changelog, windows, spec: LinearQuerySpec) -> list[str]:
    """``linear_query_change`` over a full scan of the log per window, as reprs."""
    return [
        repr(linear_query_change([m for m in log.mutations if w.start < m.time <= w.end], spec))
        for w in windows
    ]


class TestReferenceScan:
    """Exact values equal, bit for bit, a full scan of the log per window."""

    @given(changelogs(), st.lists(st.integers(-10, 40), min_size=1, max_size=6, unique=True))
    def test_dcr(self, log, ticks):
        schedule = ReleaseSchedule(tuple(sorted(ticks)))  # first window starts at -inf
        for spec in value_specs(log):
            result = run_dcr(log, schedule, spec, NOISE)
            got = [repr(r.exact) for r in result.records]
            assert got == reference_exacts(log, schedule.filters(), spec)

    @given(changelogs(), st.integers(1, 12), st.integers(1, 12), st.integers(-10, 40),
           st.integers(1, 8))
    def test_swcr(self, log, window, period, first, count):
        params = SwcrParams(window=window, period=period, first_release=first, count=count)
        for spec in value_specs(log):
            result = run_swcr(log, params, spec, NOISE)
            got = [repr(r.exact) for r in result.records]
            assert got == reference_exacts(log, params.filters(), spec)

    @given(changelogs(), st.integers(1, 4), st.integers(2, 3), st.integers(-10, 40),
           st.integers(1, 30), st.integers(1, 5))
    def test_hdcr_nodes(self, log, height, branching, start, span, interval):
        params = HdcrParams(height, branching, start, span, interval)
        for spec in value_specs(log):
            tree = build_hdcr(log, params, spec, NOISE)
            keys = sorted(tree.nodes)
            got = [repr(tree.nodes[k].exact) for k in keys]
            windows = [params.node_filter(layer, index) for layer, index in keys]
            assert got == reference_exacts(log, windows, spec)


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
                node = tree.node(layer, index)
                assert node.noisy == node.exact + draws[index]
                assert type(node.noisy) is float


class TestCoverRange:
    def test_unit_range_is_one_bottom_node(self):
        assert cover_range(3, 4, 2, 4) == ((0, 3),)

    def test_reference_case(self):
        assert len(cover_range(0, 99, 10, 2)) == 18

    def test_too_wide_rejected(self):
        with pytest.raises(RangeTooWideError):
            cover_range(0, 17, 2, 4)

    @pytest.mark.parametrize("branching,height,top", [(2, 4, 16), (3, 3, 27), (10, 2, 100)])
    def test_exhaustive_small_universes(self, branching, height, top):
        for low in range(top):
            for high in range(low + 1, top + 1):
                cover = cover_range(low, high, branching, height)
                # left to right as returned: aggregates add in this order
                segments = [(i * branching**lv, (i + 1) * branching**lv) for lv, i in cover]
                assert segments[0][0] == low
                assert segments[-1][1] == high
                assert all(a[1] == b[0] for a, b in zip(segments, segments[1:]))
                width = high - low
                bound = 1 if width == 1 else 2 * (branching - 1) * math.ceil(
                    math.log(width) / math.log(branching)
                )
                assert len(cover) <= bound
                assert len(cover) >= min_cover_oracle(low, high, branching, height)


class TestBuildHdcr:
    PARAMS = HdcrParams(height=3, branching=2, start=0, span=12, interval=2)

    def test_bottom_layer_equals_uniform_dcr_tail(self):
        log = small_log()
        tree = build_hdcr(log, self.PARAMS, SPEC, NOISE)
        grid = ReleaseSchedule.uniform(0, 2, self.PARAMS.layer_size(0) + 1)
        dcr = run_dcr(log, grid, SPEC, NOISE)
        # DCR query i+1 covers the same range as bottom node i
        for i in range(self.PARAMS.layer_size(0)):
            assert tree.node(0, i).exact == pytest.approx(dcr.records[i + 1].exact)

    def test_parent_exact_is_sum_of_children(self):
        tree = build_hdcr(small_log(), self.PARAMS, SPEC, NOISE)
        for layer in (1, 2):
            for index in range(self.PARAMS.layer_size(layer)):
                children = [
                    tree.node(layer - 1, j).exact
                    for j in range(
                        index * 2, min(index * 2 + 2, self.PARAMS.layer_size(layer - 1))
                    )
                ]
                assert tree.node(layer, index).exact == pytest.approx(
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
        assert tree.node(2, 1).window.end == 12


class TestAggregate:
    PARAMS = HdcrParams(height=4, branching=2, start=0, span=16, interval=1)

    def test_single_bottom_node(self):
        tree = build_hdcr(small_log(), self.PARAMS, SPEC, NOISE)
        agg = aggregate(tree, 4, 5)
        node = tree.node(0, 4)
        assert agg.noisy == node.noisy
        assert agg.node_count == 1

    def test_exact_part_matches_direct_change(self):
        log = small_log()
        tree = build_hdcr(log, self.PARAMS, SPEC, NOISE)
        for low, high in [(0, 16), (1, 11), (3, 4), (5, 13)]:
            agg = aggregate(tree, low, high)
            direct = linear_query_change(log.filter(TimeRangeFilter(low, high)), SPEC)
            assert agg.exact == pytest.approx(direct, abs=1e-9)

    def test_variance_formula(self):
        tree = build_hdcr(small_log(), self.PARAMS, SPEC, NOISE)
        agg = aggregate(tree, 1, 11)
        assert agg.variance == pytest.approx(agg.node_count * 2 * NOISE.scale**2)

    def test_range_beyond_grid_rejected(self):
        tree = build_hdcr(small_log(), self.PARAMS, SPEC, NOISE)
        with pytest.raises(ValueError):
            aggregate(tree, 0, 17)


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
            sums += result.noisy_values()
            exacts = np.array(result.exact_values())
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
