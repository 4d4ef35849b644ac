import mpmath
import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from dpcr.accounting import (
    Advanced,
    HdcrParams,
    PrivacyLoss,
    ReleaseSchedule,
    SwcrParams,
    compose_fold,
    dcr_folds,
    hdcr_folds,
    hdcr_time_bounded_nominal_folds,
    local_folds,
    most_span,
    span_folds,
    swcr_folds,
)
from dpcr.changelog import AtMostK, Hybrid, TimeBounded, insert, modify
from dpcr.oracles import affected_count_oracle, most_span_oracle

LOSS = PrivacyLoss(0.1, 1e-6)


def covers(a: PrivacyLoss, b: PrivacyLoss) -> bool:
    return a.epsilon >= b.epsilon and a.delta >= b.delta


class TestPrivacyLoss:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyLoss(-0.1, 0.0)
        with pytest.raises(ValueError):
            PrivacyLoss(0.1, 1.5)


class TestCompose:
    def test_naive_linear_sum(self):
        got = compose_fold(LOSS, 3)
        assert got.epsilon == pytest.approx(0.3)
        assert got.delta == pytest.approx(3e-6)

    def test_advanced_matches_high_precision_oracle(self):
        got = compose_fold(PrivacyLoss(0.1, 0.0), 10, Advanced(1e-6))
        with mpmath.workdps(50):
            eps = mpmath.mpf("0.1")
            expected = eps * mpmath.sqrt(2 * 10 * mpmath.log(10**6)) + 10 * eps * (
                mpmath.exp(eps) - 1
            )
        assert got.epsilon == pytest.approx(float(expected), rel=1e-12)
        assert got.delta == pytest.approx(1e-6)

    def test_zero_folds_cost_nothing(self):
        assert compose_fold(LOSS, 0) == PrivacyLoss(0.0, 0.0)

    @given(
        st.floats(0, 2, allow_nan=False),
        st.floats(0, 0.01, allow_nan=False),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    )
    def test_naive_composition_is_monotone(self, eps, delta, folds, extra):
        loss = PrivacyLoss(eps, delta)
        assert covers(compose_fold(loss, folds + extra), compose_fold(loss, folds))


class TestMostSpan:
    def test_unit_spacing(self):
        assert most_span((0, 1, 2, 3), 1) == 2

    def test_single_endpoint(self):
        assert most_span((5,), 7) == 0

    @pytest.mark.parametrize("interval,bound", [(1, 1), (3, 7), (5, 5)])
    def test_uniform_matches_ceil_formula(self, interval, bound):
        ticks = tuple(range(0, interval * 40, interval))
        expected = -(-bound // interval) + 1
        assert most_span(ticks, bound) == expected
        assert most_span_oracle(ticks, bound) == expected

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=40),
        st.integers(0, 50),
    )
    def test_matches_quadratic_oracle(self, gaps, span):
        ticks = [0]
        for g in gaps:
            ticks.append(ticks[-1] + g)
        assert most_span(tuple(ticks), span) == most_span_oracle(ticks, span)


def _entry(times):
    return [insert("x", times[0], 1.0)] + [modify("x", t, 1.0, 1.0) for t in times[1:]]


class TestSpanFolds:
    def test_non_uniform_ticks_within_span(self):
        schedule = ReleaseSchedule((5, 10, 11, 12, 14))
        hits = affected_count_oracle(schedule.filters(), _entry([10, 11, 12, 13]))
        assert hits == 4
        assert most_span(schedule.ticks, 5) == 2
        assert dcr_folds(schedule, TimeBounded(5)) >= hits

    def test_bound_wider_than_schedule(self):
        schedule = ReleaseSchedule((0, 1, 2))
        hits = affected_count_oracle(schedule.filters(), _entry([0, 1, 2]))
        assert hits == 3
        assert most_span(schedule.ticks, 100) == 0
        assert dcr_folds(schedule, TimeBounded(100)) >= hits
        got = compose_fold(PrivacyLoss(1.0), dcr_folds(schedule, TimeBounded(100)))
        assert got.epsilon == pytest.approx(3.0)

    def test_single_endpoint(self):
        assert span_folds((5,), 7) == 1

    def test_hdcr_bound_wider_than_span(self):
        params = HdcrParams(height=3, branching=2, start=0, span=8, interval=1)
        nodes = [
            params.node_filter(layer, index)
            for layer in range(params.height)
            for index in range(params.layer_size(layer))
        ]
        hits = affected_count_oracle(nodes, _entry(list(range(1, 9))))
        assert hits == 14
        assert hdcr_folds(params, TimeBounded(100)) >= hits

    def test_hdcr_bound_wider_than_span_counts_each_node_once(self):
        params = HdcrParams(height=3, branching=2, start=0, span=8, interval=1)
        assert hdcr_folds(params, TimeBounded(100)) == 14

    def test_hdcr_time_bounded_equals_oracle_maximum(self):
        # an entry touches the most nodes by mutating at every tick of its
        # window; only windows meeting (start, start + span] touch any node
        rng = np.random.default_rng(1618)
        for _ in range(200):
            params = HdcrParams(
                height=int(rng.integers(1, 6)),
                branching=int(rng.integers(2, 5)),
                start=int(rng.integers(-3, 4)),
                span=int(rng.integers(1, 30)),
                interval=int(rng.integers(1, 5)),
            )
            bound = int(rng.integers(0, params.span + 20))
            nodes = [
                params.node_filter(layer, index)
                for layer in range(params.height)
                for index in range(params.layer_size(layer))
            ]
            best = max(
                affected_count_oracle(nodes, _entry(list(range(first, first + bound + 1))))
                for first in range(params.start - bound + 1, params.start + params.span + 1)
            )
            assert hdcr_folds(params, TimeBounded(bound)) == best

    def test_hdcr_never_below_oracle(self):
        rng = np.random.default_rng(2718)
        for _ in range(2000):
            params = HdcrParams(
                height=int(rng.integers(1, 5)),
                branching=int(rng.integers(2, 4)),
                start=int(rng.integers(-3, 4)),
                span=int(rng.integers(1, 40)),
                interval=int(rng.integers(1, 4)),
            )
            nodes = [
                params.node_filter(layer, index)
                for layer in range(params.height)
                for index in range(params.layer_size(layer))
            ]
            first = int(rng.integers(params.start - 4, params.start + params.span + 3))
            if rng.random() < 0.5:
                k = int(rng.integers(1, 6))
                offsets = rng.integers(0, 4 * params.interval + 1, size=k)
                constraint = AtMostK(k)
            else:
                bound = int(rng.integers(0, params.span + 20))
                offsets = np.append(rng.integers(0, bound + 1, size=4), bound)
                constraint = TimeBounded(bound)
            times = sorted({first + int(o) for o in offsets})
            if isinstance(constraint, AtMostK):
                times = times[: constraint.k]
            assert affected_count_oracle(nodes, _entry(times)) <= hdcr_folds(params, constraint)

    def test_hybrid_folds_take_largest_branch(self):
        params = HdcrParams(height=3, branching=2, start=0, span=8, interval=1)
        hybrid = Hybrid((AtMostK(2), TimeBounded(100)))
        assert hdcr_folds(params, hybrid) == max(
            hdcr_folds(params, AtMostK(2)), hdcr_folds(params, TimeBounded(100))
        )


class TestDcrBound:
    SCHEDULE = ReleaseSchedule.uniform(7, 7, 20)

    def bound(self, loss, constraint):
        return compose_fold(loss, dcr_folds(self.SCHEDULE, constraint))

    def test_at_most_k(self):
        got = self.bound(PrivacyLoss(0.1), AtMostK(3))
        assert got.epsilon == pytest.approx(0.3)
        assert got.delta == 0.0

    def test_time_bounded_uniform(self):
        got = self.bound(PrivacyLoss(0.1), TimeBounded(14))
        assert got.epsilon == pytest.approx((14 // 7 + 1) * 0.1)

    def test_hybrid_is_componentwise_max_of_branches(self):
        # the reference span procedure counts a point window twice, but an
        # entry under a zero bound mutates once, so it touches one range
        hybrid = Hybrid((AtMostK(1), TimeBounded(0)))
        assert most_span_oracle(self.SCHEDULE.ticks, 0) == 2
        folds = dcr_folds(self.SCHEDULE, TimeBounded(0))
        assert folds == 1
        got = self.bound(PrivacyLoss(0.1), hybrid)
        branches = [self.bound(PrivacyLoss(0.1), b) for b in hybrid.branches]
        assert got == PrivacyLoss(
            max(b.epsilon for b in branches), max(b.delta for b in branches)
        )
        assert got.epsilon == pytest.approx(folds * 0.1)

    def test_hybrid_covers_every_branch(self):
        hybrid = Hybrid((AtMostK(4), TimeBounded(3)))
        got = self.bound(LOSS, hybrid)
        for branch in hybrid.branches:
            assert covers(got, self.bound(LOSS, branch))


class TestSwcrBound:
    def test_at_most_k(self):
        params = SwcrParams(window=14, period=7, first_release=14, count=10)
        got = compose_fold(PrivacyLoss(0.05), swcr_folds(params, AtMostK(2)))
        assert swcr_folds(params, AtMostK(2)) == 4
        assert got.epsilon == pytest.approx(0.2)

    def test_time_bounded(self):
        params = SwcrParams(window=14, period=7, first_release=14, count=10)
        assert swcr_folds(params, TimeBounded(7)) == 3

    def test_tumbling_window(self):
        params = SwcrParams(window=7, period=7, first_release=7, count=10)
        assert swcr_folds(params, AtMostK(1)) == 1


class TestHdcrBound:
    def test_at_most_k(self):
        params = HdcrParams(height=3, branching=2, start=0, span=32, interval=1)
        got = compose_fold(PrivacyLoss(0.1), hdcr_folds(params, AtMostK(2)))
        assert got.epsilon == pytest.approx(0.6)

    def test_single_layer_degenerates_to_dcr(self):
        params = HdcrParams(height=1, branching=2, start=0, span=16, interval=2)
        constraint = TimeBounded(5)
        grid = ReleaseSchedule.uniform(0, 2, params.layer_size(0) + 1)
        assert hdcr_folds(params, constraint) == dcr_folds(grid, constraint)

    def test_time_bounded_sums_exact_layer_spans(self):
        params = HdcrParams(height=2, branching=2, start=0, span=4, interval=1)
        got = compose_fold(PrivacyLoss(0.1), hdcr_folds(params, TimeBounded(2)))
        layer0 = most_span_oracle((0, 1, 2, 3, 4), 2)
        layer1 = most_span_oracle((0, 2, 4), 2)
        assert (layer0, layer1) == (3, 2)
        assert got.epsilon == pytest.approx(0.5)

    def test_nominal_closed_form_differs_from_exact(self):
        # the closed-form layer term can dip below the true per-layer span
        params = HdcrParams(height=2, branching=2, start=0, span=4, interval=1)
        nominal = hdcr_time_bounded_nominal_folds(params, 1)
        assert nominal == pytest.approx(3.5)
        assert hdcr_folds(params, TimeBounded(1)) == 4


class TestLocalBound:
    def test_doubles_dcr_at_most_k(self):
        schedule = ReleaseSchedule.uniform(5, 5, 10)
        folds = dcr_folds(schedule, AtMostK(2))
        got = compose_fold(PrivacyLoss(0.1), local_folds(folds))
        assert got.epsilon == pytest.approx(0.4)

    def test_swcr_tumbling(self):
        params = SwcrParams(window=7, period=7, first_release=7, count=10)
        assert local_folds(swcr_folds(params, AtMostK(1))) == 2

    def test_zero_folds(self):
        assert compose_fold(PrivacyLoss(0.3, 0.1), local_folds(0)) == PrivacyLoss(0.0, 0.0)


class TestSchedules:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            ReleaseSchedule((3, 3))

    def test_first_filter_is_unbounded(self):
        filters = ReleaseSchedule((4, 8)).filters()
        assert filters[0].start == float("-inf")
        assert filters[0].end == 4
        assert (filters[1].start, filters[1].end) == (4, 8)

    def test_hdcr_layer_geometry(self):
        params = HdcrParams(height=3, branching=2, start=10, span=10, interval=2)
        assert params.layer_size(0) == 5
        assert params.layer_size(1) == 3
        assert params.layer_size(2) == 2
        assert params.node_filter(1, 2).end == 20  # truncated at start + span
        assert [params.node_filter(1, i).start for i in range(3)] == [10, 14, 18]
