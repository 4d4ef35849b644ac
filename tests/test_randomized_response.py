import math

import numpy as np
import pytest

from dpcr.accounting import ReleaseSchedule, dcr_folds, local_folds
from dpcr.changelog import AtMostK
from dpcr.mechanisms import named_stream
from dpcr.randomized_response import (
    AnswerMutationSpace,
    HistogramEstimate,
    InvalidEpsilonError,
    ResponseSpace,
    SingularMatrixError,
    UnknownLabelError,
    answer_at,
    estimate_delta_v,
    estimate_from_counts,
    invert_rule,
    net_mutation,
    optimal_rule,
    optimal_rule_inverse,
    rr_dcr,
    rr_hdcr,
    sample_responses,
    verify_dp,
)
from dpcr.accounting import HdcrParams

SPACE = ResponseSpace(("r1", "r2"))


class TestOptimalRule:
    def test_two_answer_rule_at_ln3(self):
        rule = optimal_rule(2, math.log(3))
        assert rule[0, 0] == pytest.approx(0.75)
        assert rule[0, 1] == pytest.approx(0.25)

    def test_large_epsilon_approaches_identity(self):
        rule = optimal_rule(3, 50.0)
        assert np.allclose(rule, np.eye(3), atol=1e-15)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(InvalidEpsilonError):
            optimal_rule(3, 0.0)

    def test_columns_sum_to_one(self):
        for size in (2, 9, 26):
            rule = optimal_rule(size, 1.3)
            assert np.allclose(rule.sum(axis=0), 1.0, atol=1e-12)

    def test_closed_form_inverse(self):
        for size, eps in ((2, 0.5), (9, 1.0), (16, 2.0)):
            rule = optimal_rule(size, eps)
            assert np.allclose(
                np.linalg.inv(rule), optimal_rule_inverse(size, eps), atol=1e-10
            )

    @pytest.mark.parametrize("epsilon,refused", [(1e-14, True), (1e-6, False)])
    def test_closed_form_refuses_where_invert_rule_refuses(self, epsilon, refused):
        # the optimal rule's 2-norm condition number is exactly 1 / (p - q)
        rule = optimal_rule(16, epsilon)
        if refused:
            with pytest.raises(SingularMatrixError):
                optimal_rule_inverse(16, epsilon)
            with pytest.raises(SingularMatrixError):
                invert_rule(rule)
        else:
            assert np.allclose(optimal_rule_inverse(16, epsilon) @ rule, np.eye(16), atol=1e-6)
            invert_rule(rule)


class TestVerifyDp:
    @pytest.mark.parametrize("size", [2, 9, 26])
    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    def test_optimal_rule_is_tight(self, size, epsilon):
        rule = optimal_rule(size, epsilon)
        assert verify_dp(rule, epsilon)
        assert not verify_dp(rule, 0.99 * epsilon)

    def test_identity_matrix_fails_any_finite_epsilon(self):
        assert not verify_dp(np.eye(4), 100.0)

    def test_uniform_matrix_is_perfectly_private(self):
        assert verify_dp(np.full((4, 4), 0.25), 0.0)


class TestAnswerMutationSpace:
    def test_size_and_no_change_cell(self):
        mspace = AnswerMutationSpace(SPACE)
        assert mspace.size == 9
        assert mspace.index(None, None) == 8
        assert mspace.cell(8) == (None, None)

    def test_unknown_label_rejected(self):
        mspace = AnswerMutationSpace(SPACE)
        with pytest.raises(UnknownLabelError):
            mspace.index("nope", "r1")

    def test_change_column(self):
        mspace = AnswerMutationSpace(SPACE)
        col = mspace.delta_matrix()[:, mspace.index("r1", "r2")]
        assert col.tolist() == [-1, 1]

    def test_birth_and_death_columns(self):
        mspace = AnswerMutationSpace(SPACE)
        birth = mspace.delta_matrix()[:, mspace.index(None, "r1")]
        death = mspace.delta_matrix()[:, mspace.index("r2", None)]
        assert birth.tolist() == [1, 0]
        assert death.tolist() == [0, -1]

    def test_column_structure(self):
        mspace = AnswerMutationSpace(ResponseSpace(("a", "b", "c")))
        delta = mspace.delta_matrix()
        for j in range(mspace.size):
            prev, new = mspace.cell(j)
            nonzero = np.count_nonzero(delta[:, j])
            if prev == new:
                assert nonzero == 0
            elif prev is None or new is None:
                assert nonzero == 1
            else:
                assert nonzero == 2
            assert delta[:, j].sum() in (-1, 0, 1)
            assert set(np.unique(delta[:, j])) <= {-1, 0, 1}

    def test_one_hot(self):
        mspace = AnswerMutationSpace(SPACE)
        vec = mspace.one_hot("r1", None)
        assert vec.sum() == 1.0
        assert vec[mspace.index("r1", None)] == 1.0


class TestEstimator:
    def test_identity_rule_recovers_exact_change(self):
        mspace = AnswerMutationSpace(SPACE)
        delta = mspace.delta_matrix()
        responses = [mspace.index("r1", "r2")] * 3 + [
            mspace.index(None, None)
        ] * 5
        est = estimate_delta_v(responses, np.eye(mspace.size), delta)
        assert est.values.tolist() == [-3.0, 3.0]

    def test_index_path_equals_histogram_path(self):
        mspace = AnswerMutationSpace(SPACE)
        rule = optimal_rule(mspace.size, 1.0)
        delta = mspace.delta_matrix()
        responses = np.array([0, 3, 8, 8, 5, 0])
        counts = np.bincount(responses, minlength=mspace.size)
        a = estimate_delta_v(responses, rule, delta)
        b = estimate_from_counts(counts, rule, delta)
        assert np.allclose(a.values, b.values)
        assert np.allclose(a.covariance, b.covariance)

    def test_singular_rule_rejected(self):
        with pytest.raises(SingularMatrixError):
            estimate_delta_v([0], np.full((4, 4), 0.25), np.zeros((2, 4)))

    def test_monte_carlo_unbiasedness(self):
        mspace = AnswerMutationSpace(SPACE)
        rule = optimal_rule(mspace.size, 1.0)
        delta = mspace.delta_matrix()
        cells = np.array(
            [mspace.index("r1", "r2")] + [mspace.index(None, None)] * 9
        )
        trials = 4000
        rng = named_stream(31, "mc")
        total = np.zeros(2)
        sq = np.zeros(2)
        for _ in range(trials):
            est = estimate_delta_v(sample_responses(rng, cells, rule), rule, delta)
            total += est.values
            sq += est.values**2
        mean = total / trials
        stderr = np.sqrt((sq / trials - mean**2) / trials)
        assert np.all(np.abs(mean - np.array([-1.0, 1.0])) <= 4 * stderr)

    def test_all_no_change_centers_on_zero(self):
        mspace = AnswerMutationSpace(SPACE)
        rule = optimal_rule(mspace.size, 1.0)
        delta = mspace.delta_matrix()
        cells = np.full(50, mspace.index(None, None))
        rng = named_stream(32, "mc")
        trials = 2000
        total = np.zeros(2)
        sq = np.zeros(2)
        for _ in range(trials):
            est = estimate_delta_v(sample_responses(rng, cells, rule), rule, delta)
            total += est.values
            sq += est.values**2
        mean = total / trials
        stderr = np.sqrt((sq / trials - mean**2) / trials)
        assert np.all(np.abs(mean) <= 4 * stderr)

    def test_covariance_shape_and_symmetry(self):
        mspace = AnswerMutationSpace(SPACE)
        rule = optimal_rule(mspace.size, 1.0)
        est = estimate_delta_v([0, 1, 8], rule, mspace.delta_matrix())
        assert est.covariance.shape == (2, 2)
        assert np.allclose(est.covariance, est.covariance.T)
        assert isinstance(est, HistogramEstimate)

    @pytest.mark.parametrize(
        "upper,lower",
        [(1.0, 1.0), (1.0, 1.0 + 5e-10), (1.0, 1.0 + 1e-6), (1.0, 1.0 + 2e-5),
         (1e6, 1e6 + 5.0), (1e6, 1e6 + 20.0), (0.0, 2e-9), (1.0, float("nan"))],
    )
    def test_symmetry_check_matches_allclose(self, upper, lower):
        cov = np.array([[4.0, upper], [lower, 9.0]])
        if np.allclose(cov, cov.T, atol=1e-9):
            HistogramEstimate(np.zeros(2), cov, 10)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                HistogramEstimate(np.zeros(2), cov, 10)

    def test_reported_variance_matches_monte_carlo(self):
        # the estimates are counts over 200 entries, so their variance is
        # n times the per-entry response covariance mapped through A
        mspace = AnswerMutationSpace(SPACE)
        rule = optimal_rule(mspace.size, 1.0)
        delta = mspace.delta_matrix()
        cells = np.array(
            [mspace.index("r1", "r2")] * 50
            + [mspace.index(None, "r1")] * 30
            + [mspace.index(None, None)] * 120
        )
        rng = named_stream(33, "mc")
        trials = 4000
        values = np.empty((trials, 2))
        reported = np.zeros(2)
        for t in range(trials):
            est = estimate_delta_v(sample_responses(rng, cells, rule), rule, delta)
            values[t] = est.values
            reported += np.diag(est.covariance)
        reported /= trials
        empirical = values.var(axis=0, ddof=1)
        assert np.all(np.abs(reported - empirical) <= 0.10 * empirical)


class TestTimelines:
    TIMELINE = ((2, "r1"), (5, "r2"), (9, None))

    def test_answer_at(self):
        assert answer_at(self.TIMELINE, 1) is None
        assert answer_at(self.TIMELINE, 2) == "r1"
        assert answer_at(self.TIMELINE, 7) == "r2"
        assert answer_at(self.TIMELINE, 12) is None

    def test_net_mutation_composes_changes(self):
        assert net_mutation(self.TIMELINE, 2, 6) == ("r1", "r2")
        assert net_mutation(self.TIMELINE, 1, 6) == (None, "r2")
        assert net_mutation(self.TIMELINE, float("-inf"), 3) == (None, "r1")
        assert net_mutation(self.TIMELINE, 6, 10) == ("r2", None)

    def test_no_net_change_is_canonical(self):
        timeline = ((2, "r1"), (5, "r2"), (8, "r1"))
        assert net_mutation(timeline, 3, 9) == (None, None)
        assert net_mutation(self.TIMELINE, 5, 5) == (None, None)


class TestRrDcr:
    def test_single_entry_single_interval_matches_estimator(self):
        timelines = {"e0": ((1, "r1"), (4, "r2"))}
        schedule = ReleaseSchedule((6,))
        records = rr_dcr(timelines, SPACE, schedule, epsilon=1.0, seed=21)
        mspace = AnswerMutationSpace(SPACE)
        rule = optimal_rule(mspace.size, 1.0)
        rng = named_stream(21, "rr-dcr", 0)
        cells = np.array([mspace.index(None, "r2")])
        expected = estimate_delta_v(
            sample_responses(rng, cells, rule), rule, mspace.delta_matrix()
        )
        assert np.allclose(records[0].estimate.values, expected.values)

    def test_static_population_centers_on_zero(self):
        timelines = {f"e{i}": ((0, "r1"),) for i in range(40)}
        schedule = ReleaseSchedule((4, 8))
        trials = 600
        total = np.zeros(2)
        sq = np.zeros(2)
        for seed in range(trials):
            records = rr_dcr(timelines, SPACE, schedule, epsilon=1.0, seed=seed)
            v = records[1].estimate.values
            total += v
            sq += v**2
        mean = total / trials
        stderr = np.sqrt((sq / trials - mean**2) / trials)
        assert np.all(np.abs(mean) <= 4 * stderr)

    def test_cumulative_tracks_scripted_histogram(self):
        rng = np.random.default_rng(5)
        timelines = {}
        for i in range(300):
            eid = f"e{i:04d}"
            records = [(int(rng.integers(0, 4)), "r1" if i % 3 else "r2")]
            if i % 5 == 0:
                records.append((int(rng.integers(5, 12)), "r2"))
            timelines[eid] = tuple(sorted(records))
        schedule = ReleaseSchedule((4, 8, 12))
        truth = np.zeros(2)
        for timeline in timelines.values():
            final = answer_at(timeline, 12)
            if final is not None:
                truth[SPACE.index(final)] += 1
        trials = 200
        total = np.zeros(2)
        for seed in range(trials):
            records = rr_dcr(timelines, SPACE, schedule, epsilon=1.0, seed=seed)
            total += sum(r.estimate.values for r in records)
        mean = total / trials
        assert np.all(np.abs(mean - truth) <= 0.05 * len(timelines))

    def test_accounting_bridge_doubles_folds(self):
        schedule = ReleaseSchedule.uniform(4, 4, 6)
        assert local_folds(dcr_folds(schedule, AtMostK(2))) == 4


def _survey_timelines(labels: tuple[str, ...], entries: int) -> dict:
    rng = np.random.default_rng(17)
    timelines = {}
    for i in range(entries):
        times = sorted({int(t) for t in rng.integers(0, 8, size=3)})
        timelines[f"e{i:03d}"] = tuple(
            (t, labels[int(rng.integers(0, len(labels)))]) for t in times
        )
    return timelines


def _caller_rule_estimate(timelines, space, window, rng, epsilon) -> HistogramEstimate:
    """The estimate of one survey round through the caller-supplied-rule path."""
    mspace = AnswerMutationSpace(space)
    rule = optimal_rule(mspace.size, epsilon)
    cells = [
        mspace.index(*net_mutation(timelines[e], window.start, window.end))
        for e in sorted(timelines)
    ]
    counts = np.bincount(sample_responses(rng, cells, rule), minlength=mspace.size)
    return estimate_from_counts(counts, rule, mspace.delta_matrix())


def _assert_same_estimate(got: HistogramEstimate, want: HistogramEstimate) -> None:
    sd = np.sqrt(np.diag(want.covariance))
    assert np.all(np.abs(got.values - want.values) <= 1e-9 * sd)
    assert np.abs(got.covariance - want.covariance).max() <= 1e-9 * np.abs(want.covariance).max()


@pytest.mark.parametrize("labels", [2, 26], ids=["rule-9", "rule-729"])
class TestPrecomputedEstimator:
    """The once-per-release closed-form estimator matches the per-call path.

    400 entries make every label's variance clearly positive even over
    729 response cells, so the tolerance scales with a real deviation.
    """

    def test_rr_dcr(self, labels):
        space = ResponseSpace(tuple(chr(ord("a") + i) for i in range(labels)))
        timelines = _survey_timelines(space.labels, 400)
        schedule = ReleaseSchedule((3, 8))
        records = rr_dcr(timelines, space, schedule, epsilon=1.0, seed=5)
        for i, (record, window) in enumerate(zip(records, schedule.filters())):
            want = _caller_rule_estimate(
                timelines, space, window, named_stream(5, "rr-dcr", i), 1.0
            )
            _assert_same_estimate(record.estimate, want)

    def test_rr_hdcr(self, labels):
        space = ResponseSpace(tuple(chr(ord("a") + i) for i in range(labels)))
        timelines = _survey_timelines(space.labels, 400)
        params = HdcrParams(height=2, branching=2, start=0, span=8, interval=4)
        records = rr_hdcr(timelines, space, params, 1.0, seed=5)
        # grid prefixes (0, 1] and (0, 2] are single nodes: bottom node 0, then the top node
        assert [r.node_count for r in records] == [1, 1]
        for record, (layer, index) in zip(records, [(0, 0), (1, 0)]):
            want = _caller_rule_estimate(
                timelines, space, params.node_filter(layer, index),
                named_stream(5, "rr-hdcr", layer, index), 1.0,
            )
            _assert_same_estimate(record.estimate, want)


class TestRrHdcr:
    PARAMS = HdcrParams(height=4, branching=2, start=0, span=8, interval=1)

    def test_single_layer_node_counts_grow_linearly(self):
        params = HdcrParams(height=2, branching=2, start=0, span=4, interval=1)
        timelines = {"e0": ((0, "r1"),)}
        records = rr_hdcr(timelines, SPACE, params, 1.0, seed=3)
        assert [r.node_count for r in records] == [1, 1, 2, 2]

    def test_single_layer_accumulates_like_disjoint_release(self):
        # with one layer every prefix is covered by consecutive bottom
        # nodes, so the series is a plain cumulative disjoint release
        params = HdcrParams(height=1, branching=2, start=0, span=2, interval=1)
        timelines = {"e0": ((0, "r1"),)}
        records = rr_hdcr(timelines, SPACE, params, 1.0, seed=3)
        assert [r.node_count for r in records] == [1, 2]
        assert np.all(
            np.diag(records[1].estimate.covariance) >= np.diag(records[0].estimate.covariance) - 1e-12
        )

    def test_aligned_prefix_uses_single_node(self):
        timelines = {"e0": ((0, "r1"),)}
        records = rr_hdcr(timelines, SPACE, self.PARAMS, 1.0, seed=3)
        by_time = {r.time: r.node_count for r in records}
        assert by_time[1] == 1
        assert by_time[2] == 1
        assert by_time[4] == 1
        assert by_time[8] == 1
        assert by_time[7] == 3  # 4 + 2 + 1

    def test_unbiased_for_scripted_changes(self):
        timelines = {
            f"a{i}": ((0, "r1"), (3, "r2")) for i in range(10)
        } | {f"b{i}": ((0, "r2"),) for i in range(10)}
        trials = 500
        total = np.zeros(2)
        for seed in range(trials):
            records = rr_hdcr(timelines, SPACE, self.PARAMS, 2.0, seed=seed)
            total += records[-1].estimate.values
        mean = total / trials
        # over (0, 8]: ten entries moved r1 -> r2, the rest predate the start
        assert np.all(np.abs(mean - np.array([-10.0, 10.0])) <= 1.5)

    def test_too_flat_hierarchy_rejected(self):
        from dpcr.engines import RangeTooWideError

        params = HdcrParams(height=1, branching=2, start=0, span=8, interval=1)
        with pytest.raises(RangeTooWideError):
            rr_hdcr({"e0": ((0, "r1"),)}, SPACE, params, 1.0, seed=1)
