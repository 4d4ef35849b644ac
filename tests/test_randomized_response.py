import json
import math
import tracemalloc

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import given

import dpcr.randomized_response as rr
from dpcr.accounting import ReleaseSchedule, dcr_folds, local_folds
from dpcr.changelog import NEG_INF, AtMostK, Changelog, ConsistencyError, TimeRangeFilter
from dpcr.mechanisms import named_stream
from dpcr.oracles import snapshot_at
from dpcr.randomized_response import (
    AnswerMutationSpace,
    HistogramEstimate,
    InvalidEpsilonError,
    ResponseSpace,
    SingularMatrixError,
    UnknownLabelError,
    answer_changelog,
    dump_answer_log,
    estimate_delta_v,
    estimate_from_counts,
    invert_rule,
    load_answer_log,
    net_mutation,
    optimal_rule,
    rr_dcr,
    rr_hdcr,
    sample_responses,
    verify_dp,
)
from dpcr.accounting import HdcrParams

SPACE = ResponseSpace(("r1", "r2"))


def answer_log(timelines: dict, space: ResponseSpace = SPACE) -> Changelog:
    """The changelog of ``{entry: ((t, label or None), ...)}`` answer timelines."""
    return answer_changelog(
        (t, entry, None if label is None else float(space.index(label)))
        for entry, timeline in timelines.items()
        for t, label in timeline
    )


def _label(code: float | None, space: ResponseSpace = SPACE) -> str | None:
    return None if code is None else space.labels[int(code)]


def _snapshot_cells(log: Changelog, space: ResponseSpace, window: TimeRangeFilter) -> list[int]:
    """Every entry's net cell, in entry-id order, from the snapshots at the window's ends."""
    mspace = AnswerMutationSpace(space)
    before = {} if window.start == NEG_INF else snapshot_at(log, window.start)
    after = snapshot_at(log, window.end)
    cells = []
    for e in sorted(log.ids):
        prev, new = before.get(e), after.get(e)
        pair = (None, None) if prev == new else (_label(prev, space), _label(new, space))
        cells.append(mspace.index(*pair))
    return cells


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

    @pytest.mark.parametrize("epsilon", [709.79, 1000.0, math.inf])
    def test_rejects_epsilon_whose_odds_overflow(self, epsilon):
        with pytest.raises(InvalidEpsilonError):
            optimal_rule(3, epsilon)

    def test_columns_sum_to_one(self):
        for size in (2, 9, 26):
            rule = optimal_rule(size, 1.3)
            assert np.allclose(rule.sum(axis=0), 1.0, atol=1e-12)

    def test_closed_form_inverse(self):
        # delta @ inverse is delta / (p - q): the releases' estimate equals the
        # dense-inverse one on the same random counts
        rng = np.random.default_rng(3)
        for labels in (2, 3, 26):
            mspace = AnswerMutationSpace(ResponseSpace(tuple(f"l{i}" for i in range(labels))))
            for epsilon in (0.5, 1.0, 4.0):
                rule = optimal_rule(mspace.size, epsilon)
                counts = rng.integers(0, 400, size=mspace.size)
                got = rr._estimate(counts.reshape(labels + 1, -1), rule[0, 0] - rule[1, 0])
                _assert_same_estimate(got, dense_estimate(counts, rule, mspace.delta_matrix()))

    @pytest.mark.parametrize("epsilon,refused", [(1e-14, True), (1e-6, False)])
    def test_closed_form_refuses_where_invert_rule_refuses(self, epsilon, refused):
        # the optimal rule's 2-norm condition number is exactly 1 / (p - q)
        space = ResponseSpace(("a", "b", "c"))
        log = answer_log({"e": ((1, "a"),)}, space)
        rule = optimal_rule(AnswerMutationSpace(space).size, epsilon)
        assert rule.shape == (16, 16)
        if refused:
            with pytest.raises(SingularMatrixError):
                rr_dcr(log, space, ReleaseSchedule((2,)), epsilon, seed=1)
            with pytest.raises(SingularMatrixError):
                invert_rule(rule)
        else:
            rr_dcr(log, space, ReleaseSchedule((2,)), epsilon, seed=1)
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

    @pytest.mark.parametrize("epsilon", [709.79, 1000.0, math.inf])
    def test_rejects_epsilon_whose_odds_overflow(self, epsilon):
        with pytest.raises(InvalidEpsilonError):
            verify_dp(optimal_rule(3, 1.0), epsilon)


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
    """``net_mutation`` on one entry's batch of mutations inside a window."""

    LOG = answer_log({"e": ((2, "r1"), (5, "r2"), (9, None))})

    @staticmethod
    def net(log: Changelog, start: float, end: int) -> tuple[str | None, str | None]:
        prev, new = net_mutation(log.filter(TimeRangeFilter(start, end)))
        return _label(prev), _label(new)

    def test_answer_at(self):
        # from an empty start the net change ends at the answer held at ``end``
        assert self.net(self.LOG, NEG_INF, 1) == (None, None)
        assert self.net(self.LOG, NEG_INF, 2) == (None, "r1")
        assert self.net(self.LOG, NEG_INF, 7) == (None, "r2")
        assert self.net(self.LOG, NEG_INF, 12) == (None, None)

    def test_net_mutation_composes_changes(self):
        assert self.net(self.LOG, 2, 6) == ("r1", "r2")
        assert self.net(self.LOG, 1, 6) == (None, "r2")
        assert self.net(self.LOG, NEG_INF, 3) == (None, "r1")
        assert self.net(self.LOG, 6, 10) == ("r2", None)

    def test_no_net_change_is_canonical(self):
        log = answer_log({"e": ((2, "r1"), (5, "r2"), (8, "r1"))})
        assert self.net(log, 3, 9) == (None, None)
        assert net_mutation(()) == (None, None)


class TestAnswerLog:
    def write(self, tmp_path, *records):
        path = tmp_path / "answers.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_unsorted_lines_chain_in_time_order(self, tmp_path):
        path = self.write(
            tmp_path,
            {"entry": "e", "t": 5, "answer": "r2"},
            {"entry": "f", "t": 1, "answer": "r2"},
            {"entry": "e", "t": 1, "answer": "r1"},
            {"entry": "e", "t": 7, "answer": None},
        )
        log = load_answer_log(path, SPACE)
        assert [(m.time, m.entry_id, m.prev_value, m.new_value) for m in log] == [
            (1, "e", None, 0.0), (1, "f", None, 1.0), (5, "e", 0.0, 1.0), (7, "e", 1.0, None),
        ]

    @pytest.mark.parametrize(
        "answers",
        [[None], ["r1", None, None]],
        ids=["null-first", "null-after-null"],
    )
    def test_null_answer_without_an_answer_is_refused(self, tmp_path, answers):
        path = self.write(
            tmp_path, *({"entry": "e", "t": t, "answer": a} for t, a in enumerate(answers))
        )
        with pytest.raises(ConsistencyError, match="does not hold"):
            load_answer_log(path, SPACE)

    def test_two_answers_at_one_tick_are_refused(self, tmp_path):
        path = self.write(
            tmp_path, {"entry": "e", "t": 1, "answer": "r1"}, {"entry": "e", "t": 1, "answer": "r2"}
        )
        with pytest.raises(ConsistencyError, match="duplicated"):
            load_answer_log(path, SPACE)

    def test_dump_then_load_round_trips(self, tmp_path):
        log = answer_log({"e": ((2, "r1"), (5, "r1"), (9, None), (11, "r2")), "f": ((5, "r2"),)})
        dump_answer_log(log, SPACE, tmp_path / "out.jsonl")
        assert load_answer_log(tmp_path / "out.jsonl", SPACE) == log


def _random_answer_log(tmp_path, seed: int, space: ResponseSpace) -> Changelog:
    """A seeded answer log with deletions, re-insertions and repeated answers, read
    back from shuffled lines."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(60):
        answer = None
        for t in sorted({int(t) for t in rng.integers(-2, 17, size=rng.integers(1, 7))}):
            # withdraw 30% of the time when holding an answer, else any label, repeats included
            if answer is not None and rng.random() < 0.3:
                answer = None
            else:
                answer = space.labels[int(rng.integers(0, space.size))]
            records.append({"entry": f"e{i:02d}", "t": t, "answer": answer})
    rng.shuffle(records)
    path = tmp_path / f"answers-{seed}.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return load_answer_log(path, space)


@pytest.mark.parametrize("seed", range(5))
def test_survey_cells_equal_snapshot_cells(tmp_path, monkeypatch, seed):
    """Every cell a survey round draws from is the net change between the snapshots
    at the window's ends, an empty snapshot standing for a ``-inf`` start."""
    space = ResponseSpace(("a", "b", "c"))
    log = _random_answer_log(tmp_path, seed, space)
    assert any(m.is_deletion for m in log)
    assert any(m.prev_value == m.new_value for m in log)
    assert any(a.is_deletion and b.is_insertion for e in log.ids
               for a, b in zip(log.for_entry(e), log.for_entry(e)[1:]))
    drawn = []

    draw = rr._draw_responses

    def recording(rng, true_cells, *rule):
        drawn.append(np.asarray(true_cells).tolist())
        return draw(rng, true_cells, *rule)

    monkeypatch.setattr(rr, "_draw_responses", recording)
    schedule = ReleaseSchedule((0, 3, 4, 9, 16))
    rr_dcr(log, space, schedule, 1.0, seed=seed)
    params = HdcrParams(height=3, branching=2, start=-2, span=16, interval=3)
    rr_hdcr(log, space, params, 1.0, seed=seed)
    pairs = [schedule.windows(), *map(params.windows, range(params.height))]
    windows = [window for pair in pairs for window in map(TimeRangeFilter, *pair)]
    assert drawn == [_snapshot_cells(log, space, w) for w in windows]


class TestRrDcr:
    def test_single_entry_single_interval_matches_estimator(self):
        log = answer_log({"e0": ((1, "r1"), (4, "r2"))})
        schedule = ReleaseSchedule((6,))
        records = rr_dcr(log, SPACE, schedule, epsilon=1.0, seed=21)
        mspace = AnswerMutationSpace(SPACE)
        rule = optimal_rule(mspace.size, 1.0)
        u = named_stream(21, "rr-dcr").random(1)
        responses = reference_optimal_draws(u, [mspace.index(None, "r2")], rule)
        values, covariance = dense_estimate(
            np.bincount(responses, minlength=mspace.size), rule, mspace.delta_matrix()
        )
        # one entry has zero plug-in variance, so the values compare by relative error
        assert np.allclose(records[0].estimate.values, values, rtol=1e-12, atol=0.0)
        assert np.allclose(records[0].estimate.covariance, covariance, rtol=0.0, atol=1e-12)

    def test_static_population_centers_on_zero(self):
        log = answer_log({f"e{i}": ((0, "r1"),) for i in range(40)})
        schedule = ReleaseSchedule((4, 8))
        trials = 600
        total = np.zeros(2)
        sq = np.zeros(2)
        for seed in range(trials):
            records = rr_dcr(log, SPACE, schedule, epsilon=1.0, seed=seed)
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
        log = answer_log(timelines)
        schedule = ReleaseSchedule((4, 8, 12))
        truth = np.zeros(2)
        for final in snapshot_at(log, 12).values():
            truth[int(final)] += 1
        trials = 200
        total = np.zeros(2)
        for seed in range(trials):
            records = rr_dcr(log, SPACE, schedule, epsilon=1.0, seed=seed)
            total += sum(r.estimate.values for r in records)
        mean = total / trials
        assert np.all(np.abs(mean - truth) <= 0.05 * len(timelines))

    def test_accounting_bridge_doubles_folds(self):
        schedule = ReleaseSchedule.uniform(4, 4, 6)
        assert local_folds(dcr_folds(schedule, AtMostK(2))) == 4


def _survey_log(space: ResponseSpace, entries: int) -> Changelog:
    rng = np.random.default_rng(17)
    timelines = {}
    for i in range(entries):
        times = sorted({int(t) for t in rng.integers(0, 8, size=3)})
        timelines[f"e{i:03d}"] = tuple(
            (t, space.labels[int(rng.integers(0, space.size))]) for t in times
        )
    return answer_log(timelines, space)


def dense_estimate(counts, rule: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference values and covariance through the dense ``T = delta @ inv(rule)``:
    ``T c`` and ``n T (diag(o) - o o^T) T^T`` for the frequencies ``o = c / n``."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    transform = delta @ np.linalg.inv(rule)
    freqs = counts / n
    covariance = n * transform @ (np.diag(freqs) - np.outer(freqs, freqs)) @ transform.T
    return transform @ counts, covariance


def reference_optimal_draws(u, true_cells, rule: np.ndarray) -> np.ndarray:
    """Entry by entry: keep the true cell for a uniform below the diagonal entry ``p``;
    otherwise take the ``k``-th of the other cells, ``k = floor((u - p) / q)`` clamped
    to the last of them."""
    m = len(rule)
    p, q = rule[0, 0], rule[1, 0]
    draws = []
    for x, j in zip(np.asarray(u).tolist(), true_cells):
        k = min(math.floor((x - p) / q), m - 2) if x >= p else None
        draws.append(j if k is None else k + (k >= j))
    return np.array(draws, dtype=int)


def _round_reference(log, space, window, u, epsilon) -> tuple[np.ndarray, np.ndarray]:
    """The dense estimate of one survey round's responses, drawn entry by entry from
    the round's uniforms ``u``."""
    mspace = AnswerMutationSpace(space)
    rule = optimal_rule(mspace.size, epsilon)
    responses = reference_optimal_draws(u, _snapshot_cells(log, space, window), rule)
    counts = np.bincount(responses, minlength=mspace.size)
    return dense_estimate(counts, rule, mspace.delta_matrix())


def _assert_same_estimate(got: HistogramEstimate, want: tuple[np.ndarray, np.ndarray]) -> None:
    values, covariance = want
    sd = np.sqrt(np.diag(covariance))
    assert np.all(np.abs(got.values - values) <= 1e-9 * sd)
    assert np.abs(got.covariance - covariance).max() <= 1e-9 * np.abs(covariance).max()


@pytest.mark.parametrize("labels", [2, 26], ids=["rule-9", "rule-729"])
class TestPrecomputedEstimator:
    """The releases' closed-form estimates equal a dense ``delta @ inv(rule)`` estimate
    of the same responses, drawn from the documented stream positions.

    400 entries make every label's variance clearly positive even over
    729 response cells, so the tolerance scales with a real deviation.
    """

    def test_rr_dcr(self, labels):
        space = ResponseSpace(tuple(chr(ord("a") + i) for i in range(labels)))
        log = _survey_log(space, 400)
        schedule = ReleaseSchedule((3, 8))
        records = rr_dcr(log, space, schedule, epsilon=1.0, seed=5)
        n = len(log.ids)
        u = named_stream(5, "rr-dcr").random(2 * n)
        windows = map(TimeRangeFilter, *schedule.windows())
        for i, (record, window) in enumerate(zip(records, windows)):
            want = _round_reference(log, space, window, u[i * n:(i + 1) * n], 1.0)
            _assert_same_estimate(record.estimate, want)

    def test_rr_hdcr(self, labels):
        space = ResponseSpace(tuple(chr(ord("a") + i) for i in range(labels)))
        log = _survey_log(space, 400)
        params = HdcrParams(height=2, branching=2, start=0, span=8, interval=4)
        records = rr_hdcr(log, space, params, 1.0, seed=5)
        # grid prefixes (0, 1] and (0, 2] are single nodes: bottom node 0, then the top node
        assert [r.node_count for r in records] == [1, 1]
        for record, layer in zip(records, [0, 1]):
            u = named_stream(5, "rr-hdcr", layer).random(len(log.ids))
            starts, ends = params.windows(layer)
            want = _round_reference(log, space, TimeRangeFilter(starts[0], ends[0]), u, 1.0)
            _assert_same_estimate(record.estimate, want)


def test_extending_a_schedule_or_span_keeps_earlier_rounds():
    space = ResponseSpace(("a", "b", "c"))
    log = _survey_log(space, 200)
    dcr = [rr_dcr(log, space, ReleaseSchedule(ticks), 1.0, seed=4)
           for ticks in ((2, 4), (2, 4, 6, 8))]
    hdcr = [rr_hdcr(log, space, HdcrParams(3, 2, 0, span, 1), 1.0, seed=4) for span in (4, 8)]
    for short, long in (dcr, hdcr):
        assert len(long) == 2 * len(short)
        for a, b in zip(short, long):
            assert (a.time, a.node_count) == (b.time, b.node_count)
            assert np.array_equal(a.estimate.values, b.estimate.values)
            assert np.array_equal(a.estimate.covariance, b.estimate.covariance)


def test_rr_hdcr_memory_is_linear_in_cells():
    # 200 labels make 40,401 cells: one cells x cells float array would take 13 GB
    space = ResponseSpace(tuple(f"l{i:03d}" for i in range(200)))
    log = _survey_log(space, 2000)
    params = HdcrParams(height=3, branching=2, start=0, span=8, interval=2)
    tracemalloc.start()
    try:
        records = rr_hdcr(log, space, params, 1.0, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 4
    assert peak < 64 * 2**20


class TestRrHdcr:
    PARAMS = HdcrParams(height=4, branching=2, start=0, span=8, interval=1)

    def test_single_layer_node_counts_grow_linearly(self):
        params = HdcrParams(height=2, branching=2, start=0, span=4, interval=1)
        log = answer_log({"e0": ((0, "r1"),)})
        records = rr_hdcr(log, SPACE, params, 1.0, seed=3)
        assert [r.node_count for r in records] == [1, 1, 2, 2]

    def test_single_layer_accumulates_like_disjoint_release(self):
        # with one layer every prefix is covered by consecutive bottom
        # nodes, so the series is a plain cumulative disjoint release
        params = HdcrParams(height=1, branching=2, start=0, span=2, interval=1)
        log = answer_log({"e0": ((0, "r1"),)})
        records = rr_hdcr(log, SPACE, params, 1.0, seed=3)
        assert [r.node_count for r in records] == [1, 2]
        assert np.all(
            np.diag(records[1].estimate.covariance) >= np.diag(records[0].estimate.covariance) - 1e-12
        )

    def test_aligned_prefix_uses_single_node(self):
        log = answer_log({"e0": ((0, "r1"),)})
        records = rr_hdcr(log, SPACE, self.PARAMS, 1.0, seed=3)
        by_time = {r.time: r.node_count for r in records}
        assert by_time[1] == 1
        assert by_time[2] == 1
        assert by_time[4] == 1
        assert by_time[8] == 1
        assert by_time[7] == 3  # 4 + 2 + 1

    def test_unbiased_for_scripted_changes(self):
        log = answer_log({
            f"a{i}": ((0, "r1"), (3, "r2")) for i in range(10)
        } | {f"b{i}": ((0, "r2"),) for i in range(10)})
        trials = 500
        total = np.zeros(2)
        for seed in range(trials):
            records = rr_hdcr(log, SPACE, self.PARAMS, 2.0, seed=seed)
            total += records[-1].estimate.values
        mean = total / trials
        # over (0, 8]: ten entries moved r1 -> r2, the rest predate the start
        assert np.all(np.abs(mean - np.array([-10.0, 10.0])) <= 1.5)

    def test_too_flat_hierarchy_rejected(self):
        from dpcr.engines import RangeTooWideError

        params = HdcrParams(height=1, branching=2, start=0, span=8, interval=1)
        with pytest.raises(RangeTooWideError):
            rr_hdcr(answer_log({"e0": ((0, "r1"),)}), SPACE, params, 1.0, seed=1)


def reference_draws(u: np.ndarray, true_cells: np.ndarray, rule: np.ndarray) -> np.ndarray:
    """Entry by entry: its uniform's ``searchsorted`` into the cumulative sum of
    its cell's column, clamped to the last cell."""
    cdf = np.cumsum(rule, axis=0)
    last = rule.shape[0] - 1
    draws = [np.searchsorted(cdf[:, j], x, side="right") for j, x in zip(true_cells, u)]
    return np.array([min(int(d), last) for d in draws], dtype=int)


class StubStream:
    """A stream whose ``random(n)`` returns preset uniforms and records ``n``."""

    def __init__(self, values) -> None:
        self.values = np.asarray(values, dtype=float)
        self.calls: list[int] = []

    def random(self, n: int) -> np.ndarray:
        self.calls.append(n)
        assert n == len(self.values)
        return self.values.copy()


@st.composite
def column_stochastic_rules(draw) -> np.ndarray:
    """Square rules whose columns are normalized integer weights: zero weights make
    CDF plateaus, and a column may be scaled short of 1 by a few ulps, so that its
    cumulative sum ends below 1.0."""
    m = draw(st.integers(1, 7))
    columns = []
    for _ in range(m):
        weights = np.array(draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)), dtype=float)
        if not weights.any():
            weights[draw(st.integers(0, m - 1))] = 1.0
        short = draw(st.sampled_from([0.0, 2.0**-53, 2.0**-50, 1e-12]))
        columns.append(weights / weights.sum() * (1.0 - short))
    return np.column_stack(columns)


def uniforms(cdf: np.ndarray) -> st.SearchStrategy[float]:
    """Values in ``[0, 1)``, often exactly a CDF entry or the largest float below 1."""
    special = {float(c) for c in cdf.ravel() if c < 1.0} | {0.0, np.nextafter(1.0, 0.0)}
    return st.one_of(st.sampled_from(sorted(special)), st.floats(0.0, 1.0, exclude_max=True))


def cell_arrays(m: int) -> st.SearchStrategy[list[int]]:
    return st.one_of(
        st.lists(st.integers(0, m - 1), max_size=40),
        st.just([]),
        st.integers(0, m - 1).map(lambda j: [j]),
        st.permutations(range(m)),  # every cell at once
    )


class TestGroupedDraw:
    """``sample_responses``, the generic-rule draw, equals a per-entry ``searchsorted``
    reference, draw for draw."""

    @given(st.data())
    def test_equals_per_entry_reference_on_a_stub_stream(self, data):
        rule = data.draw(column_stochastic_rules())
        cells = np.array(data.draw(cell_arrays(len(rule))), dtype=int)
        u = data.draw(st.lists(uniforms(np.cumsum(rule, axis=0)),
                               min_size=len(cells), max_size=len(cells)))
        want = reference_draws(np.array(u), cells, rule)
        stream = StubStream(u)
        got = sample_responses(stream, cells, rule)
        assert stream.calls == [len(cells)]
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @given(column_stochastic_rules(), st.data(), st.integers(0, 2**32 - 1))
    def test_equals_per_entry_reference_on_a_generator(self, rule, data, seed):
        cells = np.array(data.draw(cell_arrays(len(rule))), dtype=int)
        want = reference_draws(np.random.default_rng(seed).random(len(cells)), cells, rule)
        assert np.array_equal(sample_responses(np.random.default_rng(seed), cells, rule), want)

    def test_uniform_past_a_short_column_takes_the_last_cell(self):
        rule = np.full((10, 10), 0.1)
        cdf = np.cumsum(rule, axis=0)
        assert cdf[-1, 0] < 1.0
        u = [np.nextafter(1.0, 0.0), cdf[-1, 3], cdf[4, 5], 0.0]
        cells = np.array([0, 3, 5, 5])
        assert reference_draws(np.array(u), cells, rule).tolist() == [9, 9, 5, 0]
        assert sample_responses(StubStream(u), cells, rule).tolist() == [9, 9, 5, 0]


# at 3.35 the uniform just below 1 gives floor((u - p) / q) = m - 1 for the 9, 16 and
# 729 cells of 2, 3 and 26 labels, so the draw's clamp to the last other cell is hit
CLAMP_EPSILON = 3.35


class TestOptimalDraw:
    """The releases' draw from the optimal rule's two entries (``_draw_responses``)."""

    @given(st.sampled_from([2, 3, 26]), st.floats(0.05, 12.0), st.data())
    def test_equals_per_entry_reference_on_a_stub_stream(self, labels, epsilon, data):
        m = (labels + 1) ** 2
        rule = optimal_rule(m, epsilon)
        p, q = rule[0, 0], rule[1, 0]
        cells = np.array(data.draw(cell_arrays(m)), dtype=int)
        edges = [p + k * q for k in range(min(m, 40))] + [p, np.nextafter(p, 0.0), 0.0]
        special = st.sampled_from([x for x in edges if x < 1.0] + [np.nextafter(1.0, 0.0)])
        u = data.draw(st.lists(st.one_of(special, st.floats(0.0, 1.0, exclude_max=True)),
                               min_size=len(cells), max_size=len(cells)))
        stream = StubStream(u)
        got = rr._draw_responses(stream, cells, m, p, q)
        assert stream.calls == [len(cells)]
        assert np.array_equal(got, reference_optimal_draws(u, cells, rule))

    @pytest.mark.parametrize("labels", [2, 3, 26])
    def test_uniform_just_below_one_takes_the_last_other_cell(self, labels):
        m = (labels + 1) ** 2
        p, q = rr._rule_entries(m, CLAMP_EPSILON)
        top = np.nextafter(1.0, 0.0)
        assert math.floor((top - p) / q) == m - 1  # past the other cells: the clamp applies
        cells = np.array([0, m - 2, m - 1])
        got = rr._draw_responses(StubStream([top] * 3), cells, m, p, q)
        assert got.tolist() == [m - 1, m - 1, m - 2]

    @pytest.mark.parametrize("epsilon", [1.0, CLAMP_EPSILON])
    @pytest.mark.parametrize("labels", [2, 3, 26])
    def test_frequencies_per_column(self, labels, epsilon):
        """A chi-square test of every column's response counts against ``p`` on the
        diagonal and ``q`` elsewhere, with at least 5 expected draws per cell."""
        m = (labels + 1) ** 2
        rule = optimal_rule(m, epsilon)
        per_column = max(2000, math.ceil(8 / rule[1, 0]))
        cells = np.repeat(np.arange(m), per_column)
        rng = np.random.default_rng(labels)
        drawn = rr._draw_responses(rng, cells, m, *rr._rule_entries(m, epsilon))
        counts = np.bincount(cells * m + drawn, minlength=m * m).reshape(m, m)
        expected = per_column * rule.T  # row j: the expected counts of column j
        chi2 = ((counts - expected) ** 2 / expected).sum(axis=1)
        smallest = min(float(mpmath.gammainc((m - 1) / 2, x / 2, mpmath.inf, regularized=True))
                       for x in chi2)
        assert smallest > 1e-6
