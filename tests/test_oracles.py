import numpy as np
import pytest

from dpcr.accounting import ReleaseSchedule, SwcrParams
from dpcr.changelog import NEG_INF, Changelog, TimeRangeFilter, insert, modify
from dpcr.mechanisms import LinearQuerySpec, linear_query_change
from dpcr.oracles import (
    FAR_PAST,
    affected_count_oracle,
    min_cover_oracle,
    monte_carlo,
    most_span_oracle,
    snapshot_oracle,
)

from conftest import affected_count, changelogs
from hypothesis import given
import hypothesis.strategies as st

COUNTING = LinearQuerySpec("indicator", 0.0, 1.0, threshold=float("-inf"))


class TestSnapshotOracle:
    def test_empty_log(self):
        assert snapshot_oracle(Changelog(()), 5, COUNTING) == 0.0

    def test_counts_insertions(self):
        log = Changelog.from_unsorted([insert(f"e{i}", i, 1.0) for i in range(7)])
        assert snapshot_oracle(log, 6, COUNTING) == 7.0

    @given(changelogs(), st.integers(0, 24), st.integers(0, 24))
    def test_difference_equals_exact_change(self, log, a, b):
        a, b = min(a, b), max(a, b)
        if a == b:
            return
        spec = LinearQuerySpec("identity", 0.0, 100.0)
        delta = linear_query_change(log.filter(TimeRangeFilter(a, b)), spec)
        assert snapshot_oracle(log, b, spec) - snapshot_oracle(log, a, spec) == pytest.approx(
            delta, abs=1e-9
        )


class TestMinCoverOracle:
    def test_unit_range(self):
        assert min_cover_oracle(1, 2, 6)[0] == 1

    def test_reference_case_within_bound(self):
        assert min_cover_oracle(99, 10, 2)[0] <= 18

    def test_aligned_power_is_single_node(self):
        assert min_cover_oracle(32, 2, 6)[0] == 1

    def test_matches_brute_force_on_tiny_universe(self):
        # exhaustive check against enumerating all partitions is overkill;
        # spot-check known values instead
        assert min_cover_oracle(3, 2, 3)[1] == 2  # (1,2] + (2,3]
        assert min_cover_oracle(6, 2, 3)[2] == 2  # (2,4] + (4,6]
        assert min_cover_oracle(8, 2, 3)[1] == 3  # (1,2] + (2,4] + (4,8]


class TestAffectedCountOracle:
    def test_packed_time_bounded_hits_formula(self):
        schedule = ReleaseSchedule.uniform(1, 1, 12)
        muts = [insert("x", 1, 1.0), modify("x", 2, 1.0, 1.0), modify("x", 3, 1.0, 1.0)]
        assert affected_count(schedule.windows(), muts) == 2 // 1 + 1

    @pytest.mark.parametrize(
        "uniform, times, hits",
        [((2, 2, 5), (3,), 1), ((2, 2, 6), (2, 4, 6, 8), 4), ((2, 2, 5), (), 0)],
        ids=["single-mutation", "k-mutations-in-k-intervals", "empty-entry"],
    )
    def test_disjoint_schedule_counts(self, uniform, times, hits):
        muts = [insert("x", t, 1.0) for t in times[:1]]
        muts += [modify("x", t, 1.0, 1.0) for t in times[1:]]
        assert affected_count(ReleaseSchedule.uniform(*uniform).windows(), muts) == hits

    def test_sliding_window_single_mutation(self):
        params = SwcrParams(window=14, period=7, first_release=14, count=8)
        assert affected_count(params.windows(), [insert("x", 20, 1.0)]) <= 2

    def test_empty_entry(self):
        schedule = ReleaseSchedule.uniform(1, 1, 5)
        assert affected_count(schedule.windows(), []) == 0

    def test_accepts_plain_tuples(self):
        assert affected_count(((0, 5), (5, 10)), [insert("x", 7, 1.0)]) == 1


def affected_count_reference(filters, entry_muts) -> int:
    """Per-instance count of filters containing at least one mutation time:
    the loop ``affected_count_oracle`` runs on padded arrays."""
    count = 0
    for f in filters:
        start, end = (f[0], f[1]) if isinstance(f, tuple) else (f.start, f.end)
        if any(start < m.time <= end for m in entry_muts):
            count += 1
    return count


@st.composite
def padded_instances(draw):
    """Padded oracle rows and the instances they stand for.

    Windows may open at ``-inf``; rows are padded with empty windows and
    with repeated times or ``FAR_PAST``, and an entry may have no mutation.
    """
    window = st.tuples(st.integers(-20, 20), st.integers(1, 10)).map(lambda p: (p[0], p[0] + p[1]))
    rows = draw(st.lists(
        st.tuples(st.lists(window, min_size=1, max_size=5), st.booleans(),
                  st.lists(st.integers(-25, 25), max_size=5)),
        min_size=1, max_size=6,
    ))
    width = max(len(w) for w, _, _ in rows) + draw(st.integers(0, 2))
    depth = max(1, max(len(t) for _, _, t in rows)) + draw(st.integers(0, 2))
    starts = np.empty((len(rows), width), dtype=np.int64)
    ends = np.empty_like(starts)
    times = np.empty((len(rows), depth), dtype=np.int64)
    instances = []
    for i, (windows, from_past, row_times) in enumerate(rows):
        if from_past:
            windows = [(NEG_INF, windows[0][1])] + windows[1:]
        for j in range(width):
            if j < len(windows):
                start, ends[i, j] = windows[j]
                starts[i, j] = FAR_PAST if start == NEG_INF else start
            else:  # empty: the start is at or after the end
                ends[i, j] = draw(st.integers(-30, 30))
                starts[i, j] = ends[i, j] + draw(st.integers(0, 3))
        padding = st.sampled_from([FAR_PAST, *row_times])
        times[i] = row_times + [draw(padding) for _ in range(depth - len(row_times))]
        instances.append((windows, [insert("x", t, 1.0) for t in row_times]))
    return starts, ends, times, instances


class TestBatchedAffectedCount:
    @given(padded_instances())
    def test_equals_per_instance_reference(self, drawn):
        starts, ends, times, instances = drawn
        expected = [affected_count_reference(w, muts) for w, muts in instances]
        assert affected_count_oracle(starts, ends, times).tolist() == expected

    def test_padding_cases(self):
        # rows: a -inf first start, one window, no mutation, repeated times
        starts = [[FAR_PAST, 3, 0], [2, 0, 0], [FAR_PAST, 5, 0], [0, 4, 9]]
        ends = [[3, 6, 0], [4, 0, 0], [5, 9, 0], [4, 8, 7]]
        times = [[1, 6, FAR_PAST], [4, 4, 4], [FAR_PAST] * 3, [8, 8, 1]]
        instances = [
            ([(NEG_INF, 3), (3, 6)], [1, 6]),
            ([(2, 4)], [4]),
            ([(NEG_INF, 5), (5, 9)], []),
            ([(0, 4), (4, 8)], [8, 1]),
        ]
        expected = [
            affected_count_reference(w, [insert("x", t, 1.0) for t in ts]) for w, ts in instances
        ]
        assert expected == [2, 1, 0, 2]
        assert affected_count_oracle(starts, ends, times).tolist() == expected

    def test_refuses_non_integer_or_misshapen_input(self):
        with pytest.raises(TypeError):
            affected_count_oracle([[0.0]], [[1.0]], [[1]])
        with pytest.raises(ValueError):
            affected_count_oracle([0], [1], [[1]])
        with pytest.raises(ValueError):
            affected_count_oracle([[0]], [[1]], [[1], [2]])


def per_low_min_cover(low, high, branching, height):
    """The minimum for one ``(low, high]``, by the same DP run down to ``low`` only."""
    best = {high: 0}
    for a in range(high - 1, low - 1, -1):
        best[a] = min(
            1 + best[a + branching**level]
            for level in range(height)
            if a % branching**level == 0 and a + branching**level <= high
        )
    return best[low]


@pytest.mark.parametrize("branching,height,top", [(2, 4, 20), (3, 3, 30), (10, 2, 40)])
def test_min_cover_for_every_low_equals_per_low_dp(branching, height, top):
    for high in range(1, top + 1):
        assert min_cover_oracle(high, branching, height) == [
            per_low_min_cover(low, high, branching, height) for low in range(high)
        ]


def test_oracles_import_no_engine_paths():
    # dependency direction guard: oracle computations must stay
    # independent of the code they are used to check
    import inspect

    import dpcr.oracles

    source = inspect.getsource(dpcr.oracles)
    for banned in ("from .engines", "from .accounting", "from .verification",
                   "import dpcr.engines", "import dpcr.accounting"):
        assert banned not in source


class TestMostSpanOracle:
    def test_matches_documented_cases(self):
        assert most_span_oracle([0, 1, 2, 3], 1) == 2
        assert most_span_oracle([5], 3) == 0
        # a window wider than the whole schedule finds no qualifying pair
        assert most_span_oracle([0, 3], 100) == 0


class TestMonteCarlo:
    def test_constant_sampler_has_zero_variance(self):
        mc = monte_carlo("variance", lambda rng: 4.2, 500, seed=1)
        assert mc.estimate == pytest.approx(0.0, abs=1e-15)

    def test_laplace_variance_closed_form(self):
        scale = 3.0
        mc = monte_carlo("variance", lambda rng: rng.laplace(0.0, scale), 100_000, seed=2)
        assert abs(mc.estimate - 2 * scale**2) <= 0.05 * 2 * scale**2

    def test_discrete_frequencies(self):
        probs = np.array([0.7, 0.2, 0.1])

        def sampler(rng):
            draw = rng.random()
            one_hot = np.zeros(3)
            one_hot[np.searchsorted(np.cumsum(probs), draw, side="right")] = 1.0
            return one_hot

        mc = monte_carlo("mean", sampler, 100_000, seed=3)
        assert np.all(np.abs(mc.estimate - probs) <= 3.5 * mc.stderr)

    def test_requires_minimum_trials(self):
        with pytest.raises(ValueError):
            monte_carlo("mean", lambda rng: 0.0, 99, seed=1)

    def test_deterministic_per_seed(self):
        a = monte_carlo("mean", lambda rng: rng.random(), 200, seed=9)
        b = monte_carlo("mean", lambda rng: rng.random(), 200, seed=9)
        assert a.estimate == b.estimate

    def test_covariance_of_vector_sampler(self):
        def sampler(rng):
            x = rng.normal()
            return np.array([x, -x])

        mc = monte_carlo("covariance", sampler, 5000, seed=4)
        assert mc.estimate[0, 1] == pytest.approx(-mc.estimate[0, 0])
