import numpy as np
import pytest

from dpcr.accounting import ReleaseSchedule, SwcrParams
from dpcr.changelog import Changelog, TimeRangeFilter, insert, modify
from dpcr.mechanisms import LinearQuerySpec, linear_query_change
from dpcr.oracles import (
    affected_count_oracle,
    min_cover_oracle,
    monte_carlo,
    most_span_oracle,
    snapshot_oracle,
)

from conftest import changelogs
from hypothesis import given
import hypothesis.strategies as st

COUNTING = LinearQuerySpec("indicator", 0.0, 1.0, predicate=lambda v: True)


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
        assert min_cover_oracle(0, 1, 2, 6) == 1

    def test_reference_case_within_bound(self):
        assert min_cover_oracle(0, 99, 10, 2) <= 18

    def test_aligned_power_is_single_node(self):
        assert min_cover_oracle(0, 32, 2, 6) == 1

    def test_matches_brute_force_on_tiny_universe(self):
        # exhaustive check against enumerating all partitions is overkill;
        # spot-check known values instead
        assert min_cover_oracle(1, 3, 2, 3) == 2  # (1,2] + (2,3]
        assert min_cover_oracle(2, 6, 2, 3) == 2  # (2,4] + (4,6]
        assert min_cover_oracle(1, 8, 2, 3) == 3  # (1,2] + (2,4] + (4,8]


class TestAffectedCountOracle:
    def test_packed_time_bounded_hits_formula(self):
        schedule = ReleaseSchedule.uniform(1, 1, 12)
        muts = [insert("x", 1, 1.0), modify("x", 2, 1.0, 1.0), modify("x", 3, 1.0, 1.0)]
        assert affected_count_oracle(schedule.filters(), muts) == 2 // 1 + 1

    @pytest.mark.parametrize(
        "uniform, times, hits",
        [((2, 2, 5), (3,), 1), ((2, 2, 6), (2, 4, 6, 8), 4), ((2, 2, 5), (), 0)],
        ids=["single-mutation", "k-mutations-in-k-intervals", "empty-entry"],
    )
    def test_disjoint_schedule_counts(self, uniform, times, hits):
        muts = [insert("x", t, 1.0) for t in times[:1]]
        muts += [modify("x", t, 1.0, 1.0) for t in times[1:]]
        assert affected_count_oracle(ReleaseSchedule.uniform(*uniform).filters(), muts) == hits

    def test_sliding_window_single_mutation(self):
        params = SwcrParams(window=14, period=7, first_release=14, count=8)
        assert affected_count_oracle(params.filters(), [insert("x", 20, 1.0)]) <= 2

    def test_empty_entry(self):
        schedule = ReleaseSchedule.uniform(1, 1, 5)
        assert affected_count_oracle(schedule.filters(), []) == 0

    def test_accepts_plain_tuples(self):
        assert affected_count_oracle([(0, 5), (5, 10)], [insert("x", 7, 1.0)]) == 1


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
