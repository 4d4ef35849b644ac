import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dpcr.changelog import Mutation, TimeRangeFilter, delete, insert, modify
from dpcr.mechanisms import (
    InvalidNoiseError,
    LinearQuerySpec,
    NoiseSpec,
    linear_query_change,
    named_stream,
    perturb,
    sensitivity,
)
from dpcr.oracles import monte_carlo

from conftest import changelogs

WIDE = LinearQuerySpec("identity", 0.0, 200.0)


class TestLinearQueryChange:
    def test_value_change(self):
        assert linear_query_change([modify("x", 1, 50.0, 100.0)], WIDE) == 50.0

    def test_empty_batch(self):
        assert linear_query_change([], WIDE) == 0.0

    def test_full_lifecycle_nets_to_zero(self):
        muts = [insert("x", 1, 3.0), modify("x", 2, 3.0, 7.0), delete("x", 3, 7.0)]
        assert linear_query_change(muts, WIDE) == pytest.approx(0.0)

    def test_truncation_clamps_f_output(self):
        spec = LinearQuerySpec("identity", 0.0, 10.0)
        assert linear_query_change([insert("x", 1, 25.0)], spec) == 10.0
        assert linear_query_change([modify("x", 1, -5.0, 25.0)], spec) == 10.0

    def test_indicator_predicate_sees_raw_value(self):
        spec = LinearQuerySpec("indicator", 0.0, 1.0, predicate=lambda v: v > 50.0)
        assert linear_query_change([insert("x", 1, 60.0)], spec) == 1.0
        assert linear_query_change([modify("x", 2, 60.0, 10.0)], spec) == -1.0

    def test_second_moment(self):
        spec = LinearQuerySpec("second_moment", 0.0, 100.0)
        assert linear_query_change([modify("x", 1, 3.0, 4.0)], spec) == pytest.approx(7.0)

    def test_table_lookup_defaults_missing_to_zero(self):
        spec = LinearQuerySpec("table", 0.0, 5.0, table={1.0: 4.0})
        assert linear_query_change([insert("x", 1, 1.0)], spec) == 4.0
        assert linear_query_change([insert("y", 1, 2.0)], spec) == 0.0

    @given(changelogs(), st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
    def test_additivity_over_consecutive_ranges(self, log, a, b, c):
        a, b, c = sorted((a, b, c))
        if a == b or b == c:
            return
        whole = linear_query_change(log.filter(TimeRangeFilter(a, c)), WIDE)
        parts = linear_query_change(
            log.filter(TimeRangeFilter(a, b)), WIDE
        ) + linear_query_change(log.filter(TimeRangeFilter(b, c)), WIDE)
        assert parts == pytest.approx(whole, abs=1e-9)

    @given(changelogs())
    def test_single_mutation_swing_is_bounded(self, log):
        spec = LinearQuerySpec("identity", 0.0, 50.0)
        muts = list(log.mutations)
        base = linear_query_change(muts, spec)
        for i, m in enumerate(muts):
            dropped = muts[:i] + muts[i + 1 :]
            assert abs(base - linear_query_change(dropped, spec)) <= 50.0 + 1e-9
            swapped = muts.copy()
            swapped[i] = Mutation(m.time, m.entry_id, m.new_value, m.prev_value)
            assert abs(base - linear_query_change(swapped, spec)) <= 2 * 50.0 + 1e-9


class TestSensitivity:
    def test_counting_query(self):
        assert sensitivity(LinearQuerySpec("indicator", 0.0, 1.0, predicate=lambda v: True)) == 1.0

    def test_degenerate_constant_query(self):
        assert sensitivity(LinearQuerySpec("identity", 4.0, 4.0)) == 0.0

    def test_signed_bounds(self):
        assert sensitivity(LinearQuerySpec("identity", -5.0, 3.0)) == 8.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            LinearQuerySpec("identity", 1.0, 0.0)


class TestPerturb:
    def test_deterministic_given_seed_and_stream(self):
        noise = NoiseSpec(0.5, 2.0, seed=11)
        a = perturb(1.0, noise, named_stream(11, "q", 0))
        b = perturb(1.0, noise, named_stream(11, "q", 0))
        assert a == b

    def test_distinct_streams_differ(self):
        noise = NoiseSpec(0.5, 2.0, seed=11)
        a = perturb(1.0, noise, named_stream(11, "q", 0))
        b = perturb(1.0, noise, named_stream(11, "q", 1))
        c = perturb(1.0, noise, named_stream(12, "q", 0))
        assert a != b and a != c

    def test_invalid_noise_rejected(self):
        with pytest.raises(InvalidNoiseError):
            NoiseSpec(0.0, 1.0, seed=1)
        with pytest.raises(InvalidNoiseError):
            NoiseSpec(1.0, -1.0, seed=1)

    def test_monte_carlo_mean(self):
        noise = NoiseSpec(0.5, 2.0, seed=3)
        sigma = math.sqrt(2) * noise.scale
        mc = monte_carlo("mean", lambda rng: perturb(5.0, noise, rng), 100_000, seed=5)
        assert abs(mc.estimate - 5.0) <= 3 * sigma / math.sqrt(mc.trials)

    def test_monte_carlo_variance(self):
        noise = NoiseSpec(0.5, 2.0, seed=3)
        mc = monte_carlo("variance", lambda rng: perturb(0.0, noise, rng), 100_000, seed=6)
        expected = 2 * noise.scale**2
        assert abs(mc.estimate - expected) <= 0.05 * expected


class TestNamedStream:
    def test_string_and_int_parts(self):
        a = named_stream(1, "layer", 3).random()
        b = named_stream(1, "layer", 3).random()
        c = named_stream(1, "layer", 4).random()
        assert a == b != c

    def test_negative_parts_allowed(self):
        assert 0 <= named_stream(-5, -2).random() < 1
