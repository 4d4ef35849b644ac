import json

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from dpcr.changelog import (
    AtMostK,
    Changelog,
    ConsistencyError,
    DuplicateEntryError,
    Hybrid,
    Mutation,
    MutationConstraint,
    NEG_INF,
    TimeBounded,
    TimeRangeFilter,
    adjacent_changelog,
    delete,
    dump_changelog,
    insert,
    load_changelog,
    modify,
    validate_constraint,
    without_entry,
)
from dpcr.oracles import apply_mutations, snapshot_at
from dpcr.randomized_response import answer_changelog

from conftest import changelogs


class TestApplyMutations:
    def test_single_insertion(self):
        assert apply_mutations({}, [insert("x", 1, 50.0)]) == {"x": 50.0}

    def test_value_change(self):
        assert apply_mutations({"x": 50.0}, [modify("x", 2, 50.0, 100.0)]) == {"x": 100.0}

    def test_deletion_empties(self):
        assert apply_mutations({"x": 100.0}, [delete("x", 3, 100.0)]) == {}

    def test_input_snapshot_unchanged(self):
        before = {"x": 50.0}
        apply_mutations(before, [modify("x", 2, 50.0, 100.0)])
        assert before == {"x": 50.0}

    def test_rejects_mismatched_prev_value(self):
        with pytest.raises(ConsistencyError, match="#1"):
            apply_mutations({}, [insert("x", 1, 5.0), modify("x", 2, 6.0, 7.0)])

    def test_rejects_insertion_of_present_entry(self):
        with pytest.raises(ConsistencyError, match="insertion"):
            apply_mutations({"x": 1.0}, [insert("x", 4, 2.0)])


class TestMutation:
    def test_rejects_null_to_null(self):
        with pytest.raises(ConsistencyError):
            Mutation(1, "x", None, None)

    def test_insertion_and_deletion_flags(self):
        assert insert("x", 1, 2.0).is_insertion
        assert delete("x", 1, 2.0).is_deletion
        assert not modify("x", 1, 1.0, 2.0).is_insertion


class TestChangelogValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(ConsistencyError, match="out of order"):
            Changelog([insert("x", 5, 1.0), insert("y", 1, 1.0)])

    def test_rejects_tie_out_of_entry_order(self):
        with pytest.raises(ConsistencyError, match="out of order"):
            Changelog([insert("b", 1, 1.0), insert("a", 1, 1.0)])

    def test_rejects_duplicate_entry_time(self):
        with pytest.raises(ConsistencyError, match="out of order"):
            Changelog([insert("x", 1, 1.0), Mutation(1, "x", 1.0, 2.0)])

    def test_rejects_chain_starting_with_modification(self):
        with pytest.raises(ConsistencyError, match="expected an insertion"):
            Changelog([modify("x", 1, 1.0, 2.0)])

    def test_rejects_broken_chain(self):
        with pytest.raises(ConsistencyError, match="does not match"):
            Changelog([insert("x", 1, 1.0), modify("x", 2, 9.0, 2.0)])

    def test_rejects_second_insertion_without_deletion(self):
        with pytest.raises(ConsistencyError):
            Changelog([insert("x", 1, 1.0), insert("x", 2, 2.0)])

    def test_reinsertion_after_deletion(self):
        log = Changelog([insert("x", 1, 1.0), delete("x", 2, 1.0), insert("x", 3, 5.0)])
        assert snapshot_at(log, 3) == {"x": 5.0}

    def test_ties_sort_by_entry_id(self):
        log = Changelog.from_unsorted([insert("b", 1, 2.0), insert("a", 1, 1.0)])
        assert [m.entry_id for m in log] == ["a", "b"]


def _check_chain(entry_id: str, chain: list[Mutation]) -> None:
    """The per-chain reference: an insertion first, then each ``prev_value``
    equal to the ``new_value`` before it."""
    if not chain[0].is_insertion:
        raise ConsistencyError(
            f"entry {entry_id!r} starts with prev_value="
            f"{chain[0].prev_value!r} at t={chain[0].time}, expected an insertion"
        )
    for before, after in zip(chain, chain[1:]):
        if after.prev_value != before.new_value:
            raise ConsistencyError(
                f"entry {entry_id!r} at t={after.time}: prev_value "
                f"{after.prev_value!r} does not match earlier value {before.new_value!r}"
            )


def reference_check(muts: list[Mutation]) -> str | None:
    """The row-by-row validation: strict ``(time, entry_id)`` order, then
    ``_check_chain`` per entry in sorted-id order; the error message, or
    None for a consistent log."""
    keys = [(m.time, m.entry_id) for m in muts]
    for m, before, after in zip(muts[1:], keys, keys[1:]):
        if after <= before:
            return f"mutations out of order or duplicated at t={m.time}, entry {m.entry_id!r}"
    chains: dict[str, list[Mutation]] = {}
    for m in muts:
        chains.setdefault(m.entry_id, []).append(m)
    try:
        for entry_id in sorted(chains):
            _check_chain(entry_id, chains[entry_id])
    except ConsistencyError as exc:
        return str(exc)
    return None


@st.composite
def perturbed_logs(draw):
    """A consistent log's mutations with two rows swapped (often neighbours,
    which may share a time), one ``(t, entry)`` pair duplicated, or one
    link broken."""
    muts = list(draw(changelogs()).mutations)
    if not muts:
        return muts
    i = draw(st.integers(0, len(muts) - 1))
    kind = draw(st.sampled_from(["swap", "swap-next", "duplicate", "break"]))
    m = muts[i]
    if kind.startswith("swap"):
        if kind == "swap-next":
            j = min(i + 1, len(muts) - 1)
        else:
            j = draw(st.integers(0, len(muts) - 1))
        muts[i], muts[j] = muts[j], muts[i]
    elif kind == "duplicate":
        muts.insert(i + 1, Mutation(m.time, m.entry_id, m.new_value, 7.0))
    else:  # break the link into row i
        choices = [7.0] if m.prev_value is None else [m.prev_value + 1.0]
        if m.prev_value is not None and m.new_value is not None:
            choices.append(None)
        muts[i] = Mutation(m.time, m.entry_id, draw(st.sampled_from(choices)), m.new_value)
    return muts


class TestColumnValidation:
    @given(perturbed_logs())
    def test_raises_exactly_when_the_row_by_row_check_does(self, muts):
        expected = reference_check(muts)
        if expected is None:
            assert list(Changelog(muts)) == muts
        else:
            with pytest.raises(ConsistencyError) as info:
                Changelog(muts)
            assert str(info.value) == expected

    def test_ids_are_sorted_and_codes_are_their_ranks(self):
        log = Changelog([insert("c", 1, 1.0), insert("a", 2, 1.0), insert("b", 3, 1.0),
                         modify("c", 3, 1.0, 2.0)])
        assert log.ids == ("a", "b", "c")
        assert log.codes.tolist() == [2, 0, 1, 2]

    def test_columns_are_read_only(self):
        log = Changelog([insert("b", 1, 1.0), insert("a", 2, 1.0)])
        with pytest.raises(ValueError):
            log.times[0] = 5
        with pytest.raises(ValueError):
            log.codes[0] = 5

    def test_first_broken_chain_in_id_order_is_named(self):
        # "b" appears first, but "a" is the alphabetically first broken entry
        muts = [insert("b", 1, 1.0), insert("a", 2, 1.0), modify("b", 3, 9.0, 2.0),
                modify("a", 4, 8.0, 2.0)]
        with pytest.raises(ConsistencyError) as info:
            Changelog(muts)
        assert str(info.value) == (
            "entry 'a' at t=4: prev_value 8.0 does not match earlier value 1.0"
        )
        assert str(info.value) == reference_check(muts)


def columns_of(log: Changelog) -> tuple:
    return (log.times, log.codes, log.ids, log.prev, log.new, log.has_prev, log.has_new)


class TestFromColumnsCodes:
    """``from_columns`` renumbers codes to the ranks of the sorted ids and drops unused ids."""

    ROWS = [insert("y", 1, 1.0), insert("x", 2, 1.0), modify("y", 3, 1.0, 2.0)]

    @pytest.mark.parametrize(
        "codes, ids",
        [
            ([0, 1, 0], ("y", "x")),  # ids unsorted, in first-appearance order, every one used
            ([1, 0, 1], ("x", "y", "z")),  # a trailing id unused
            ([0, 2, 0], ("y", "xx", "x")),  # an unused id that sorts between used ones
            ([1, 2, 1], ("0", "y", "x")),  # no row has code 0, whose id sorts first
        ],
        ids=["out-of-order", "unused-last", "unused-middle", "unused-first"],
    )
    def test_renumbers_and_drops(self, codes, ids):
        log = Changelog(self.ROWS)
        times, _, _, prev, new, has_prev, has_new = columns_of(log)
        got = Changelog.from_columns(times, np.array(codes), ids, prev, new, has_prev, has_new)
        assert got.ids == ("x", "y")
        assert got.codes.tolist() == [1, 0, 1]
        assert got == log

    def test_keeps_codes_that_are_already_ranks(self):
        log = Changelog(self.ROWS)
        times, _, _, prev, new, has_prev, has_new = columns_of(log)
        got = Changelog.from_columns(
            times, np.array([1, 0, 1]), ["x", "y"], prev, new, has_prev, has_new
        )
        assert got.ids == ("x", "y") and isinstance(got.ids, tuple)
        assert got.codes.tolist() == [1, 0, 1]
        assert got == log

    @given(changelogs(), st.data())
    def test_any_code_numbering_gives_the_same_log(self, log, data):
        """Codes relabelled by a random permutation, with unused ids mixed in."""
        extra = data.draw(st.integers(0, 3))
        size = len(log.ids) + extra
        perm = data.draw(st.permutations(range(size)))
        ids = [f"unused{i}" for i in range(size)]
        for code, entry in enumerate(log.ids):
            ids[perm[code]] = entry
        codes = np.array(perm, dtype=np.int64)[log.codes]
        times, _, _, prev, new, has_prev, has_new = columns_of(log)
        got = Changelog.from_columns(times, codes, ids, prev, new, has_prev, has_new)
        assert got.ids == log.ids
        assert np.array_equal(got.codes, log.codes)
        assert got == log


class TestStoredRanks:
    """A log's entry codes are the ranks of its ids in sorted order, whichever
    constructor built it, and every id is used."""

    @given(changelogs())
    def test_equal_id_ranks_for_every_constructor(self, log):
        muts = log.mutations
        rebuilt = Changelog.from_columns(*columns_of(log))
        answers = answer_changelog(
            (m.time, m.entry_id, m.new_value) for m in reversed(muts) if m.new_value is not None
        )
        for built in (log, Changelog(muts), rebuilt, Changelog.from_unsorted(muts[::-1]),
                      answers):
            assert list(built.ids) == sorted(set(built.ids))
            assert built.codes.dtype == np.int64
            assert sorted(set(built.codes.tolist())) == list(range(len(built.ids)))
            assert [built.ids[c] for c in built.codes] == [m.entry_id for m in built]
            assert not built.codes.flags.writeable

    def test_ranks_follow_sorted_ids_not_codes(self):
        # first appearance would number c, a, b as 0, 1, 2
        log = Changelog.from_unsorted(
            [insert("b", 3, 1.0), insert("c", 1, 1.0), insert("a", 2, 1.0)]
        )
        assert log.ids == ("a", "b", "c")
        assert log.codes.tolist() == [2, 0, 1]


class TestFilter:
    def test_half_open_boundary(self):
        log = Changelog.from_unsorted(
            [insert("a", 1, 1.0), insert("b", 2, 1.0), insert("c", 3, 1.0)]
        )
        got = log.filter(TimeRangeFilter(1, 3))
        assert [m.time for m in got] == [2, 3]

    def test_unbounded_start(self):
        log = Changelog.from_unsorted([insert("a", -10, 1.0), insert("b", 4, 1.0)])
        assert len(log.filter(TimeRangeFilter(NEG_INF, 4))) == 2

    def test_disjoint_filters_partition(self):
        log = Changelog.from_unsorted([insert("a", 1, 1.0), insert("b", 2, 1.0)])
        first = log.filter(TimeRangeFilter(0, 1))
        second = log.filter(TimeRangeFilter(1, 2))
        assert [m.time for m in first] == [1]
        assert [m.time for m in second] == [2]

    @given(changelogs(), st.lists(st.integers(0, 24), min_size=2, max_size=6, unique=True))
    def test_consecutive_filters_partition_span(self, log, ticks):
        ticks = sorted(ticks)
        filters = [TimeRangeFilter(a, b) for a, b in zip(ticks, ticks[1:])]
        pieces = [m for f in filters for m in log.filter(f)]
        direct = log.filter(TimeRangeFilter(ticks[0], ticks[-1]))
        assert sorted(pieces, key=lambda m: (m.time, m.entry_id)) == list(direct)

    @given(changelogs(), st.integers(0, 24), st.integers(0, 24))
    def test_snapshot_equals_incremental_fold(self, log, t_mid, t_end):
        t_mid, t_end = min(t_mid, t_end), max(t_mid, t_end)
        direct = snapshot_at(log, t_end)
        staged = apply_mutations(
            snapshot_at(log, t_mid),
            log.filter(TimeRangeFilter(t_mid, t_end)) if t_mid < t_end else (),
        )
        assert staged == direct


class TestAdjacent:
    def base(self):
        return Changelog.from_unsorted([insert("a", 1, 1.0), modify("a", 5, 1.0, 2.0)])

    def test_merges_sorted(self):
        merged = adjacent_changelog(self.base(), [insert("b", 3, 9.0)])
        assert [m.entry_id for m in merged] == ["a", "b", "a"]

    def test_length_arithmetic(self):
        muts = [insert("b", 2, 1.0), modify("b", 3, 1.0, 2.0), delete("b", 4, 2.0)]
        merged = adjacent_changelog(self.base(), muts)
        assert len(merged) == len(self.base()) + 3

    def test_round_trip(self):
        merged = adjacent_changelog(self.base(), [insert("b", 3, 9.0)])
        assert without_entry(merged, "b") == self.base()

    def test_broken_chain_rejected(self):
        with pytest.raises(ConsistencyError, match="'b' starts with prev_value=1.0 at t=3"):
            adjacent_changelog(self.base(), [modify("b", 3, 1.0, 2.0)])

    def test_duplicate_entry_rejected(self):
        with pytest.raises(DuplicateEntryError):
            adjacent_changelog(self.base(), [insert("a", 9, 1.0)])

    def test_entry_set_hamming_distance_is_one(self):
        merged = adjacent_changelog(self.base(), [insert("b", 3, 9.0)])
        assert set(merged.ids) - set(self.base().ids) == {"b"}


def verdicts(log: Changelog, constraint) -> list[bool]:
    """``validate_constraint``'s verdicts, checked to be a bool array aligned with ``log.ids``."""
    found = validate_constraint(log, constraint)
    assert isinstance(found, np.ndarray) and found.dtype == bool
    assert found.shape == (len(log.ids),)
    return found.tolist()


def entry_satisfies(chain: tuple[Mutation, ...], constraint: MutationConstraint) -> bool:
    """Whether one entry's mutation chain satisfies a constraint: the per-chain
    reference for ``validate_constraint``.

    AtMostK counts every mutation (insertion and deletion included);
    TimeBounded measures last mutation time minus insertion time.
    An empty chain passes vacuously.
    """
    if not chain:
        return True
    if isinstance(constraint, AtMostK):
        return len(chain) <= constraint.k
    if isinstance(constraint, TimeBounded):
        return chain[-1].time - chain[0].time <= constraint.bound
    return any(entry_satisfies(chain, b) for b in constraint.branches)


class TestConstraints:
    def test_at_most_k_boundary(self):
        log = Changelog.from_unsorted([insert("x", 0, 1.0), modify("x", 4, 1.0, 2.0)])
        assert verdicts(log, AtMostK(2)) == [True]
        assert verdicts(log, AtMostK(1)) == [False]

    def test_time_bounded_boundary(self):
        log = Changelog.from_unsorted([insert("x", 0, 1.0), modify("x", 5, 1.0, 2.0)])
        assert verdicts(log, TimeBounded(4)) == [False]
        assert verdicts(log, TimeBounded(5)) == [True]

    def test_hybrid_passes_if_any_branch_passes(self):
        muts = [insert("x", 0, 1.0), modify("x", 3, 1.0, 2.0), modify("x", 8, 2.0, 3.0)]
        log = Changelog.from_unsorted(muts)
        hybrid = Hybrid((AtMostK(1), TimeBounded(10)))
        assert verdicts(log, hybrid) == [True]
        assert verdicts(log, Hybrid((AtMostK(1), TimeBounded(2)))) == [False]

    def test_deletion_counts_as_mutation(self):
        log = Changelog.from_unsorted([insert("x", 0, 1.0), delete("x", 9, 1.0)])
        assert verdicts(log, TimeBounded(8)) == [False]

    @given(changelogs(max_entries=8), st.integers(1, 6), st.integers(0, 30),
           st.integers(1, 6), st.integers(0, 30))
    def test_equals_per_entry_reference(self, log, k, bound, k2, bound2):
        nested = Hybrid((TimeBounded(bound2), Hybrid((AtMostK(k2), TimeBounded(bound)))))
        for constraint in (AtMostK(k), TimeBounded(bound),
                           Hybrid((AtMostK(k), TimeBounded(bound))), nested):
            assert verdicts(log, constraint) == [
                entry_satisfies(log.for_entry(e), constraint) for e in log.ids
            ]

    def test_span_beyond_int64_difference(self):
        # last - first exceeds the int64 range; the verdict must not wrap
        log = Changelog([insert("x", -(2**62) - 5, 1.0), modify("x", 2**62 + 5, 1.0, 2.0)])
        assert verdicts(log, TimeBounded(2**63 - 1)) == [False]
        assert verdicts(log, TimeBounded(2**63 + 10)) == [True]
        assert verdicts(log, AtMostK(10**30)) == [True]

    def test_hybrid_requires_branches(self):
        with pytest.raises(ValueError):
            Hybrid(())


class TestJsonl:
    def test_round_trip(self, tmp_path):
        log = Changelog.from_unsorted(
            [insert("a", 1, 1.5), modify("a", 3, 1.5, 2.0), delete("a", 7, 2.0)]
        )
        path = tmp_path / "log.jsonl"
        dump_changelog(log, path)
        assert load_changelog(path) == log

    def test_loader_rejects_unsorted(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [
            {"entry": "a", "t": 5, "prev": None, "new": 1.0},
            {"entry": "b", "t": 1, "prev": None, "new": 1.0},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines))
        with pytest.raises(ConsistencyError, match="out of order"):
            load_changelog(path)

    def test_loader_rejects_bad_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"entry": "a", "t": 5, "prev": "oops", "new": 1.0}\n')
        with pytest.raises(ConsistencyError, match="bad.jsonl:1"):
            load_changelog(path)
