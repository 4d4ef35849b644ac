"""Changelog data model for dynamic databases.

A dynamic database is stored as a time-ordered log of immutable mutation
records in "value change" format (previous value -> new value). Snapshot
reconstruction, time-range filtering, neighbouring-log construction, and
mutation-constraint checks all operate on this log.

A ``Changelog`` holds its mutations as columns: sorted ``int64`` times,
integer entry codes into ``ids`` (the entry ids in order of first
appearance), and ``float64`` previous and new values with presence
masks. A time window is one contiguous slice of rows (``Changelog.rows``),
so a release reads each window without scanning the log. ``Mutation``
objects are built only on demand: by ``mutations``, iteration,
``filter`` and ``for_entry``.

JSON Lines logs, changelogs and answer logs alike, are read by one block
reader (``read_columns``). It parses ``BLOCK_LINES`` lines at a time and
checks and converts each block a column at a time, with type sets and
numpy, so no per-record Python check runs on a well-formed log. A block
that fails a check is re-read line by line with the per-record rule,
which names the first bad line as ``path:lineno``.

Time is an integer tick that must fit in a signed 64-bit integer.
Values are 64-bit floats; an absent value is ``None`` in a ``Mutation``
and a false presence flag in the columns, never a sentinel number.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import count, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

NEG_INF = float("-inf")
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class ConsistencyError(ValueError):
    """A mutation sequence contradicts itself or the state it is applied to."""


class DuplicateEntryError(ValueError):
    """The entry being merged into a changelog is already present."""


def _sort_key(m: "Mutation") -> tuple[int, str]:
    return (m.time, m.entry_id)


@dataclass(frozen=True)
class Mutation:
    """One entry's change at a timestamp.

    ``prev_value is None`` marks an insertion and ``new_value is None`` a
    deletion; they cannot both be ``None``.
    """

    time: int
    entry_id: str
    prev_value: float | None
    new_value: float | None

    def __post_init__(self) -> None:
        if self.prev_value is None and self.new_value is None:
            raise ConsistencyError(
                f"mutation of {self.entry_id!r} at t={self.time} records no change"
            )

    @property
    def is_insertion(self) -> bool:
        return self.prev_value is None

    @property
    def is_deletion(self) -> bool:
        return self.new_value is None


def insert(entry_id: str, time: int, value: float) -> Mutation:
    return Mutation(time, entry_id, None, value)


def modify(entry_id: str, time: int, prev_value: float, new_value: float) -> Mutation:
    return Mutation(time, entry_id, prev_value, new_value)


def delete(entry_id: str, time: int, prev_value: float) -> Mutation:
    return Mutation(time, entry_id, prev_value, None)


@dataclass(frozen=True)
class TimeRangeFilter:
    """Half-open time range ``(start, end]``; ``start`` may be ``-inf``."""

    start: float
    end: int

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"empty time range ({self.start}, {self.end}]")


@dataclass(frozen=True)
class AtMostK:
    """Every entry carries at most ``k`` mutations over its lifetime."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")


@dataclass(frozen=True)
class TimeBounded:
    """Every entry's mutations happen within ``bound`` ticks of its insertion."""

    bound: int

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError(f"bound must be >= 0, got {self.bound}")


@dataclass(frozen=True)
class Hybrid:
    """An entry passes if it satisfies at least one member constraint."""

    branches: tuple["MutationConstraint", ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("hybrid constraint needs at least one branch")


MutationConstraint = AtMostK | TimeBounded | Hybrid


class Changelog:
    """Immutable, validated sequence of mutations, stored as columns.

    Mutations are sorted by ``(time, entry_id)``, no two share an
    ``(entry_id, time)`` pair, and each entry's chain is consistent: it
    starts with an insertion, every ``prev_value`` matches the preceding
    ``new_value``, and re-insertion is only possible after a deletion.

    Row ``i`` is the mutation of ``ids[codes[i]]`` at ``times[i]`` from
    ``prev[i]`` (absent unless ``has_prev[i]``) to ``new[i]`` (absent
    unless ``has_new[i]``); nothing reads an absent value's slot.
    ``ranks[c]`` is ``ids[c]``'s position in sorted order
    (``id_ranks(ids)``), kept from validation. The arrays are read-only.
    """

    __slots__ = ("times", "codes", "ids", "ranks", "prev", "new", "has_prev", "has_new")

    def __init__(self, mutations: Iterable[Mutation]) -> None:
        self._store(*to_columns((m.time, m.entry_id, m.prev_value, m.new_value) for m in mutations))

    @classmethod
    def from_columns(
        cls, times: np.ndarray, codes: np.ndarray, ids: Sequence[str], prev: np.ndarray,
        new: np.ndarray, has_prev: np.ndarray, has_new: np.ndarray,
    ) -> "Changelog":
        """The changelog of the given columns, validated as ``Changelog(mutations)`` is.

        ``codes`` index ``ids``; they are renumbered in order of first
        appearance, and ids that no row uses are dropped.
        """
        log = cls.__new__(cls)
        log._store(times, codes, ids, prev, new, has_prev, has_new)
        return log

    def _store(self, times, codes, ids, prev, new, has_prev, has_new) -> None:
        codes = np.asarray(codes, dtype=np.int64)
        # codes already in first-appearance order, every id used, are kept:
        # each code is at most one past the running max before it, from 0
        # up to the last id
        running = np.maximum.accumulate(codes)
        if (len(codes) and codes[0] == 0 and running[-1] == len(ids) - 1
                and (codes[1:] <= running[:-1] + 1).all()):
            self.ids, self.codes = tuple(ids), codes
        else:
            used, first = np.unique(codes, return_index=True)
            order = used[np.argsort(first)]
            renumber = np.empty(len(ids), dtype=np.int64)
            renumber[order] = np.arange(len(order))
            self.ids = tuple(ids[c] for c in order.tolist())
            self.codes = renumber[codes]
        self.times = np.ascontiguousarray(times, dtype=np.int64)
        self.has_prev = np.asarray(has_prev, dtype=bool)
        self.has_new = np.asarray(has_new, dtype=bool)
        self.prev = np.asarray(prev, dtype=np.float64)
        self.new = np.asarray(new, dtype=np.float64)
        for column in self._columns():
            column.flags.writeable = False
        self._validate()

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.times, self.codes, self.prev, self.new, self.has_prev, self.has_new)

    def _validate(self) -> None:
        times, codes, ids = self.times, self.codes, self.ids
        blank = ~(self.has_prev | self.has_new)
        if blank.any():
            i = int(np.argmax(blank))
            raise ConsistencyError(
                f"mutation of {ids[codes[i]]!r} at t={times[i]} records no change"
            )
        self.ranks = id_ranks(ids)
        self.ranks.flags.writeable = False
        rank = self.ranks[codes]
        ordered = (times[1:] > times[:-1]) | ((times[1:] == times[:-1]) & (rank[1:] > rank[:-1]))
        if not ordered.all():
            i = int(np.argmin(ordered)) + 1
            raise ConsistencyError(
                f"mutations out of order or duplicated at t={times[i]}, entry {ids[codes[i]]!r}"
            )
        chain, starts = chains(codes)
        entry, has_prev, has_new = codes[chain], self.has_prev[chain], self.has_new[chain]
        prev, new = self.prev[chain], self.new[chain]
        linked = np.ones(len(chain), dtype=bool)
        linked[1:] = (has_prev[1:] == has_new[:-1]) & (~has_prev[1:] | (prev[1:] == new[:-1]))
        broken = np.where(starts, has_prev, ~linked)
        if broken.any():
            # the first broken chain raises through the per-chain check, which
            # names its first bad link
            entry_id = ids[entry[np.argmax(broken)]]
            _check_chain(entry_id, self.for_entry(entry_id))

    def _records(
        self, rows: slice | np.ndarray
    ) -> Iterator[tuple[int, str, float | None, float | None]]:
        """``(time, entry_id, prev_value, new_value)`` of the selected rows, in order."""
        ids = self.ids
        for t, c, p, n, hp, hn in zip(*(column[rows].tolist() for column in self._columns())):
            yield t, ids[c], p if hp else None, n if hn else None

    def _mutations(self, rows: slice | np.ndarray) -> tuple[Mutation, ...]:
        return tuple(Mutation(*record) for record in self._records(rows))

    @property
    def mutations(self) -> tuple[Mutation, ...]:
        return self._mutations(slice(None))

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Mutation]:
        return iter(self.mutations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Changelog):
            return NotImplemented
        # absent values' slots are not compared
        mine, theirs = (
            (log.times, log.codes, log.has_prev, log.has_new,
             log.prev[log.has_prev], log.new[log.has_new])
            for log in (self, other)
        )
        return self.ids == other.ids and all(map(np.array_equal, mine, theirs))

    def __hash__(self) -> int:
        return hash((self.ids, self.times.tobytes(), self.codes.tobytes()))

    def __repr__(self) -> str:
        return f"Changelog({len(self)} mutations)"

    def entry_ids(self) -> tuple[str, ...]:
        return self.ids

    def for_entry(self, entry_id: str) -> tuple[Mutation, ...]:
        try:
            code = self.ids.index(entry_id)
        except ValueError:
            return ()
        return self._mutations(np.flatnonzero(self.codes == code))

    def rows(self, windows: Iterable[TimeRangeFilter]) -> list[slice]:
        """Each window's slice of rows, the mutations with ``start < time <= end``."""
        # indexing a memoryview gives Python ints, so the bounds compare exactly
        ticks = memoryview(self.times)
        return [slice(bisect_right(ticks, w.start), bisect_right(ticks, w.end)) for w in windows]

    def filter(self, window: TimeRangeFilter) -> tuple[Mutation, ...]:
        """Mutations with ``start < time <= end``, original order preserved."""
        return self._mutations(self.rows((window,))[0])

    @classmethod
    def from_unsorted(cls, mutations: Iterable[Mutation]) -> "Changelog":
        return cls(sorted(mutations, key=_sort_key))


def to_columns(rows: Iterable[tuple[int, str, float | None, float | None]]) -> tuple:
    """Stream ``(time, entry_id, prev, new)`` rows into the columns ``from_columns`` takes.

    Returns ``(times, codes, ids, prev, new, has_prev, has_new)``, with
    entry codes in order of first appearance. No row is kept as an
    object, and nothing is validated here.
    """
    times, codes, prevs, news = array("q"), array("q"), array("d"), array("d")
    has_prev, has_new = bytearray(), bytearray()
    code_of: dict[str, int] = {}
    for t, entry_id, prev, new in rows:
        times.append(t)
        codes.append(code_of.setdefault(entry_id, len(code_of)))
        prevs.append(0.0 if prev is None else prev)
        news.append(0.0 if new is None else new)
        has_prev.append(prev is not None)
        has_new.append(new is not None)
    return (
        np.frombuffer(times, dtype=np.int64), np.frombuffer(codes, dtype=np.int64),
        tuple(code_of), np.frombuffer(prevs, dtype=np.float64),
        np.frombuffer(news, dtype=np.float64), np.frombuffer(has_prev, dtype=bool),
        np.frombuffer(has_new, dtype=bool),
    )


def chains(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows grouped into entry chains, and a mask of each chain's first row.

    The rows are ordered by entry code, each chain keeping row order (a
    stable sort); ``starts[i]`` marks where a new code begins.
    """
    chain = np.argsort(codes, kind="stable")
    starts = np.ones(len(chain), dtype=bool)
    starts[1:] = codes[chain[1:]] != codes[chain[:-1]]
    return chain, starts


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each id's position in sorted order, indexed like ``ids``."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def _check_chain(entry_id: str, chain: Sequence[Mutation]) -> None:
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


def apply_mutations(
    snapshot: Mapping[str, float], mutations: Iterable[Mutation]
) -> dict[str, float]:
    """Apply an ordered mutation batch to a snapshot, returning a new snapshot.

    Raises ConsistencyError identifying the first mutation that does not
    match the current state (insertion of a present id, or a prev_value
    mismatch). The input snapshot is never modified.
    """
    state = dict(snapshot)
    for i, m in enumerate(mutations):
        current = state.get(m.entry_id)
        if m.is_insertion:
            if m.entry_id in state:
                raise ConsistencyError(
                    f"mutation #{i}: insertion of {m.entry_id!r} at t={m.time}, "
                    f"but the entry is present with value {current!r}"
                )
        elif current != m.prev_value:
            raise ConsistencyError(
                f"mutation #{i}: {m.entry_id!r} at t={m.time} expects value "
                f"{m.prev_value!r}, snapshot holds {current!r}"
            )
        if m.is_deletion:
            del state[m.entry_id]
        else:
            state[m.entry_id] = m.new_value  # type: ignore[assignment]
    return state


def snapshot_at(log: Changelog, time: int) -> dict[str, float]:
    """Reconstruct the database state at ``time`` from an empty start."""
    return apply_mutations({}, log.filter(TimeRangeFilter(NEG_INF, time)))


def adjacent_changelog(base: Changelog, entry_muts: Iterable[Mutation]) -> Changelog:
    """Merge one new entry's mutations into ``base``, keeping sort order.

    The two logs differ by exactly that entry; stripping it recovers
    ``base``. Raises DuplicateEntryError if the entry already exists.
    """
    muts = sorted(entry_muts, key=_sort_key)
    if not muts:
        raise ValueError("an adjacent changelog must add at least one mutation")
    ids = {m.entry_id for m in muts}
    if len(ids) != 1:
        raise ValueError(f"expected mutations of a single entry, got {sorted(ids)}")
    (entry_id,) = ids
    if base.for_entry(entry_id):
        raise DuplicateEntryError(f"entry {entry_id!r} already present in the base log")
    _check_chain(entry_id, muts)
    return Changelog(sorted(base.mutations + tuple(muts), key=_sort_key))


def without_entry(log: Changelog, entry_id: str) -> Changelog:
    """The changelog with one entry's mutations removed."""
    return Changelog(m for m in log if m.entry_id != entry_id)


def validate_constraint(log: Changelog, constraint: MutationConstraint) -> np.ndarray:
    """Per-entry verdicts for a mutation constraint, a ``bool`` array aligned with ``log.ids``.

    Computed from the columns, by each entry's mutation count and its
    first and last times: ``AtMostK`` counts insertions and deletions too,
    and ``TimeBounded`` measures the last time minus the insertion time.
    """
    counts = np.bincount(log.codes, minlength=len(log.ids))
    chain, starts = chains(log.codes)
    # codes run 0..len(ids)-1, so the chains come in code order; a chain ends
    # just before the next one starts, and the last row ends the last chain
    first, last = log.times[chain[starts]], log.times[chain[np.roll(starts, -1)]]
    # last >= first, so the uint64 difference is exact where int64 would wrap
    spans = last.astype(np.uint64) - first.astype(np.uint64)
    return _satisfied(constraint, counts, spans)


def _satisfied(
    constraint: MutationConstraint, counts: np.ndarray, spans: np.ndarray
) -> np.ndarray:
    # the limits are clamped into the columns' dtypes, which no count or span exceeds
    if isinstance(constraint, AtMostK):
        return counts <= min(constraint.k, INT64_MAX)
    if isinstance(constraint, TimeBounded):
        return spans <= np.uint64(min(constraint.bound, 2**64 - 1))
    if isinstance(constraint, Hybrid):
        return np.logical_or.reduce([_satisfied(b, counts, spans) for b in constraint.branches])
    raise TypeError(f"unknown constraint {constraint!r}")


# Lines per block of the JSON Lines reader. Only one block is held as
# Python objects at a time, so the reader's memory beyond the columns grows
# with the block, not the file: on an 8192-line changelog the tracemalloc
# peak of ``load_changelog`` is 1.16 MiB with 256-line blocks (1.14 MiB
# reading line by line), 1.44 MiB with 1024-line and 3.77 MiB with
# 4096-line blocks. Larger blocks are no faster: an 18k-line log loads in
# 75 ms with 256- or 1024-line blocks and 82 ms with 4096-line blocks.
BLOCK_LINES = 256
# the exceptions a malformed record raises in either reading path
_BAD_RECORD = (KeyError, TypeError, ValueError, OverflowError, RecursionError)
_NUMBER_OR_NULL = {int, float, type(None)}
_decode = json.JSONDecoder().raw_decode


def read_columns(
    path: str | Path,
    what: str,
    record: Callable[[dict], tuple[float | None, float | None]],
    values: Callable[[list[dict]], tuple[list, list]],
) -> tuple:
    """Read a JSON Lines log into the columns ``from_columns`` takes.

    Returns ``(times, codes, ids, prev, new, has_prev, has_new)`` as
    ``to_columns`` does. Each non-blank line holds one JSON object;
    ``"t"`` must be a JSON integer that fits in a signed 64-bit integer,
    ``"entry"`` is read as a string, and ``record(rec)`` is the
    per-record rule for the rest of the line, returning its ``(prev,
    new)`` values. A malformed line, nesting too deep for the JSON
    parser included, raises ConsistencyError naming ``path:lineno``.

    The file is read in blocks of ``BLOCK_LINES`` lines. A block is
    parsed and checked column by column: ``values(records)`` returns
    the block's ``prev`` and ``new`` lists (numbers or ``None``),
    raising on anything ``record`` would refuse, and the numbers are
    converted and checked for finiteness in numpy. A block that fails
    any check is re-read one line at a time with the per-record rule,
    which raises for its first bad line; that rule is the only source
    of error messages.
    """
    times, codes, prevs, news = array("q"), array("q"), array("d"), array("d")
    has_prev, has_new = array("B"), array("B")
    code_of: dict[str, int] = defaultdict(count().__next__)
    with open(path, encoding="utf-8") as fh:
        lineno = 1
        while True:
            # bytes that fail to decode are raised only after the lines read
            # before them are checked, as a line-by-line read would
            block: list[str] = []
            error = None
            try:
                block.extend(islice(fh, BLOCK_LINES))
            except UnicodeDecodeError as exc:
                error = exc
            try:
                columns = _block(*_fields(block, values))
            except _BAD_RECORD:
                columns = _block(*_record_fields(path, what, record, block, lineno))
            if error is not None:
                raise error
            t, entries, prev, present_prev, new, present_new = columns
            codes.extend(map(code_of.__getitem__, entries))
            for column, part in ((times, t), (prevs, prev), (news, new),
                                 (has_prev, present_prev), (has_new, present_new)):
                column.frombytes(part.tobytes())
            if len(block) < BLOCK_LINES:
                break
            lineno += BLOCK_LINES
    return (
        np.frombuffer(times, dtype=np.int64), np.frombuffer(codes, dtype=np.int64),
        tuple(code_of), np.frombuffer(prevs, dtype=np.float64),
        np.frombuffer(news, dtype=np.float64), np.frombuffer(has_prev, dtype=bool),
        np.frombuffer(has_new, dtype=bool),
    )


def _fields(block: list[str], values: Callable[[list[dict]], tuple[list, list]]) -> tuple:
    """A block's ``(t, entry, prev, new)`` lists, checked a column at a time.

    Raises one of ``_BAD_RECORD`` wherever the per-record rule might
    refuse a line; the numbers are checked further in ``_block``.
    """
    lines = [line for line in map(str.strip, block) if line]
    parsed = list(map(_decode, lines))
    # the end-of-line check of json.loads: nothing may follow the value
    if [end for _, end in parsed] != list(map(len, lines)):
        raise ValueError("extra data after a JSON value")
    records = [rec for rec, _ in parsed]
    ts = [rec["t"] for rec in records]
    if not set(map(type, ts)) <= {int}:
        raise TypeError("t must be an integer")
    entries = list(map(str, [rec["entry"] for rec in records]))
    prev, new = values(records)
    return ts, entries, prev, new


def _record_fields(
    path: str | Path, what: str, record: Callable[[dict], tuple[float | None, float | None]],
    block: list[str], first: int,
) -> tuple[list, ...]:
    """A block's ``(t, entry, prev, new)`` lists by the per-record rule.

    ``first`` is the line number of the block's first line.
    """
    rows = []
    for lineno, line in enumerate(block, start=first):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            t = rec["t"]
            if isinstance(t, bool) or not isinstance(t, int):
                raise ValueError(f"t must be an integer, got {t!r}")
            if not INT64_MIN <= t <= INT64_MAX:
                raise ValueError(f"t must fit in a signed 64-bit integer, got {t}")
            rows.append((t, str(rec["entry"]), *record(rec)))
        except _BAD_RECORD as exc:
            raise ConsistencyError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
    return tuple(map(list, zip(*rows))) or ([], [], [], [])


def _block(ts: list, entries: list[str], prev: list, new: list) -> tuple:
    """``(times, entries, prev, has_prev, new, has_new)`` of a block's checked lists.

    Raises OverflowError for a time outside int64 or a number beyond
    float64, and ValueError for a non-finite number.
    """
    return (np.array(ts, dtype=np.int64), entries, *_optional(prev), *_optional(new))


def _optional(values: list) -> tuple[np.ndarray, np.ndarray]:
    """A ``float64`` column of numbers or ``None``, 0.0 where absent, and its presence mask."""
    column = np.array(values, dtype=np.float64)  # None converts to NaN
    present = np.isfinite(column)
    if len(values) - np.count_nonzero(present) != values.count(None):
        raise ValueError("a value is not finite")
    column[~present] = 0.0
    return column, present


def mutation_record(rec: dict) -> tuple[float | None, float | None]:
    """The per-record rule of a changelog line's values."""
    return _opt_float(rec["prev"]), _opt_float(rec["new"])


def mutation_values(records: list[dict]) -> tuple[list, list]:
    """The ``prev`` and ``new`` lists of a block of changelog records."""
    prev, new = [rec["prev"] for rec in records], [rec["new"] for rec in records]
    if not set(map(type, prev)) | set(map(type, new)) <= _NUMBER_OR_NULL:
        raise TypeError("a value is not a number or null")
    return prev, new


def load_changelog(path: str | Path) -> Changelog:
    """Read a JSON Lines changelog; rejects unsorted or inconsistent input.

    Each line is ``{"entry": "<id>", "t": <int>, "prev": <number|null>,
    "new": <number|null>}``; numbers must be finite. Records are read
    block by block straight into the columns (``read_columns``).
    """
    columns = read_columns(path, "mutation", mutation_record, mutation_values)
    try:
        return Changelog.from_columns(*columns)
    except ConsistencyError as exc:
        raise ConsistencyError(f"{path}: {exc}") from exc


def dump_changelog(log: Changelog, path: str | Path) -> None:
    """Write a changelog in the JSON Lines interchange format."""
    with open(path, "w", encoding="utf-8") as fh:
        for t, entry, prev, new in log._records(slice(None)):
            fh.write(json.dumps({"entry": entry, "t": t, "prev": prev, "new": new}))
            fh.write("\n")


def _opt_float(value: object) -> float | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number or null, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number or null, got {value!r}")
    return value
