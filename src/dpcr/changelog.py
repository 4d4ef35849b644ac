"""Changelog data model for dynamic databases.

A dynamic database is stored as a time-ordered log of immutable mutation
records in "value change" format (previous value -> new value).
Time-range filtering, neighbouring-log construction, and
mutation-constraint checks all operate on this log; snapshots are rebuilt
independently in ``dpcr.oracles``.

A ``Changelog`` holds its mutations as columns: sorted ``int64`` times,
integer entry codes into ``ids`` (the entry ids in sorted order, so a
code is its id's rank), and ``float64`` previous and new values with
presence masks; ``sorted_columns`` orders rows given in any order. A
time window is one contiguous slice of rows, from the ``Changelog.ranks``
of its start to that of its end, so a release reads each window without
scanning the log. ``Mutation`` objects are built only on demand: by
``mutations``, iteration, ``filter`` and ``for_entry``.

JSON Lines logs, changelogs and answer logs alike, are read by one block
reader (``read_columns``). It parses ``BLOCK_LINES`` lines at a time and
checks and converts each block a column at a time, with type sets and
numpy, so no per-record Python check runs on a well-formed log. Each check
also writes its own error message. When a block fails, each of its lines
is checked alone by the same code, and the first bad line is named as
``path:lineno``. Chain validation likewise builds its message from the
first broken row it finds.

Time is an integer tick that must fit in a signed 64-bit integer.
Values are 64-bit floats; an absent value is ``None`` in a ``Mutation``
and a false presence flag in the columns, never a sentinel number.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import count, islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

NEG_INF = float("-inf")
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class ConsistencyError(ValueError):
    """A mutation sequence contradicts itself or the state it is applied to."""


class DuplicateEntryError(ValueError):
    """The entry being merged into a changelog is already present."""


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

# a mutation as a ``to_columns`` row
_row = attrgetter("time", "entry_id", "prev_value", "new_value")


class Changelog:
    """Immutable, validated sequence of mutations, stored as columns.

    Mutations are sorted by ``(time, entry_id)``, no two share an
    ``(entry_id, time)`` pair, and each entry's chain is consistent: it
    starts with an insertion, every ``prev_value`` matches the preceding
    ``new_value``, and re-insertion is only possible after a deletion.

    Row ``i`` is the mutation of ``ids[codes[i]]`` at ``times[i]`` from
    ``prev[i]`` (absent unless ``has_prev[i]``) to ``new[i]`` (absent
    unless ``has_new[i]``); nothing reads an absent value's slot. ``ids``
    are sorted, so ``(time, code)`` order is ``(time, entry_id)`` order.
    The arrays are read-only.
    """

    __slots__ = ("times", "codes", "ids", "prev", "new", "has_prev", "has_new")

    def __init__(self, mutations: Iterable[Mutation]) -> None:
        self._store(*to_columns(map(_row, mutations)))

    @classmethod
    def from_columns(
        cls, times: np.ndarray, codes: np.ndarray, ids: Sequence[str], prev: np.ndarray,
        new: np.ndarray, has_prev: np.ndarray, has_new: np.ndarray,
    ) -> "Changelog":
        """The changelog of the given columns, validated as ``Changelog(mutations)`` is.

        ``codes`` index ``ids``; they are renumbered to the ranks of the
        ids in sorted order, and unused ids are dropped (``ranked``).
        """
        log = cls.__new__(cls)
        log._store(times, codes, ids, prev, new, has_prev, has_new)
        return log

    def _store(self, times, codes, ids, prev, new, has_prev, has_new) -> None:
        self.codes, self.ids = ranked(codes, ids)
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
        ordered = (times[1:] > times[:-1]) | ((times[1:] == times[:-1]) & (codes[1:] > codes[:-1]))
        if not ordered.all():
            i = int(np.argmin(ordered)) + 1
            raise ConsistencyError(
                f"mutations out of order or duplicated at t={times[i]}, entry {ids[codes[i]]!r}"
            )
        chain, starts = chains(codes)
        has_prev, has_new = self.has_prev[chain], self.has_new[chain]
        prev, new = self.prev[chain], self.new[chain]
        linked = np.ones(len(chain), dtype=bool)
        linked[1:] = (has_prev[1:] == has_new[:-1]) & (~has_prev[1:] | (prev[1:] == new[:-1]))
        broken = np.where(starts, has_prev, ~linked)
        if broken.any():
            # the first broken row is its entry's first bad link
            i = int(np.argmax(broken))
            t, entry_id, prev_value, _ = next(self._records(chain[[i]]))
            if starts[i]:
                raise ConsistencyError(
                    f"entry {entry_id!r} starts with prev_value={prev_value!r} at t={t}, "
                    "expected an insertion"
                )
            earlier = next(self._records(chain[[i - 1]]))[3]
            raise ConsistencyError(
                f"entry {entry_id!r} at t={t}: prev_value {prev_value!r} "
                f"does not match earlier value {earlier!r}"
            )

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

    def for_entry(self, entry_id: str) -> tuple[Mutation, ...]:
        try:
            code = self.ids.index(entry_id)
        except ValueError:
            return ()
        return self._mutations(np.flatnonzero(self.codes == code))

    def ranks(self, bounds: Sequence[float]) -> np.ndarray:
        """How many rows have ``time <= bound``, for each bound (an int of any size, or
        ``-inf``), by one ``np.searchsorted``. Times fit in int64, so the bounds are clamped
        into it for the search, and one below it has no row at or before it."""
        bounds = np.array(bounds, dtype=object)
        clamped = np.clip(bounds, INT64_MIN, INT64_MAX).astype(np.int64)
        ranks = np.searchsorted(self.times, clamped, side="right")
        ranks[bounds < INT64_MIN] = 0
        return ranks

    def filter(self, window: TimeRangeFilter) -> tuple[Mutation, ...]:
        """Mutations with ``start < time <= end``, original order preserved."""
        first, stop = self.ranks([window.start, window.end])
        return self._mutations(slice(first, stop))

    @classmethod
    def from_unsorted(cls, mutations: Iterable[Mutation]) -> "Changelog":
        """The changelog of mutations given in any order (``sorted_columns``)."""
        return cls.from_columns(*sorted_columns(to_columns(map(_row, mutations))))


def to_columns(rows: Iterable[tuple[int, str, float | None, float | None]]) -> tuple:
    """Stream ``(time, entry_id, prev, new)`` rows into the columns ``from_columns`` takes.

    Returns ``(times, codes, ids, prev, new, has_prev, has_new)``, with
    entry codes in order of first appearance. No row is kept as an
    object, and nothing is validated here.
    """

    def fill(code_of, times, codes, prevs, news, has_prev, has_new) -> None:
        for t, entry_id, prev, new in rows:
            times.append(t)
            codes.append(code_of[entry_id])
            prevs.append(0.0 if prev is None else prev)
            news.append(0.0 if new is None else new)
            has_prev.append(prev is not None)
            has_new.append(new is not None)

    return _filled_columns(fill)


def _filled_columns(fill: Callable[..., None]) -> tuple:
    """The columns ``from_columns`` takes, as ``fill(code_of, times, codes, prev,
    new, has_prev, has_new)`` appends them to ``array`` buffers; ``code_of[id]``
    gives an id the next code on first use, so codes run in first-appearance order.
    """
    code_of: dict[str, int] = defaultdict(count().__next__)
    buffers = [array(typecode) for typecode in "qqddBB"]
    fill(code_of, *buffers)
    times, codes, prev, new, has_prev, has_new = (
        np.frombuffer(buffer, dtype=dtype)
        for buffer, dtype in zip(buffers, (np.int64, np.int64, np.float64, np.float64, bool, bool))
    )
    return times, codes, tuple(code_of), prev, new, has_prev, has_new


def chains(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows grouped into entry chains, and a mask of each chain's first row.

    The rows are ordered by entry code, each chain keeping row order (a
    stable sort); ``starts[i]`` marks where a new code begins.
    """
    chain = np.argsort(codes, kind="stable")
    starts = np.ones(len(chain), dtype=bool)
    starts[1:] = codes[chain[1:]] != codes[chain[:-1]]
    return chain, starts


def ranked(codes: np.ndarray, ids: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """``codes`` renumbered to the ranks of their ids in sorted order, and those
    ids; ids that no code uses are dropped."""
    codes = np.asarray(codes, dtype=np.int64)
    used = np.zeros(len(ids), dtype=bool)
    used[codes] = True
    order = sorted(np.flatnonzero(used).tolist(), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[codes], tuple(ids[c] for c in order)


def sorted_columns(columns: tuple) -> tuple:
    """``from_columns`` columns of rows in any order, put in ``(time, entry_id)`` order:
    one stable sort by time, then ranked code, so duplicates stay side by side."""
    times, codes, ids, *values = columns
    codes, ids = ranked(codes, ids)
    order = np.lexsort((codes, times))
    return times[order], codes[order], ids, *(column[order] for column in values)


def adjacent_changelog(base: Changelog, entry_muts: Iterable[Mutation]) -> Changelog:
    """Merge one new entry's mutations into ``base``, keeping sort order.

    The two logs differ by exactly that entry; stripping it recovers
    ``base``. Raises DuplicateEntryError if the entry already exists.
    """
    muts = tuple(entry_muts)
    if not muts:
        raise ValueError("an adjacent changelog must add at least one mutation")
    ids = {m.entry_id for m in muts}
    if len(ids) != 1:
        raise ValueError(f"expected mutations of a single entry, got {sorted(ids)}")
    (entry_id,) = ids
    if base.for_entry(entry_id):
        raise DuplicateEntryError(f"entry {entry_id!r} already present in the base log")
    return Changelog.from_unsorted(base.mutations + muts)


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
# the exceptions a malformed record raises
_BAD_RECORD = (KeyError, TypeError, ValueError, OverflowError, RecursionError)
_NUMBER_OR_NULL = {int, float, type(None)}
_decode = json.JSONDecoder().raw_decode


def read_columns(
    path: str | Path, what: str, values: Callable[[list[dict]], tuple[np.ndarray, ...]]
) -> tuple:
    """Read a JSON Lines log into the columns ``from_columns`` takes.

    Returns ``(times, codes, ids, prev, new, has_prev, has_new)`` as
    ``to_columns`` does. Each non-blank line holds one JSON object;
    ``"t"`` must be a JSON integer that fits in a signed 64-bit integer,
    ``"entry"`` is read as a string, and ``values(records)`` is the rule
    for the rest of the line: it returns the ``(prev, has_prev, new,
    has_new)`` columns of a list of records (``_optional``), or raises
    with the message of the first record that fails it. A malformed
    line, nesting too deep for the JSON parser included, raises
    ConsistencyError naming ``path:lineno``.

    The file is read in blocks of ``BLOCK_LINES`` lines, each parsed and
    checked a column at a time by ``_checked``. When a block fails, each
    of its lines is checked alone by the same ``_checked``, and the first
    one that fails is named.
    """

    def fill(code_of, times, codes, prevs, news, has_prev, has_new) -> None:
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
                    t, entries, prev, present_prev, new, present_new = _checked(
                        _parsed(block), values
                    )
                except _BAD_RECORD:
                    _explain(path, what, values, block, lineno)
                    raise  # not reached: a block fails only where one of its lines does
                if error is not None:
                    raise error
                codes.extend(map(code_of.__getitem__, entries))
                for column, part in ((times, t), (prevs, prev), (news, new),
                                     (has_prev, present_prev), (has_new, present_new)):
                    column.frombytes(part.tobytes())
                if len(block) < BLOCK_LINES:
                    break
                lineno += BLOCK_LINES

    return _filled_columns(fill)


def _parsed(block: list[str]) -> list:
    """The JSON value of each non-blank line of a block, as ``json.loads`` reads it."""
    lines = [line for line in map(str.strip, block) if line]
    parsed = list(map(_decode, lines))
    # the end-of-line check of json.loads: nothing may follow the value
    if [end for _, end in parsed] != list(map(len, lines)):
        raise ValueError("extra data after a JSON value")
    return [rec for rec, _ in parsed]


def _checked(records: list, values: Callable[[list[dict]], tuple[np.ndarray, ...]]) -> tuple:
    """``(times, entries, prev, has_prev, new, has_new)`` of parsed records.

    The checks run a column at a time, in the order one record's fields
    are read: ``t``'s type, then its range, then ``entry``, then
    ``values``. Each raises one of ``_BAD_RECORD`` with the message of
    the first record that fails it.
    """
    ts = [rec["t"] for rec in records]
    if not set(map(type, ts)) <= {int}:
        t = next(t for t in ts if type(t) is not int)
        raise ValueError(f"t must be an integer, got {t!r}")
    try:
        times = np.array(ts, dtype=np.int64)
    except OverflowError:
        t = next(t for t in ts if not INT64_MIN <= t <= INT64_MAX)
        raise ValueError(f"t must fit in a signed 64-bit integer, got {t}") from None
    entries = list(map(str, [rec["entry"] for rec in records]))
    return times, entries, *values(records)


def _explain(
    path: str | Path, what: str, values: Callable[[list[dict]], tuple[np.ndarray, ...]],
    block: list[str], first: int,
) -> None:
    """Raise ConsistencyError for the first line of a failed block that fails alone.

    ``first`` is the line number of the block's first line.
    """
    for lineno, line in enumerate(block, start=first):
        line = line.strip()
        if line:
            try:
                _checked([json.loads(line)], values)
            except _BAD_RECORD as exc:
                raise ConsistencyError(f"{path}:{lineno}: bad {what} record: {exc}") from exc


def _optional(values: list) -> tuple[np.ndarray, np.ndarray]:
    """A ``float64`` column of numbers or ``None``, 0.0 where absent, and its presence mask.

    Raises for the first value that is not a finite number or null;
    an integer beyond float64 raises OverflowError.
    """
    if not set(map(type, values)) <= _NUMBER_OR_NULL:
        value = next(v for v in values if type(v) not in _NUMBER_OR_NULL)
        raise ValueError(f"expected a number or null, got {value!r}")
    column = np.array(values, dtype=np.float64)  # None converts to NaN
    present = np.isfinite(column)
    if len(values) - np.count_nonzero(present) != values.count(None):
        value = next(column[i] for i in np.flatnonzero(~present) if values[i] is not None)
        raise ValueError(f"expected a finite number or null, got {value.item()!r}")
    column[~present] = 0.0
    return column, present


def mutation_values(records: list[dict]) -> tuple[np.ndarray, ...]:
    """The ``read_columns`` rule of changelog records: ``prev`` and ``new``
    are finite numbers or null, ``prev`` checked first."""
    return (*_optional([rec["prev"] for rec in records]),
            *_optional([rec["new"] for rec in records]))


def load_changelog(path: str | Path) -> Changelog:
    """Read a JSON Lines changelog; rejects unsorted or inconsistent input.

    Each line is ``{"entry": "<id>", "t": <int>, "prev": <number|null>,
    "new": <number|null>}``; numbers must be finite. Records are read
    block by block straight into the columns (``read_columns``).
    """
    columns = read_columns(path, "mutation", mutation_values)
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
