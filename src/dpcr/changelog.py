"""Changelog data model for dynamic databases.

A dynamic database is stored as a time-ordered log of immutable mutation
records in "value change" format (previous value -> new value). Snapshot
reconstruction, time-range filtering, neighbouring-log construction, and
mutation-constraint checks all operate on this log.

Time is an integer tick. Values are 64-bit floats; an absent value is
``None``, never a sentinel number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

NEG_INF = float("-inf")

T = TypeVar("T")


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

    def accepts(self, time: int) -> bool:
        return self.start < time <= self.end


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
    """Immutable, validated sequence of mutations.

    Mutations are sorted by ``(time, entry_id)``, no two share an
    ``(entry_id, time)`` pair, and each entry's chain is consistent: it
    starts with an insertion, every ``prev_value`` matches the preceding
    ``new_value``, and re-insertion is only possible after a deletion.
    """

    __slots__ = ("_mutations", "_by_entry")

    def __init__(self, mutations: Iterable[Mutation]) -> None:
        muts = tuple(mutations)
        by_entry: dict[str, list[Mutation]] = {}
        prev: Mutation | None = None
        for m in muts:
            if prev is not None and (m.time, m.entry_id) <= (prev.time, prev.entry_id):
                raise ConsistencyError(
                    f"mutations out of order or duplicated at t={m.time}, entry {m.entry_id!r}"
                )
            by_entry.setdefault(m.entry_id, []).append(m)
            prev = m
        for entry_id, chain in by_entry.items():
            _check_chain(entry_id, chain)
        object.__setattr__(self, "_mutations", muts)
        object.__setattr__(self, "_by_entry", {k: tuple(v) for k, v in by_entry.items()})

    @property
    def mutations(self) -> tuple[Mutation, ...]:
        return self._mutations

    def __len__(self) -> int:
        return len(self._mutations)

    def __iter__(self) -> Iterator[Mutation]:
        return iter(self._mutations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Changelog):
            return NotImplemented
        return self._mutations == other._mutations

    def __hash__(self) -> int:
        return hash(self._mutations)

    def __repr__(self) -> str:
        return f"Changelog({len(self._mutations)} mutations)"

    def entry_ids(self) -> tuple[str, ...]:
        return tuple(self._by_entry)

    def for_entry(self, entry_id: str) -> tuple[Mutation, ...]:
        return self._by_entry.get(entry_id, ())

    def filter(self, window: TimeRangeFilter) -> tuple[Mutation, ...]:
        """Mutations with ``start < time <= end``, original order preserved."""
        return tuple(m for m in self._mutations if window.accepts(m.time))

    @classmethod
    def from_unsorted(cls, mutations: Iterable[Mutation]) -> "Changelog":
        return cls(sorted(mutations, key=_sort_key))


def _check_chain(entry_id: str, chain: list[Mutation]) -> None:
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


def entry_satisfies(chain: tuple[Mutation, ...], constraint: MutationConstraint) -> bool:
    """Whether one entry's mutation chain satisfies a constraint.

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
    if isinstance(constraint, Hybrid):
        return any(entry_satisfies(chain, b) for b in constraint.branches)
    raise TypeError(f"unknown constraint {constraint!r}")


def validate_constraint(
    log: Changelog, constraint: MutationConstraint
) -> dict[str, bool]:
    """Per-entry verdict map for a mutation constraint."""
    return {eid: entry_satisfies(log.for_entry(eid), constraint) for eid in log.entry_ids()}


def read_records(path: str | Path, what: str, parse: Callable[[int, str, dict], T]) -> list[T]:
    """Parse each non-blank JSON line of a log as ``parse(t, entry, record)``.

    ``"t"`` must be a JSON integer and ``"entry"`` is read as a string. A
    malformed line raises ConsistencyError naming ``path:lineno``.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                t = rec["t"]
                if isinstance(t, bool) or not isinstance(t, int):
                    raise ValueError(f"t must be an integer, got {t!r}")
                out.append(parse(t, str(rec["entry"]), rec))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ConsistencyError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
    return out


def load_changelog(path: str | Path) -> Changelog:
    """Read a JSON Lines changelog; rejects unsorted or inconsistent input.

    Each line is ``{"entry": "<id>", "t": <int>, "prev": <number|null>,
    "new": <number|null>}``; numbers must be finite.
    """
    muts = read_records(path, "mutation", lambda t, entry, rec: Mutation(
        t, entry, _opt_float(rec["prev"]), _opt_float(rec["new"])
    ))
    try:
        return Changelog(muts)
    except ConsistencyError as exc:
        raise ConsistencyError(f"{path}: {exc}") from exc


def dump_changelog(log: Changelog, path: str | Path) -> None:
    """Write a changelog in the JSON Lines interchange format."""
    with open(path, "w", encoding="utf-8") as fh:
        for m in log:
            fh.write(json.dumps(
                {"entry": m.entry_id, "t": m.time, "prev": m.prev_value, "new": m.new_value}
            ))
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
