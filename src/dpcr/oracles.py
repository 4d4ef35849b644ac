"""Brute-force oracles, independent of the code paths they check.

Nothing here calls into the release engines, the accountant's fold
arithmetic, the mechanism fold, or the changelog's window slicing:
snapshots are rebuilt from scratch by applying every mutation up to
their time, covers are minimized by dynamic programming, and overlap
counts come from exhaustive membership tests. Integer oracles are
exact; Monte Carlo ones report a standard error for tolerance
decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .changelog import Changelog, ConsistencyError, Mutation
from .mechanisms import LinearQuerySpec


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
    """Reconstruct the database state at ``time`` from an empty start.

    The mutations up to ``time`` are selected here, not by the
    changelog's window slices (``Changelog.ranks``), which the releases use.
    """
    return apply_mutations({}, [m for m in log.mutations if m.time <= time])


def snapshot_oracle(log: Changelog, time: int, spec: LinearQuerySpec) -> float:
    """Linear-query value at ``time``: rebuild the snapshot and sum ``f``.

    The per-value function is evaluated locally (not through the
    mechanism module) so this stays an independent check of the
    incremental change computation.
    """
    state = snapshot_at(log, time)
    total = 0.0
    for entry_id in sorted(state):
        total += _value_fn(spec, state[entry_id])
    return total


def _value_fn(spec: LinearQuerySpec, value: float) -> float:
    if spec.fn == "identity":
        raw = value
    elif spec.fn == "indicator":
        raw = 1.0 if value > spec.threshold else 0.0  # type: ignore[operator]
    elif spec.fn == "second_moment":
        raw = value**2
    elif spec.fn == "table":
        raw = spec.table.get(value, 0.0)  # type: ignore[union-attr]
    else:
        raise ValueError(f"unknown value function {spec.fn!r}")
    if raw < spec.lower:
        return spec.lower
    if raw > spec.upper:
        return spec.upper
    return raw


def most_span_oracle(ticks: Sequence[int], span: int) -> int:
    """Reference quadratic procedure for the span count, kept verbatim."""
    res = 0
    for i in range(0, len(ticks) - 1):
        for j in range(i + 1, len(ticks)):
            if ticks[j] - ticks[i] >= span:
                res = max(res, j - i + 1)
                break
    return res


def min_cover_oracle(high: int, branching: int, height: int) -> list[int]:
    """True minimal numbers of aligned hierarchy nodes covering ``(low, high]``.

    Element ``low`` of the result is the minimum for ``(low, high]``, for
    every ``0 <= low < high``. Dynamic program over grid positions: any
    exact disjoint cover is a left-to-right sequence of aligned blocks,
    so the minimum from ``a`` is one block plus the minimum from the
    block end. It does not depend on ``low``, so one pass gives them all.
    """
    if high < 1:
        raise ValueError(f"need high >= 1, got {high}")
    best = [0] * (high + 1)
    for a in range(high - 1, -1, -1):
        b = None
        for level in range(height):
            width = branching**level
            if a % width == 0 and a + width <= high:
                candidate = 1 + best[a + width]
                if b is None or candidate < b:
                    b = candidate
        if b is None:
            raise ValueError(f"position {a} cannot start any node")
        best[a] = b
    return best[:high]


# The ``-inf`` start of a window, and a padding time that no window holds:
# no start lies before it.
FAR_PAST = np.iinfo(np.int64).min


def affected_count_oracle(
    starts: np.typing.ArrayLike, ends: np.typing.ArrayLike, times: np.typing.ArrayLike
) -> np.ndarray:
    """Per instance, the number of windows ``(start, end]`` holding a mutation time.

    One row per instance: ``starts`` and ``ends`` are ``(rows, windows)``
    integer arrays, ``times`` a ``(rows, mutations)`` one. Rows are
    padded with empty windows (``start >= end``) and with repeated times
    or ``FAR_PAST``, which is also the ``-inf`` start. Membership is
    recomputed here, window by window and time by time, in exact
    integer comparisons.
    """
    starts, ends, times = (np.asarray(a) for a in (starts, ends, times))
    if not all(np.issubdtype(a.dtype, np.integer) for a in (starts, ends, times)):
        raise TypeError("windows and times must be integer arrays")
    if starts.ndim != 2 or times.ndim != 2 or starts.shape != ends.shape or len(times) != len(starts):
        raise ValueError(
            f"need (rows, windows) starts and ends and (rows, mutations) times, "
            f"got {starts.shape}, {ends.shape} and {times.shape}"
        )
    hit = np.zeros(starts.shape, dtype=bool)
    for column in times.T[:, :, None]:  # one time per row at a time: no 3-d temporaries
        hit |= (starts < column) & (column <= ends)
    return hit.sum(axis=1)


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    estimate: float | np.ndarray
    stderr: float | np.ndarray | None
    trials: int


def monte_carlo(
    stat: str,
    sampler: Callable[[np.random.Generator], float | np.ndarray],
    trials: int,
    seed: int,
) -> MonteCarloResult:
    """Estimate a mean, variance, or covariance by simulation.

    Deterministic for a fixed seed. Mean and variance work
    componentwise on vector samplers; the variance standard error uses
    the fourth central moment, which matters for heavy-tailed noise.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    if stat not in ("mean", "variance", "covariance"):
        raise ValueError(f"unknown statistic {stat!r}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    samples = np.asarray([sampler(rng) for _ in range(trials)], dtype=float)
    if stat == "mean":
        estimate = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(trials)
    elif stat == "variance":
        estimate = samples.var(axis=0, ddof=1)
        centered = samples - samples.mean(axis=0)
        fourth = (centered**4).mean(axis=0)
        stderr = np.sqrt(np.maximum(fourth - estimate**2, 0.0) / trials)
    else:
        if samples.ndim != 2:
            raise ValueError("covariance needs vector-valued samples")
        estimate = np.cov(samples.T, ddof=1)
        stderr = None
    if np.ndim(estimate) == 0:
        estimate = float(estimate)
        stderr = float(stderr) if stderr is not None else None
    return MonteCarloResult(estimate, stderr, trials)
