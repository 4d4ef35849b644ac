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
    changelog's window slices (``Changelog.rows``), which the releases use.
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
        raw = 1.0 if spec.predicate(value) else 0.0  # type: ignore[misc]
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


def min_cover_oracle(low: int, high: int, branching: int, height: int) -> int:
    """True minimal number of aligned hierarchy nodes covering ``(low, high]``.

    Dynamic program over grid positions: any exact disjoint cover is a
    left-to-right sequence of aligned blocks, so the minimum from ``a``
    is one block plus the minimum from the block end.
    """
    if low < 0 or high <= low:
        raise ValueError(f"need 0 <= low < high, got ({low}, {high}]")
    best = {high: 0}
    for a in range(high - 1, low - 1, -1):
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
    return best[low]


def affected_count_oracle(
    filters: Sequence[tuple[float, int]] | Sequence,
    entry_muts: Sequence[Mutation],
) -> int:
    """Exhaustive count of filters containing at least one mutation time.

    Accepts ``(start, end]`` pairs or objects with start/end attributes;
    membership is recomputed here rather than delegated.
    """
    count = 0
    for f in filters:
        start, end = (f[0], f[1]) if isinstance(f, tuple) else (f.start, f.end)
        if any(start < m.time <= end for m in entry_muts):
            count += 1
    return count


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
