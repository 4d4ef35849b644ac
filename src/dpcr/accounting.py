"""Privacy-loss algebra and closed-form bounds for continual releases.

Everything here is parameter-only arithmetic: fold counts say how many
times a single entry's privacy loss composes, and ``compose_fold`` turns
a fold count into a composed ``(epsilon, delta)`` pair in closed form,
so time and memory do not grow with the count. Fold counts for the
release shapes:

================  ======================  ===================================
release           at-most-k mutations     time-bounded mutations
================  ======================  ===================================
disjoint          ``k``                   ``span_folds(endpoints, bound)``
sliding window    ``k * ceil(W/P)``       ``ceil((bound + W) / P)``
hierarchical      ``height * k``          ``sum_i min(n_i, ceil(bound/dt_i) + 1)``
any (hybrid)      max of branch counts    max of branch counts
================  ======================  ===================================

``n_i`` and ``dt_i`` are the node count and interval of hierarchy layer
``i``. Neither time-bounded count is ever below the number of ranges one
entry can touch; a zero bound counts 1 disjoint range, since an entry
cannot mutate twice at one tick.
Composition never decreases with the fold count, so composing a
hybrid's largest branch count is the sup of its branch bounds. Local
(per-entry) guarantees double the fold count.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .changelog import (
    AtMostK,
    Hybrid,
    MutationConstraint,
    NEG_INF,
    TimeBounded,
    TimeRangeFilter,
)


@dataclass(frozen=True)
class PrivacyLoss:
    """An ``(epsilon, delta)`` differential-privacy loss."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0 <= self.delta <= 1:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")


@dataclass(frozen=True)
class Naive:
    """Sequential composition by componentwise summation."""


@dataclass(frozen=True)
class Advanced:
    """Advanced composition of k identical losses with a delta slack."""

    delta_slack: float

    def __post_init__(self) -> None:
        if not self.delta_slack > 0:
            raise ValueError(f"delta_slack must be > 0, got {self.delta_slack}")


CompositionStrategy = Naive | Advanced


def compose_fold(
    loss: PrivacyLoss, folds: int, strategy: CompositionStrategy = Naive()
) -> PrivacyLoss:
    """``folds``-fold sequential composition of one loss; zero folds cost nothing.

    With ``k = folds``, naive composition returns ``(k*eps, k*delta)``
    (delta capped at 1, where the guarantee is vacuous anyway). Advanced composition (Dwork,
    Rothblum & Vadhan, FOCS 2010) returns
    ``eps' = eps*sqrt(2k*ln(1/slack)) + k*eps*(e^eps - 1)``,
    ``delta' = k*delta + slack``. Both are closed forms, so the cost
    does not depend on ``k``.
    """
    if folds < 0:
        raise ValueError(f"fold count must be >= 0, got {folds}")
    if folds == 0:
        return PrivacyLoss(0.0, 0.0)
    eps = loss.epsilon
    if isinstance(strategy, Naive):
        return PrivacyLoss(folds * eps, min(1.0, folds * loss.delta))
    eps_prime = eps * math.sqrt(2 * folds * math.log(1 / strategy.delta_slack)) + (
        folds * eps * (math.exp(eps) - 1)
    )
    return PrivacyLoss(eps_prime, min(1.0, folds * loss.delta + strategy.delta_slack))


@dataclass(frozen=True)
class ReleaseSchedule:
    """Strictly ascending filter endpoints of a disjoint release.

    The release's queries read ``(-inf, t1]``, then ``(t1, t2]`` and so
    on: one query per endpoint.
    """

    ticks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ticks:
            raise ValueError("a schedule needs at least one endpoint")
        if any(b <= a for a, b in zip(self.ticks, self.ticks[1:])):
            raise ValueError(f"schedule endpoints must strictly increase: {self.ticks}")

    @classmethod
    def uniform(cls, start: int, interval: int, count: int) -> "ReleaseSchedule":
        if interval < 1 or count < 1:
            raise ValueError("uniform schedule needs interval >= 1 and count >= 1")
        return cls(tuple(start + interval * i for i in range(count)))

    def filters(self) -> tuple[TimeRangeFilter, ...]:
        starts = (NEG_INF,) + self.ticks[:-1]
        return tuple(TimeRangeFilter(s, e) for s, e in zip(starts, self.ticks))


@dataclass(frozen=True)
class SwcrParams:
    """Sliding-window release: windows ``(t_i - window, t_i]`` every ``period``."""

    window: int
    period: int
    first_release: int
    count: int

    def __post_init__(self) -> None:
        if self.window < 1 or self.period < 1 or self.count < 1:
            raise ValueError(
                f"window, period and count must be >= 1, got "
                f"({self.window}, {self.period}, {self.count})"
            )

    def release_times(self) -> tuple[int, ...]:
        return tuple(self.first_release + self.period * i for i in range(self.count))

    def filters(self) -> tuple[TimeRangeFilter, ...]:
        return tuple(TimeRangeFilter(t - self.window, t) for t in self.release_times())


@dataclass(frozen=True)
class HdcrParams:
    """Hierarchy of disjoint releases with exponentially growing intervals.

    Layer ``i`` (0-based, bottom first) covers ``(start, start + span]``
    with intervals of ``branching**i * interval`` ticks; the last node of
    a layer is truncated at ``start + span`` when the span is not a
    multiple of the layer interval.
    """

    height: int
    branching: int
    start: int
    span: int
    interval: int

    def __post_init__(self) -> None:
        if self.height < 1:
            raise ValueError(f"height must be >= 1, got {self.height}")
        if self.branching < 2:
            raise ValueError(f"branching must be >= 2, got {self.branching}")
        if self.span < 1 or self.interval < 1:
            raise ValueError(
                f"span and interval must be >= 1, got ({self.span}, {self.interval})"
            )

    def layer_interval(self, layer: int) -> int:
        return self.branching**layer * self.interval

    def layer_size(self, layer: int) -> int:
        """Number of nodes in a layer."""
        return -(-self.span // self.layer_interval(layer))

    def node_filter(self, layer: int, index: int) -> TimeRangeFilter:
        if not 0 <= layer < self.height or not 0 <= index < self.layer_size(layer):
            raise ValueError(f"no node at layer {layer}, index {index}")
        width = self.branching**layer
        return self.grid_filter(width * index, width * (index + 1))

    def grid_filter(self, low: int, high: int) -> TimeRangeFilter:
        """Real range of grid range ``(low, high]``, capped at ``start + span``."""
        return TimeRangeFilter(
            self.start + low * self.interval,
            min(self.start + high * self.interval, self.start + self.span),
        )

    def grid_size(self) -> int:
        """Bottom-layer node count; the unit grid for range covers."""
        return self.layer_size(0)


def most_span(ticks: Sequence[int], span: int) -> int:
    """Most consecutive schedule ranges a window of length ``span`` can touch.

    Two-pointer evaluation of the quadratic reference procedure (see
    ``oracles.most_span_oracle``): for each start endpoint, count the
    endpoints passed until the spread first reaches ``span``. Single-
    endpoint schedules give 0, and so does a start endpoint whose window
    runs past the schedule end, which understates the true overlap. Kept
    as the reference reproduction; the accountant enforces ``span_folds``.
    """
    n = len(ticks)
    best = 0
    j = 1
    for i in range(n - 1):
        if j <= i:
            j = i + 1
        while j < n and ticks[j] - ticks[i] < span:
            j += 1
        if j < n:
            best = max(best, j - i + 1)
    return best


def span_folds(ticks: Sequence[int], bound: int) -> int:
    """Most schedule ranges one entry can touch within ``bound`` ticks.

    ``most_span`` skips the start endpoints whose window runs past the
    last endpoint; an entry starting at the first of them, ``i``, can
    touch all ``n - i`` remaining ranges. A zero bound touches one range:
    an entry's mutations all fall on one tick, and it has at most one
    there, where ``most_span`` counts a point window twice.
    """
    if bound == 0:
        return 1
    late = min(bisect.bisect_right(ticks, ticks[-1] - bound), len(ticks) - 1)
    return max(most_span(ticks, bound), len(ticks) - late)


def _folds(
    constraint: MutationConstraint, per_mutation: int, time_bounded: Callable[[int], int]
) -> int:
    """``k * per_mutation``, ``time_bounded(bound)``, or a hybrid's largest branch count."""
    if isinstance(constraint, Hybrid):
        return max(_folds(b, per_mutation, time_bounded) for b in constraint.branches)
    if isinstance(constraint, AtMostK):
        return constraint.k * per_mutation
    if isinstance(constraint, TimeBounded):
        return time_bounded(constraint.bound)
    raise TypeError(f"unknown constraint {constraint!r}")


def dcr_folds(schedule: ReleaseSchedule, constraint: MutationConstraint) -> int:
    """Queries of a disjoint release one entry can affect."""
    return _folds(constraint, 1, lambda b: span_folds(schedule.ticks, b))


def swcr_folds(params: SwcrParams, constraint: MutationConstraint) -> int:
    """Queries of a sliding-window release one entry can affect."""
    per_mutation = -(-params.window // params.period)
    return _folds(constraint, per_mutation, lambda b: -(-(b + params.window) // params.period))


def hdcr_folds(params: HdcrParams, constraint: MutationConstraint) -> int:
    """Nodes of a hierarchical release one entry can affect.

    Mutations within ``bound`` ticks touch at most ``ceil(bound / dt_i) + 1``
    consecutive nodes of layer ``i`` (node interval ``dt_i``), and never
    more nodes than the layer has; the time-bounded count sums that per
    layer. See ``hdcr_time_bounded_nominal_folds`` for the commonly quoted
    figure.
    """
    return _folds(
        constraint,
        params.height,
        lambda b: sum(
            min(params.layer_size(i), -(-b // params.layer_interval(i)) + 1)
            for i in range(params.height)
        ),
    )


def hdcr_time_bounded_nominal_folds(params: HdcrParams, bound: int) -> float:
    """Closed-form layer sum ``sum_i((1/c^i) * ceil(bound/interval) + 1)``.

    Reported alongside the exact count: the two disagree for small
    bound-to-interval ratios (the closed form can dip below the true
    per-layer overlap), so it is never used for enforcement.
    """
    base = -(-bound // params.interval)
    return sum(
        base / params.branching**i + 1 for i in range(params.height)
    )


def local_folds(global_folds: int) -> int:
    """Fold count of the same release as a per-entry (local) guarantee."""
    if global_folds < 0:
        raise ValueError(f"fold count must be >= 0, got {global_folds}")
    return 2 * global_folds

