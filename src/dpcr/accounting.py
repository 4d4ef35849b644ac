"""Privacy-loss algebra and closed-form bounds for continual releases.

Everything here is parameter-only arithmetic: fold counts say how many
times a single entry's privacy loss composes, and ``compose_fold`` turns
a fold count into a composed ``(epsilon, delta)`` pair in closed form,
so time and memory do not grow with the count. Fold counts for the
release shapes:

================  ======================  ===================================
release           at-most-k mutations     time-bounded mutations
================  ======================  ===================================
disjoint          ``k``                   ``span_folds(endpoints, bound)``;
                                          uniform: ``min(count, ceil(bound/dt) + 1)``
sliding window    ``k * ceil(W/P)``       ``ceil((bound + W) / P)``
hierarchical      ``height * k``          ``sum_i min(n_i, ceil(bound/dt_i) + 1)``
any (hybrid)      max of branch counts    max of branch counts
================  ======================  ===================================

``count`` and ``dt`` are the query count and interval of a uniform
schedule; ``n_i`` and ``dt_i`` are those of hierarchy layer ``i``.
``HdcrParams.widths`` lists the ``dt_i`` of the layers that still split;
every layer above them is one node and counts 1. No time-bounded count
is ever below the number of ranges one entry can touch; a zero bound
counts 1 disjoint range, since an entry cannot mutate twice at one tick.
Composition never decreases with the fold count, so composing a
hybrid's largest branch count is the sup of its branch bounds. Local
(per-entry) guarantees double the fold count.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .changelog import (
    AtMostK,
    Hybrid,
    MutationConstraint,
    NEG_INF,
    TimeBounded,
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
    on: one query per endpoint. A uniform schedule's endpoints are a
    ``range``: exact ints of any size in constant memory, never iterated.
    """

    ticks: tuple[int, ...] | range

    def __post_init__(self) -> None:
        ticks = self.ticks
        if not ticks:
            raise ValueError("a schedule needs at least one endpoint")
        # a range's first step is every step
        pairs = zip(ticks[:1], ticks[1:2]) if isinstance(ticks, range) else zip(ticks, ticks[1:])
        if any(b <= a for a, b in pairs):
            raise ValueError(f"schedule endpoints must strictly increase: {ticks}")

    @classmethod
    def uniform(cls, start: int, interval: int, count: int) -> "ReleaseSchedule":
        if interval < 1 or count < 1:
            raise ValueError("uniform schedule needs interval >= 1 and count >= 1")
        return cls(range(start, start + interval * count, interval))

    @property
    def count(self) -> int:
        """The query count, at any size (``len`` of a range stops at ``sys.maxsize``)."""
        t = self.ticks
        return (t[-1] - t[0]) // t.step + 1 if isinstance(t, range) else len(t)

    def windows(self) -> tuple[tuple[float, ...], Sequence[int]]:
        """Query ``i`` reads ``(starts[i], ends[i]]``, from the tick before it."""
        return (NEG_INF, *self.ticks[:-1]), self.ticks


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

    def windows(self) -> tuple[range, range]:
        """Window ``i`` reads ``(starts[i], ends[i]]``, ends ``first_release + i * period``."""
        ends = range(self.first_release, self.first_release + self.period * self.count, self.period)
        return range(ends.start - self.window, ends.stop - self.window, self.period), ends


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

    @cached_property
    def widths(self) -> tuple[int, ...]:
        """Node widths in ticks of the layers that still split, bottom first. At any
        height, layer ``len(widths)`` and all above it are one node over the span."""
        widths = [self.interval]
        while widths[-1] < self.span:
            widths.append(widths[-1] * self.branching)
        return tuple(widths[:-1])

    def layer_size(self, layer: int) -> int:
        """Number of nodes in a layer."""
        return -(-self.span // self.widths[layer]) if layer < len(self.widths) else 1

    def windows(self, layer: int) -> tuple[range, list[int]]:
        """A layer's node windows in index order: node ``i`` reads ``(starts[i], ends[i]]``,
        ``(start + i*w, start + (i+1)*w]`` for node width ``w``, capped at ``start + span``."""
        if not 0 <= layer < self.height:
            raise ValueError(f"no layer {layer} in a {self.height}-layer hierarchy")
        widths, end = self.widths, self.start + self.span
        starts = range(self.start, end, widths[layer] if layer < len(widths) else self.span)
        return starts, [*starts[1:], end]

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


def uniform_span_folds(interval: int, count: int, bound: int) -> int:
    """``span_folds`` of ``count`` endpoints ``interval`` ticks apart, in closed form."""
    return min(count, -(-bound // interval) + 1) if bound else 1


def dcr_folds(schedule: ReleaseSchedule, constraint: MutationConstraint) -> int:
    """Queries of a disjoint release one entry can affect; uniform ticks in closed form."""
    t = schedule.ticks
    if isinstance(t, range):
        return _folds(constraint, 1, lambda b: uniform_span_folds(t.step, schedule.count, b))
    return _folds(constraint, 1, lambda b: span_folds(t, b))


def swcr_folds(params: SwcrParams, constraint: MutationConstraint) -> int:
    """Queries of a sliding-window release one entry can affect."""
    per_mutation = -(-params.window // params.period)
    return _folds(constraint, per_mutation, lambda b: -(-(b + params.window) // params.period))


def hdcr_folds(params: HdcrParams, constraint: MutationConstraint) -> int:
    """Nodes of a hierarchical release one entry can affect.

    Mutations within ``bound`` ticks touch at most ``ceil(bound / dt_i) + 1``
    consecutive nodes of layer ``i`` (node interval ``dt_i``), and never
    more nodes than the layer has; the time-bounded count sums that per
    layer. From the first one-node layer up, each layer counts 1, so the
    cost grows with the layers below it, not with the height. See
    ``hdcr_time_bounded_nominal_folds`` for the commonly quoted figure.
    """
    split = params.widths[:params.height]
    return _folds(constraint, params.height, lambda bound: params.height - len(split) + sum(
        min(-(-params.span // dt), -(-bound // dt) + 1) for dt in split))


def hdcr_time_bounded_nominal_folds(params: HdcrParams, bound: int) -> float:
    """Closed-form layer sum ``sum_i((1/c^i) * ceil(bound/interval) + 1)``.

    Reported alongside the exact count: the two disagree for small
    bound-to-interval ratios (the closed form can dip below the true
    per-layer overlap), so it is never used for enforcement. Once
    ``base / c^i`` is below ``2**-60`` a term rounds to ``1.0``, so the
    remaining terms are added as ``1.0``s without their powers. Terms are
    added left to right, as Python 3.10 and 3.11 ``sum`` adds a list of them.
    """
    base = -(-bound // params.interval)
    total, layers, power = 0.0, 0, 1
    while layers < params.height and base >= power >> 60:
        total += base / power + 1
        layers, power = layers + 1, power * params.branching
    return _plus_ones(total, params.height - layers)


def _plus_ones(total: float, count: int) -> float:
    """``total`` after ``count`` additions of ``1.0``, each rounded, in one round per binade.

    Below ``2**53`` adding ``1.0`` is exact until the sum reaches the
    next power of two, so a binade's exact additions are made at once and
    only the one that reaches the power is rounded. Once ``total + 1.0 ==
    total``, no further addition moves it; from ``2**53`` up that takes at
    most one more.
    """
    while count and total + 1.0 != total:
        exact = 0
        if total < 2**53:
            exact = min(count - 1, math.ceil(2.0 ** math.frexp(total)[1] - total) - 1)
        total = total + exact + 1.0
        count -= exact + 1
    return total


def local_folds(global_folds: int) -> int:
    """Fold count of the same release as a per-entry (local) guarantee."""
    if global_folds < 0:
        raise ValueError(f"fold count must be >= 0, got {global_folds}")
    return 2 * global_folds

