"""Randomized-response releases of answer-histogram changes under local DP.

Each surveyed entry holds one answer from a fixed label set; over an
interval its net change is a pair ``(previous answer, new answer)`` with
``None`` marking absence, and "no net change" canonicalized to
``(None, None)`` so that silence is indistinguishable from stability.
Entries randomize that pair through a column-stochastic rule and the
collector inverts the rule to recover an unbiased estimate of the
histogram change.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .accounting import HdcrParams, ReleaseSchedule
from .changelog import TimeRangeFilter
from .engines import cover_range, prefix_windows
from .mechanisms import named_stream

CONDITION_LIMIT = 1e12


class InvalidEpsilonError(ValueError):
    """The privacy parameter must be strictly positive."""


class UnknownLabelError(KeyError):
    """A label is not part of the declared response space."""


class SingularMatrixError(ValueError):
    """The response rule is too ill-conditioned to invert."""


@dataclass(frozen=True)
class ResponseSpace:
    """Ordered set of at least two distinct answer labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise ValueError("a response space needs at least two labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in {self.labels}")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(label) from None


def optimal_rule(size: int, epsilon: float) -> np.ndarray:
    """Budget-optimal response rule: keep the truth with the max allowed odds.

    Diagonal ``e^eps / (size - 1 + e^eps)``, off-diagonal
    ``1 / (size - 1 + e^eps)``; columns sum to one and any two entries of
    a row differ by the factor ``e^eps`` at most.
    """
    p, q = _rule_entries(size, epsilon)
    rule = np.full((size, size), q)
    np.fill_diagonal(rule, p)
    return rule


def optimal_rule_inverse(size: int, epsilon: float) -> np.ndarray:
    """Closed-form inverse of ``optimal_rule`` (rank-one update of identity).

    The rule is symmetric with eigenvalues 1 and ``p - q``, so its 2-norm
    condition number is exactly ``1 / (p - q)``; like ``invert_rule``,
    this refuses a rule whose condition number exceeds CONDITION_LIMIT.
    """
    p, q = _rule_entries(size, epsilon)
    gap = p - q
    condition = 1 / gap if gap > 0 else math.inf
    if condition > CONDITION_LIMIT:
        raise SingularMatrixError(
            f"rule condition number {condition:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    return np.eye(size) / gap - np.full((size, size), q / gap)


def _rule_entries(size: int, epsilon: float) -> tuple[float, float]:
    """Diagonal and off-diagonal entries of the optimal rule."""
    if size < 2:
        raise ValueError(f"rule size must be >= 2, got {size}")
    if not epsilon > 0:
        raise InvalidEpsilonError(f"epsilon must be > 0, got {epsilon}")
    denom = size - 1 + math.exp(epsilon)
    return math.exp(epsilon) / denom, 1.0 / denom


def verify_dp(rule: np.ndarray, epsilon: float) -> bool:
    """Check the pure-DP ratio condition on a column-stochastic rule.

    True iff every entry satisfies ``p[i, a] <= e^eps * p[i, b]`` for all
    column pairs, up to a relative slack of 1e-9 for float round-off; with
    zero delta the subset condition reduces to this elementwise check.
    """
    rule = np.asarray(rule, dtype=float)
    if rule.ndim != 2 or rule.shape[0] != rule.shape[1]:
        raise ValueError(f"rule must be square, got shape {rule.shape}")
    bound = math.exp(epsilon)
    row_max = rule.max(axis=1)
    row_min = rule.min(axis=1)
    return bool(np.all(row_max <= bound * row_min * (1 + 1e-9)))


def invert_rule(rule: np.ndarray) -> np.ndarray:
    """Invert a response rule, refusing ill-conditioned matrices."""
    rule = np.asarray(rule, dtype=float)
    cond = np.linalg.cond(rule)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularMatrixError(f"rule condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    return np.linalg.inv(rule)


class AnswerMutationSpace:
    """Canonical indexing of answer-change pairs over ``labels + {None}``.

    Cells are ordered row-major by ``(previous, new)`` with ``None``
    last, so the no-change cell ``(None, None)`` has the final index.
    """

    def __init__(self, space: ResponseSpace) -> None:
        self.space = space
        self.alphabet: tuple[str | None, ...] = space.labels + (None,)
        self.size = len(self.alphabet) ** 2

    def index(self, prev: str | None, new: str | None) -> int:
        return self._pos(prev) * len(self.alphabet) + self._pos(new)

    def cell(self, index: int) -> tuple[str | None, str | None]:
        if not 0 <= index < self.size:
            raise IndexError(f"cell index {index} out of range")
        width = len(self.alphabet)
        return self.alphabet[index // width], self.alphabet[index % width]

    def one_hot(self, prev: str | None, new: str | None) -> np.ndarray:
        vec = np.zeros(self.size)
        vec[self.index(prev, new)] = 1.0
        return vec

    def delta_matrix(self) -> np.ndarray:
        """Histogram contribution of each cell: -1 at the old label, +1 at the new.

        Columns for identity pairs and ``(None, None)`` are zero; birth
        and death columns have a single nonzero entry.
        """
        z = self.space.size
        mat = np.zeros((z, self.size), dtype=int)
        for j in range(self.size):
            prev, new = self.cell(j)
            if prev == new:
                continue
            if prev is not None:
                mat[self.space.index(prev), j] -= 1
            if new is not None:
                mat[self.space.index(new), j] += 1
        return mat

    def _pos(self, label: str | None) -> int:
        if label is None:
            return len(self.alphabet) - 1
        return self.space.index(label)


@dataclass(frozen=True, eq=False)
class HistogramEstimate:
    """Estimated histogram change with its plug-in covariance.

    The estimate ``A c`` maps the response counts ``c`` of ``n`` entries
    through ``A``, the delta-times-inverse-rule map. The counts are
    multinomial, so ``covariance`` is ``n * A (diag(o) - o o^T) A^T``
    with ``o = c / n`` the observed response frequencies.
    """

    values: np.ndarray
    covariance: np.ndarray
    sample_size: int

    def __post_init__(self) -> None:
        cov = np.asarray(self.covariance)
        # np.allclose(cov, cov.T, atol=1e-9) spelled out: every survey node and
        # aggregate builds an estimate, and allclose's fixed overhead would be
        # most of that cost
        if not np.all(np.abs(cov - cov.T) <= 1e-9 + 1e-5 * np.abs(cov.T)):
            raise ValueError("covariance must be symmetric")
        if cov.shape and np.diag(cov).min() < -1e-9:
            raise ValueError("covariance diagonal must be nonnegative")


def estimate_from_counts(
    counts: np.ndarray, rule: np.ndarray, delta: np.ndarray
) -> HistogramEstimate:
    """Unbiased histogram-change estimate from a response histogram."""
    return _estimate(counts, delta @ invert_rule(rule))


def estimate_delta_v(
    responses: Sequence[int] | np.ndarray, rule: np.ndarray, delta: np.ndarray
) -> HistogramEstimate:
    """Unbiased histogram-change estimate from per-entry response indices."""
    counts = np.bincount(np.asarray(responses, dtype=int), minlength=rule.shape[0])
    return estimate_from_counts(counts, rule, delta)


def _estimate(counts: np.ndarray, transform: np.ndarray) -> HistogramEstimate:
    """``T c`` and its covariance ``(T * c) T^T - v v^T / n``.

    That equals ``n T (diag(o) - o o^T) T^T`` for ``o = c / n`` without
    building the cells-by-cells inner matrix.
    """
    counts = np.asarray(counts, dtype=float)
    values = transform @ counts
    n = counts.sum()
    if n > 0:
        covariance = (transform * counts) @ transform.T - np.outer(values, values) / n
        covariance = (covariance + covariance.T) / 2
    else:
        covariance = np.zeros((transform.shape[0], transform.shape[0]))
    return HistogramEstimate(values, covariance, int(n))


def sample_responses(
    rng: np.random.Generator, true_cells: np.ndarray, rule: np.ndarray
) -> np.ndarray:
    """One randomized response per entry, drawn from the rule's columns.

    Entry ``e`` with true cell ``j`` draws from column ``j``; draws use
    one uniform per entry from the given stream, in entry order.
    """
    true_cells = np.asarray(true_cells, dtype=int)
    cdf = np.cumsum(rule, axis=0)
    u = rng.random(true_cells.shape[0])
    out = np.empty(true_cells.shape[0], dtype=int)
    for j in np.unique(true_cells):
        mask = true_cells == j
        out[mask] = np.searchsorted(cdf[:, j], u[mask], side="right")
    return np.minimum(out, rule.shape[0] - 1)


AnswerTimeline = tuple[tuple[int, str | None], ...]


def answer_at(timeline: AnswerTimeline, time: float) -> str | None:
    """The entry's answer at ``time``: the last record at or before it."""
    answer = None
    for t, label in timeline:
        if t > time:
            break
        answer = label
    return answer


def net_mutation(
    timeline: AnswerTimeline, start: float, end: int
) -> tuple[str | None, str | None]:
    """Net answer change over ``(start, end]``; no net change is ``(None, None)``."""
    prev = answer_at(timeline, start)
    new = answer_at(timeline, end)
    if prev == new:
        return (None, None)
    return (prev, new)


def load_answer_log(path: str | Path) -> dict[str, AnswerTimeline]:
    """Read JSON Lines answer timelines ``{"entry", "t", "answer"}``."""
    timelines: dict[str, list[tuple[int, str | None]]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                entry = str(rec["entry"])
                t = int(rec["t"])
                answer = rec["answer"]
                if answer is not None:
                    answer = str(answer)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: bad answer record: {exc}") from exc
            timelines.setdefault(entry, []).append((t, answer))
    out: dict[str, AnswerTimeline] = {}
    for entry, records in timelines.items():
        records.sort(key=lambda r: r[0])
        for (t1, _), (t2, _) in zip(records, records[1:]):
            if t1 == t2:
                raise ValueError(f"entry {entry!r} has two answers at t={t1}")
        out[entry] = tuple(records)
    return out


def dump_answer_log(timelines: Mapping[str, AnswerTimeline], path: str | Path) -> None:
    records = []
    for entry, timeline in timelines.items():
        for t, answer in timeline:
            records.append((t, entry, answer))
    records.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8") as fh:
        for t, entry, answer in records:
            fh.write(json.dumps({"entry": entry, "t": t, "answer": answer}))
            fh.write("\n")


@dataclass(frozen=True, eq=False)
class RrRecord:
    """One released estimate; ``node_count`` is set for aggregated series."""

    time: int
    estimate: HistogramEstimate
    node_count: int | None = None


def rr_dcr(
    answer_log: Mapping[str, AnswerTimeline],
    space: ResponseSpace,
    schedule: ReleaseSchedule,
    epsilon: float,
    seed: int,
) -> list[RrRecord]:
    """Histogram-change estimates over consecutive disjoint intervals.

    Every entry responds once per interval, including a randomized
    ``(None, None)`` when nothing changed, so response timing reveals
    nothing. Summing the estimates up to ``t`` estimates the histogram
    at ``t`` relative to the release start.
    """
    survey = _window_survey(answer_log, space, epsilon)
    return [
        RrRecord(window.end, survey(window, named_stream(seed, "rr-dcr", i)))
        for i, window in enumerate(schedule.filters())
    ]


def rr_hdcr(
    answer_log: Mapping[str, AnswerTimeline],
    space: ResponseSpace,
    params: HdcrParams,
    epsilon_per_node: float,
    seed: int,
) -> list[RrRecord]:
    """Cumulative histogram estimates aggregated from a response hierarchy.

    Every node collects one response per entry over its own interval and
    holds a histogram-change estimate; the estimate at each bottom-layer
    endpoint sums the node cover of the prefix range, so its variance
    follows the cover size instead of the elapsed time.
    """
    prefixes = prefix_windows(params)
    survey = _window_survey(answer_log, space, epsilon_per_node)
    node_estimates = {
        (layer, index): survey(
            params.node_filter(layer, index), named_stream(seed, "rr-hdcr", layer, index)
        )
        for layer in range(params.height)
        for index in range(params.layer_size(layer))
    }

    records = []
    for j, window in prefixes:
        cover = cover_range(0, j, params.branching, params.height)
        nodes = [node_estimates[node] for node in cover]
        values = sum((est.values for est in nodes), np.zeros(space.size))
        covariance = sum((est.covariance for est in nodes), np.zeros((space.size, space.size)))
        estimate = HistogramEstimate(values, covariance, len(answer_log))
        records.append(RrRecord(window.end, estimate, node_count=len(cover)))
    return records


def _window_survey(
    answer_log: Mapping[str, AnswerTimeline], space: ResponseSpace, epsilon: float
) -> Callable[[TimeRangeFilter, np.random.Generator], HistogramEstimate]:
    """One survey round per window: net cells, responses in entry-id order, estimate.

    The rule and the estimator's ``delta @ inverse`` map are built once
    per release, from the closed-form inverse of the optimal rule.
    """
    mspace = AnswerMutationSpace(space)
    rule = optimal_rule(mspace.size, epsilon)
    transform = mspace.delta_matrix() @ optimal_rule_inverse(mspace.size, epsilon)
    entries = sorted(answer_log)

    def survey(window: TimeRangeFilter, rng: np.random.Generator) -> HistogramEstimate:
        cells = [
            mspace.index(*net_mutation(answer_log[e], window.start, window.end)) for e in entries
        ]
        responses = sample_responses(rng, cells, rule)
        return _estimate(np.bincount(responses, minlength=mspace.size), transform)

    return survey
