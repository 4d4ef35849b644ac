"""Randomized-response releases of answer-histogram changes under local DP.

An answer log is a changelog: each answer is a mutation whose value is
the label's index (its code) and a null answer is a deletion. It loads
into the changelog's columns without building a ``Mutation`` per answer,
and each survey round reads its window's row slice. Over a
window an entry's net change is the pair ``(previous answer, new
answer)`` with ``None`` marking absence, and "no net change" canonicalized
to ``(None, None)`` so that silence is indistinguishable from stability.
Entries randomize that pair through a column-stochastic rule and the
collector inverts the rule to recover an unbiased estimate of the
histogram change. Releases draw and estimate from the optimal rule's two
entries alone, never from a cells-by-cells matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .accounting import HdcrParams, ReleaseSchedule
from .changelog import (
    Changelog,
    ConsistencyError,
    Mutation,
    TimeRangeFilter,
    chains,
    id_ranks,
    read_columns,
    to_columns,
)
from .engines import check_prefix_cover, cover_values, node_table
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


def _rule_entries(size: int, epsilon: float) -> tuple[float, float]:
    """Diagonal and off-diagonal entries of the optimal rule."""
    if size < 2:
        raise ValueError(f"rule size must be >= 2, got {size}")
    if not epsilon > 0:
        raise InvalidEpsilonError(f"epsilon must be > 0, got {epsilon}")
    denom = size - 1 + math.exp(epsilon)
    return math.exp(epsilon) / denom, 1.0 / denom


def _invertible_rule_entries(size: int, epsilon: float) -> tuple[float, float]:
    """``_rule_entries``, refusing as ``invert_rule`` does a rule too ill-conditioned:
    its eigenvalues are 1 and ``p - q``, so its condition number is ``1 / (p - q)``."""
    p, q = _rule_entries(size, epsilon)
    condition = 1 / (p - q) if p > q else math.inf
    if condition > CONDITION_LIMIT:
        raise SingularMatrixError(
            f"rule condition number {condition:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    return p, q


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

    def code_cells(
        self, prev: np.ndarray, has_prev: np.ndarray, new: np.ndarray, has_new: np.ndarray
    ) -> np.ndarray:
        """Cells of net changes given as label-code columns, the values of an answer log.

        A change whose previous and new answers are equal, both absent
        included, is the no-change cell, as in ``net_mutation``.
        """
        none = len(self.alphabet) - 1
        cells = (np.where(has_prev, prev, none).astype(int) * len(self.alphabet)
                 + np.where(has_new, new, none).astype(int))
        same = (has_prev == has_new) & (~has_prev | (prev == new))
        return np.where(same, self.size - 1, cells)

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
    """Unbiased histogram-change estimate from a response histogram, for any rule.

    ``v = T c`` for ``T = delta @ invert_rule(rule)``; the covariance
    ``(T * c) T^T - v v^T / n`` is ``n T (diag(o) - o o^T) T^T`` for ``o = c / n``.
    """
    transform = delta @ invert_rule(rule)
    counts = np.asarray(counts, dtype=float)
    values = transform @ counts
    n = counts.sum()
    if n > 0:
        covariance = (transform * counts) @ transform.T - np.outer(values, values) / n
        covariance = (covariance + covariance.T) / 2
    else:
        covariance = np.zeros((transform.shape[0], transform.shape[0]))
    return HistogramEstimate(values, covariance, int(n))


def estimate_delta_v(
    responses: Sequence[int] | np.ndarray, rule: np.ndarray, delta: np.ndarray
) -> HistogramEstimate:
    """Unbiased histogram-change estimate from per-entry response indices."""
    counts = np.bincount(np.asarray(responses, dtype=int), minlength=rule.shape[0])
    return estimate_from_counts(counts, rule, delta)


def _change_values(counts: np.ndarray, gap: float) -> np.ndarray:
    """The optimal rule's estimate from the ``(z+1) x (z+1)`` counts ``C[prev, new]``.

    The rule's inverse is ``I / gap - (q / gap) 1 1^T`` for ``gap = p - q`` and the rows
    of ``delta_matrix()`` sum to zero, so ``delta @ inverse`` is ``delta / gap``.
    """
    return (counts.sum(axis=0) - counts.sum(axis=1))[:-1] / gap


def _estimate(counts: np.ndarray, gap: float) -> HistogramEstimate:
    """``estimate_from_counts`` for the optimal rule from the counts ``C[prev, new]``.

    ``O(z^2)`` for ``z`` labels. With ``T = delta / gap``, ``(T * c) T^T`` is
    ``S / gap^2``: ``S[a, a] = col_a + row_a - 2 C[a, a]`` counts the
    entries that move label ``a``, and ``S[a, b] = -(C[a, b] + C[b, a])``.
    """
    values = _change_values(counts, gap)
    n = counts.sum()
    if n > 0:
        moved = -(counts + counts.T)[:-1, :-1]
        moved[np.diag_indices(len(values))] = (
            counts.sum(axis=0) + counts.sum(axis=1) - 2 * counts.diagonal()
        )[:-1]
        covariance = moved / gap**2 - np.outer(values, values) / n
    else:
        covariance = np.zeros((len(values), len(values)))
    return HistogramEstimate(values, covariance, int(n))


def sample_responses(
    rng: np.random.Generator, true_cells: np.ndarray, rule: np.ndarray
) -> np.ndarray:
    """One randomized response per entry, drawn from any rule's columns.

    Entry ``e`` with true cell ``j`` takes one uniform ``u``, in entry
    order, and responds ``searchsorted(np.cumsum(rule, axis=0)[:, j], u,
    side="right")``, the count of sums at or below ``u``, clamped to the
    last cell. The releases draw through ``_draw_responses`` instead.
    """
    cdf = np.cumsum(rule, axis=0)
    u = rng.random(len(true_cells))
    drawn = np.count_nonzero(cdf[:, true_cells] <= u, axis=0)
    return np.minimum(drawn, len(cdf) - 1)


def _draw_responses(
    rng: np.random.Generator, true_cells: np.ndarray, size: int, p: float, q: float
) -> np.ndarray:
    """One response per entry from the optimal rule over ``size`` cells, in ``O(n)``.

    Entry ``e`` with true cell ``j`` takes one uniform ``u``, in entry order, and keeps
    ``j`` if ``u < p``. Otherwise ``k = floor((u - p) / q)``, clamped to ``size - 2``
    against round-off, picks ``k + (k >= j)``: each other cell with probability ``q``.
    """
    u = rng.random(len(true_cells))
    other = np.minimum(np.maximum(u - p, 0.0) / q, size - 2).astype(np.int64)
    other += other >= true_cells
    return np.where(u < p, true_cells, other)


def answer_changelog(answers: Iterable[tuple[int, str, float | None]]) -> Changelog:
    """The changelog of ``(t, entry, code)`` answers given in any order.

    Each answer's previous value is the entry's answer before it; a null
    answer of an entry without one raises ConsistencyError.
    """
    return _answer_log(to_columns((t, entry, None, code) for t, entry, code in answers))


def _answer_log(columns: tuple) -> Changelog:
    """The answer changelog of ``to_columns`` rows in any order, sorted by ``(t, entry)``."""
    times, codes, ids, _, new, _, has_new = columns
    order = np.lexsort((id_ranks(ids)[codes], times))
    times, codes, new, has_new = times[order], codes[order], new[order], has_new[order]
    # an answer's previous value is the one before it in its entry's chain
    chain, starts = chains(codes)
    follows = ~starts[1:]
    after, before = chain[1:][follows], chain[:-1][follows]
    prev, has_prev = np.zeros(len(times)), np.zeros(len(times), dtype=bool)
    prev[after], has_prev[after] = new[before], has_new[before]
    withdrawn = ~has_prev & ~has_new
    if withdrawn.any():
        i = int(np.argmax(withdrawn))
        raise ConsistencyError(
            f"entry {ids[codes[i]]!r} withdraws at t={times[i]} an answer it does not hold"
        )
    return Changelog.from_columns(times, codes, ids, prev, new, has_prev, has_new)


def load_answer_log(path: str | Path, space: ResponseSpace) -> Changelog:
    """Read a JSON Lines answer log ``{"entry", "t", "answer"}`` as a changelog.

    Each value is the answer's label index in ``space``, and a null
    answer is a deletion. Lines may come in any order; a label outside
    ``space`` is refused.
    """
    columns = read_columns(path, "answer", *answer_rules(space))
    try:
        return _answer_log(columns)
    except ConsistencyError as exc:
        raise ConsistencyError(f"{path}: {exc}") from exc


def answer_rules(space: ResponseSpace) -> tuple[Callable, Callable]:
    """The per-record and per-block rules ``read_columns`` reads an answer log with."""
    codes = {label: float(i) for i, label in enumerate(space.labels)}
    # one lookup maps a label to its code and null to an absent value
    lookup = {None: None, **codes}

    def record(rec: dict) -> tuple[None, float | None]:
        answer = rec["answer"]
        if answer is not None and answer not in codes:
            raise ValueError(f"answer {answer!r} is not one of the labels {list(space.labels)}")
        return None, codes.get(answer)

    def values(records: list[dict]) -> tuple[list, list]:
        answers = [rec["answer"] for rec in records]
        return [None] * len(answers), list(map(lookup.__getitem__, answers))

    return record, values


def dump_answer_log(log: Changelog, space: ResponseSpace, path: str | Path) -> None:
    """Write an answer changelog in the JSON Lines answer-log format."""
    with open(path, "w", encoding="utf-8") as fh:
        for t, entry, _, new in log._records(slice(None)):
            answer = None if new is None else space.labels[int(new)]
            fh.write(json.dumps({"entry": entry, "t": t, "answer": answer}))
            fh.write("\n")


def net_mutation(batch: Sequence[Mutation]) -> tuple[float | None, float | None]:
    """Net change of one entry's mutations inside a window, in time order.

    That is the first mutation's ``prev_value`` and the last one's
    ``new_value``; an empty batch or no net change is ``(None, None)``.
    """
    if not batch or batch[0].prev_value == batch[-1].new_value:
        return (None, None)
    return (batch[0].prev_value, batch[-1].new_value)


@dataclass(frozen=True, eq=False)
class RrRecord:
    """One released estimate; ``node_count`` is set for aggregated series."""

    time: int
    estimate: HistogramEstimate
    node_count: int | None = None


def rr_dcr(
    log: Changelog,
    space: ResponseSpace,
    schedule: ReleaseSchedule,
    epsilon: float,
    seed: int,
) -> list[RrRecord]:
    """Histogram-change estimates over consecutive disjoint intervals.

    Every entry responds once per interval, including a randomized
    ``(None, None)`` when nothing changed, so response timing reveals
    nothing. Summing the estimates up to ``t`` estimates the histogram
    at ``t`` relative to the release start. Round ``i`` over ``n`` entries
    takes uniforms ``[i n, (i + 1) n)`` of ``named_stream(seed, "rr-dcr")``.
    """
    survey = _window_survey(log, space, epsilon)
    windows = schedule.filters()
    estimates = survey(windows, named_stream(seed, "rr-dcr"))
    return [RrRecord(window.end, estimate) for window, estimate in zip(windows, estimates)]


def rr_hdcr(
    log: Changelog,
    space: ResponseSpace,
    params: HdcrParams,
    epsilon_per_node: float,
    seed: int,
) -> list[RrRecord]:
    """Cumulative histogram estimates aggregated from a response hierarchy.

    Every node collects one response per entry over its own interval and
    holds a histogram-change estimate; the estimate at each bottom-layer
    endpoint sums the node cover of the prefix range, so its variance
    follows the cover size instead of the elapsed time. Node
    ``(layer, index)`` over ``n`` entries takes uniforms
    ``[index n, (index + 1) n)`` of ``named_stream(seed, "rr-hdcr", layer)``.
    """
    check_prefix_cover(params)
    survey = _window_survey(log, space, epsilon_per_node)
    nodes = node_table(
        params, lambda layer, windows: survey(windows, named_stream(seed, "rr-hdcr", layer))
    )

    records, entries = [], len(log.ids)
    for j in range(1, params.grid_size() + 1):
        cover = cover_values(nodes, params, 0, j)
        values = sum((est.values for est in cover), np.zeros(space.size))
        covariance = sum((est.covariance for est in cover), np.zeros((space.size, space.size)))
        estimate = HistogramEstimate(values, covariance, entries)
        records.append(RrRecord(params.grid_filter(0, j).end, estimate, node_count=len(cover)))
    return records


def _window_survey(
    log: Changelog, space: ResponseSpace, epsilon: float
) -> Callable[[list[TimeRangeFilter], np.random.Generator], list[HistogramEstimate]]:
    """One survey round per window, in order: net cells, responses in entry-id order, estimate.

    A round reads its window's row slice (``Changelog.rows``). An entry's
    cell is the net change of its mutations there: the first one's
    previous answer and the last one's new answer, both ends of its run
    in one stable argsort (``chains``). An entry without one takes the
    no-change cell. Entries take their place from the log's id ranks and
    read the next ``n`` uniforms of the given stream. A round over ``r``
    rows, ``n`` entries and ``z`` labels costs ``O(r log r + n + z^2)``.
    """
    mspace = AnswerMutationSpace(space)
    p, q = _invertible_rule_entries(mspace.size, epsilon)
    position = log.ranks

    def survey(windows: list[TimeRangeFilter], rng: np.random.Generator) -> list[HistogramEstimate]:
        estimates = []
        for rows in log.rows(windows):
            cells = np.full(len(position), mspace.size - 1)
            if rows.start < rows.stop:
                codes = log.codes[rows]
                chain, starts = chains(codes)
                first, last = chain[starts], chain[np.append(starts[1:], True)]
                cells[position[codes[first]]] = mspace.code_cells(
                    log.prev[rows][first], log.has_prev[rows][first],
                    log.new[rows][last], log.has_new[rows][last],
                )
            responses = _draw_responses(rng, cells, mspace.size, p, q)
            counts = np.bincount(responses, minlength=mspace.size).reshape(len(mspace.alphabet), -1)
            estimates.append(_estimate(counts, p - q))
        return estimates

    return survey
