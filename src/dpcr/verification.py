"""Oracle suite pairing every engine claim with its brute-force check.

This is the harness behind the ``verify`` CLI subcommand: each check
runs an engine path and its independent oracle side by side and emits
one report per claim. Integer claims are exact; Monte Carlo claims pass
within three standard errors (means) or ten percent (variances), so a
larger ``trials`` tightens them automatically.

The random dominance instances are drawn in chunks (``CHUNK``
schedules or ``HIERARCHY_CHUNK`` hierarchies), one vectorized draw per
parameter. Each instance still builds its release and fold count
through the code under test, and its windows are the ones the release
reads (``windows``), so a widened window shows, and a uniform schedule's
fold count is its closed form. ``oracles.affected_count_oracle`` then
counts the whole chunk over padded integer arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import oracles
from .accounting import (
    AtMostK,
    HdcrParams,
    ReleaseSchedule,
    SwcrParams,
    TimeBounded,
    dcr_folds,
    hdcr_folds,
    most_span,
    swcr_folds,
)
from .changelog import NEG_INF, Changelog, Mutation
from .engines import build_hdcr, aggregate, cover_range, run_dcr
from .mechanisms import LinearQuerySpec, NoiseSpec, linear_query_change, sensitivity
from .randomized_response import (
    AnswerMutationSpace,
    ResponseSpace,
    _change_values,
    _draw_responses,
    _estimate,
    _invertible_rule_entries,
    estimate_from_counts,
    optimal_rule,
    verify_dp,
)


@dataclass(frozen=True)
class OracleReport:
    name: str
    instance: str
    expected: str
    actual: str
    passed: bool


def _report(name: str, instance: str, expected, actual, passed: bool) -> OracleReport:
    return OracleReport(name, instance, str(expected), str(actual), bool(passed))


def run_all(trials: int = 10_000, seed: int = 20_240_807, fault: str | None = None) -> list[OracleReport]:
    """Run the whole oracle battery; ``fault`` injects a known defect.

    ``fault="cover-off-by-one"`` perturbs the cover counts under test so
    the harness itself can be checked to fail loudly.
    """
    reports: list[OracleReport] = []
    reports += check_cover_bounds(fault)
    reports += check_most_span(seed)
    reports += check_dominance(trials, seed)
    reports += check_laplace_moments(max(trials, 10_000), seed)
    reports += check_response_rule(max(trials, 10_000), seed)
    reports += check_dcr_against_snapshots(seed)
    reports += check_aggregate_exactness(seed)
    reports += check_estimator_unbiasedness(max(trials, 10_000), seed)
    return reports


def check_cover_bounds(fault: str | None = None) -> list[OracleReport]:
    """Exhaustive cover-size bounds plus the reference 18-node cover.

    One ``cover_range`` call covers all ranges of a hierarchy, and each cover
    is checked from the ``(layer, index)`` nodes it emits.
    """
    bump = 1 if fault == "cover-off-by-one" else 0
    reports = []
    for branching, height, top in ((2, 6, 64), (10, 2, 100)):
        lows, highs, minima = [], [], []
        for high in range(1, top + 1):
            low = max(0, high - branching**height)
            lows += range(low, high)
            highs += [high] * (high - low)
            minima += oracles.min_cover_oracle(high, branching, height)[low:]
        lows, highs = np.array(lows), np.array(highs)
        owner, layer, index = cover_range(lows, highs, branching, height).T
        sizes = np.bincount(owner, minlength=len(lows))
        counts = sizes + bump
        bounds = np.array([_cover_bound(branching, width) for width in range(top + 1)])
        violations = np.count_nonzero(counts > bounds[highs - lows])
        # node spans, left to right as emitted, must run from low to high without gap
        width = branching**layer
        start, end = index * width, (index + 1) * width
        opens = np.r_[True, owner[1:] != owner[:-1]]
        closes = np.r_[opens[1:], True]
        gap = np.r_[False, start[1:] != end[:-1]] & ~opens
        gap[opens] = start[opens] != lows[owner[opens]]
        gap[closes] |= end[closes] != highs[owner[closes]]
        broken = np.unique(owner[gap]).size + np.count_nonzero(sizes == 0)
        matches = np.count_nonzero(counts == minima) / len(lows)
        instance = f"c={branching} h={height}"
        reports += [
            _report("cover-count-bound", f"{instance} all (l,r] up to {top}", "0 violations",
                    f"{violations} violations over {len(lows)} ranges", violations == 0),
            _report("cover-partition", instance, "disjoint and exact everywhere",
                    f"{broken} broken covers", broken == 0),
            _report("cover-near-minimal", instance, ">= 90% equal to DP minimum",
                    f"{matches:.1%}", matches >= 0.9),
        ]
    count99 = len(cover_range(0, 99, 10, 2)) + bump
    reports.append(
        _report("cover-reference-case", "(0, 99] c=10 h=2", 18, count99, count99 == 18)
    )
    return reports


def _cover_bound(branching: int, width: int) -> int:
    if width == 1:
        return 1
    levels = 0  # ceil(log_c(width)), in integers: floats round 125 up past 5**3
    while branching**levels < width:
        levels += 1
    return 2 * (branching - 1) * levels


def check_most_span(seed: int) -> list[OracleReport]:
    """Two-pointer span count against the quadratic reference procedure."""
    rng = np.random.default_rng(seed)
    cases = [((0, 1, 2, 3), 1), ((5,), 3), ((0, 7, 14, 21), 0)]
    for _ in range(500):
        n = int(rng.integers(1, 40))
        ticks = tuple(np.cumsum(rng.integers(1, 9, size=n)).tolist())
        cases.append((ticks, int(rng.integers(0, 40))))
    mismatches = sum(
        1 for ticks, span in cases if most_span(ticks, span) != oracles.most_span_oracle(ticks, span)
    )
    return [
        _report(
            "most-span-differential",
            f"{len(cases)} schedules",
            "0 mismatches",
            f"{mismatches} mismatches",
            mismatches == 0,
        )
    ]


# Random dominance instances are drawn and counted this many at a time.
# A chunk's arrays are padded to its widest release: a schedule has up to
# 19 windows and a hierarchy up to 75 nodes, so hierarchies go a quarter
# as many at a time.
CHUNK = 1_000
HIERARCHY_CHUNK = CHUNK // 4


@dataclass(frozen=True, eq=False)
class _Entries:
    """One random probe entry per row: at most ``k`` mutations within a reach
    of the insertion, or a bound reached exactly."""

    times: np.ndarray  # (rows, 7), padded with oracles.FAR_PAST
    at_most_k: np.ndarray
    k: np.ndarray
    bound: np.ndarray

    def constraints(self) -> Iterator[AtMostK | TimeBounded]:
        return (
            AtMostK(k) if at_most_k else TimeBounded(bound)
            for at_most_k, k, bound in zip(self.at_most_k.tolist(), self.k.tolist(), self.bound.tolist())
        )


def _draw_entries(
    rng: np.random.Generator, insertion: np.ndarray, reach: np.ndarray, max_bound: np.ndarray
) -> _Entries:
    """Per row, a probe entry from ``insertion``: ``k`` in [1, 5] mutation offsets
    within ``reach`` ticks, or a bound up to ``max_bound`` with offsets 0, the
    bound and 1 to 5 random ones between them."""
    rows = len(insertion)
    at_most_k = rng.random(rows) < 0.5
    k = rng.integers(1, 6, rows)
    bound = rng.integers(0, max_bound + 1)
    offsets = rng.integers(0, np.where(at_most_k, reach, bound)[:, None] + 1, size=(rows, 5))
    offsets = np.column_stack([offsets, np.zeros(rows, dtype=np.int64), bound])
    times = insertion[:, None] + offsets
    times[:, :5][np.arange(5) >= k[:, None]] = oracles.FAR_PAST
    times[at_most_k, 5:] = oracles.FAR_PAST
    return _Entries(times, at_most_k, k, bound)


@dataclass(frozen=True, eq=False)
class _Schedules:
    """Random disjoint and sliding-window instances, one per row."""

    interval: np.ndarray
    count: np.ndarray
    start: np.ndarray
    ticks: np.ndarray  # (rows, max count); row i holds count[i] endpoints
    uniform: np.ndarray  # rows whose endpoints are interval[i] apart
    insertion: np.ndarray
    entries: _Entries
    window: np.ndarray


def _draw_schedules(rng: np.random.Generator, rows: int) -> _Schedules:
    """``rows`` instances, each parameter one vectorized draw.

    Schedules are uniform or have random gaps in [1, 2 * interval], and
    may have a single endpoint. Half the insertions fall on an endpoint.
    Time bounds reach up to 4 intervals past the schedule span.
    """
    index = np.arange(rows)
    interval = rng.integers(1, 8, rows)
    count = rng.integers(1, 20, rows)
    start = rng.integers(-5, 6, rows)
    uniform = rng.random(rows) < 0.5
    ticks = np.empty((rows, int(count.max())), dtype=np.int64)  # the start, then the gaps
    ticks[:, 0] = start
    ticks[:, 1:] = rng.integers(1, 2 * interval[:, None] + 1, size=(rows, ticks.shape[1] - 1))
    ticks[uniform, 1:] = interval[uniform, None]
    np.cumsum(ticks, axis=1, out=ticks)
    last = ticks[index, count - 1]
    insertion = np.where(
        rng.random(rows) < 0.5,
        ticks[index, rng.integers(0, count)],
        rng.integers(start - 4, last + 2),
    )
    entries = _draw_entries(rng, insertion, 4 * interval, last - start + 4 * interval)
    window = interval * rng.integers(1, 5, rows)
    return _Schedules(interval, count, start, ticks, uniform, insertion, entries, window)


def _counts(
    instances: Iterable[tuple[tuple, int]], times: np.typing.ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Affected counts over each release's own windows, and the fold counts.

    ``instances`` gives one ``((starts, ends), folds)`` pair per row of
    ``times`` and is read once, so each release lives only while its
    row is written. Padding windows are empty, ``(0, 0]``, and a
    ``-inf`` start becomes ``oracles.FAR_PAST``.
    """
    folds, lengths, starts, ends = [], [], [], []
    for (window_starts, window_ends), count in instances:
        folds.append(count)
        lengths.append(len(window_ends))
        starts += [oracles.FAR_PAST if s == NEG_INF else s for s in window_starts]
        ends += window_ends
    written = np.arange(max(lengths)) < np.array(lengths)[:, None]
    padded = np.zeros((2, *written.shape), dtype=np.int64)
    padded[0][written] = starts
    padded[1][written] = ends
    return oracles.affected_count_oracle(padded[0], padded[1], times), np.array(folds)


def _exceedances(instances: Iterable[tuple[tuple, int]], entries: _Entries) -> int:
    hits, folds = _counts(instances, entries.times)
    return int(np.count_nonzero(hits > folds))


def _schedule_exceedances(rng: np.random.Generator, rows: int) -> tuple[int, int]:
    """Disjoint and sliding-window exceedances over ``rows`` random instances."""
    s = _draw_schedules(rng, rows)
    ticks, count, interval, start, uniform, window = (
        a.tolist() for a in (s.ticks, s.count, s.interval, s.start, s.uniform, s.window)
    )
    schedules = (
        ReleaseSchedule.uniform(t[0], i, c) if u else ReleaseSchedule(tuple(t[:c]))
        for t, c, i, u in zip(ticks, count, interval, uniform)
    )
    dcr = _exceedances(
        ((x.windows(), dcr_folds(x, c)) for x, c in zip(schedules, s.entries.constraints())),
        s.entries,
    )
    swcrs = (
        SwcrParams(window=w, period=i, first_release=t, count=c)
        for w, i, t, c in zip(window, interval, start, count)
    )
    swcr = _exceedances(
        ((x.windows(), swcr_folds(x, c)) for x, c in zip(swcrs, s.entries.constraints())),
        s.entries,
    )
    return dcr, swcr


def _node_windows(params: HdcrParams) -> tuple[list, list]:
    layers = [params.windows(layer) for layer in range(params.height)]
    return [s for starts, _ in layers for s in starts], [e for _, ends in layers for e in ends]


def _hierarchy_exceedances(rng: np.random.Generator, rows: int) -> int:
    """Hierarchical exceedances over ``rows`` random hierarchies of height 1 to 4."""
    height = rng.integers(1, 5, rows)
    branching = rng.integers(2, 4, rows)
    start = rng.integers(-5, 6, rows)
    span = rng.integers(1, 41, rows)
    interval = rng.integers(1, 4, rows)
    insertion = rng.integers(start - 4, start + span + 2)
    entries = _draw_entries(rng, insertion, span, span + 4 * interval)
    hierarchies = (
        HdcrParams(height=h, branching=b, start=t, span=s, interval=i)
        for h, b, t, s, i in zip(*(a.tolist() for a in (height, branching, start, span, interval)))
    )
    return _exceedances(
        ((_node_windows(p), hdcr_folds(p, c)) for p, c in zip(hierarchies, entries.constraints())),
        entries,
    )


def check_dominance(instances: int, seed: int) -> list[OracleReport]:
    """Affected-query counts never exceed the accounted fold counts.

    Random schedules are uniform or not, may have a single endpoint, and
    draw time bounds up to past the schedule span; packed adversarial
    entries must achieve equality for uniform disjoint schedules. About
    a tenth as many random hierarchies follow. Instances are drawn and
    counted in chunks, each over the windows its release reads
    (``windows``), so a window that opens early or overlaps its neighbour
    shows.
    """
    rng = np.random.default_rng(seed)
    reports = []

    interval, bound = 3, 7
    ticks = ReleaseSchedule.uniform(3, interval, 12)
    hits, folds = (int(x[0]) for x in _counts(
        [(ticks.windows(), dcr_folds(ticks, TimeBounded(bound)))],
        # mutations at consecutive endpoints, the last one `bound` after the first
        [sorted({*ticks.ticks[:-(-bound // interval)], ticks.ticks[0] + bound})],
    ))
    reports.append(_report("dcr-time-bounded-equality",
                           f"uniform interval={interval} bound={bound}, packed entry",
                           folds, hits, hits == folds))

    k = 4
    hits_k, folds_k = (int(x[0]) for x in _counts(
        [(ticks.windows(), dcr_folds(ticks, AtMostK(k)))],
        [list(ticks.ticks[:k])],
    ))
    reports.append(_report("dcr-at-most-k-equality",
                           f"uniform schedule, k={k} mutations in distinct intervals",
                           folds_k, hits_k, hits_k == folds_k))

    dcr_bad = swcr_bad = 0
    for done in range(0, instances, CHUNK):
        dcr, swcr = _schedule_exceedances(rng, min(CHUNK, instances - done))
        dcr_bad += dcr
        swcr_bad += swcr
    instance = f"{instances} random instances"
    for name, bad in (("dcr-dominance", dcr_bad), ("swcr-dominance", swcr_bad)):
        reports.append(_report(name, instance, "0 exceedances", f"{bad} exceedances", bad == 0))

    hierarchies = max(instances // 10, 1)
    hdcr_bad = sum(
        _hierarchy_exceedances(rng, min(HIERARCHY_CHUNK, hierarchies - done))
        for done in range(0, hierarchies, HIERARCHY_CHUNK)
    )
    reports.append(_report("hdcr-dominance", f"{hierarchies} random hierarchies",
                           "0 exceedances", f"{hdcr_bad} exceedances", hdcr_bad == 0))
    return reports


def check_laplace_moments(trials: int, seed: int) -> list[OracleReport]:
    """Sampled Laplace noise matches its closed-form mean and variance."""
    from .mechanisms import perturb

    noise = NoiseSpec(epsilon=0.5, sensitivity=2.0, seed=seed)
    scale = noise.scale

    def sampler(rng: np.random.Generator) -> float:
        return perturb(0.0, noise, rng)

    mean = oracles.monte_carlo("mean", sampler, trials, seed)
    var = oracles.monte_carlo("variance", sampler, trials, seed + 1)
    mean_ok = abs(mean.estimate) <= 3 * mean.stderr
    var_ok = abs(var.estimate - 2 * scale**2) <= 0.1 * 2 * scale**2
    return [
        _report("laplace-mean", f"{trials} draws", "0 within 3 stderr",
                f"{mean.estimate:.4g} (stderr {mean.stderr:.2g})", mean_ok),
        _report("laplace-variance", f"{trials} draws", f"{2 * scale**2:.6g} within 10%",
                f"{var.estimate:.6g}", var_ok),
    ]


def check_response_rule(trials: int, seed: int) -> list[OracleReport]:
    """Column stochasticity, ratio property, and sampling frequencies."""
    reports = []
    stochastic_ok = True
    dp_ok = True
    for size in (2, 9, 26):
        for epsilon in (0.5, 1.0, 2.0):
            rule = optimal_rule(size, epsilon)
            if not np.allclose(rule.sum(axis=0), 1.0, atol=1e-12):
                stochastic_ok = False
            if not verify_dp(rule, epsilon) or verify_dp(rule, 0.99 * epsilon):
                dp_ok = False
    reports.append(
        _report("rule-column-sums", "sizes {2,9,26} x eps {0.5,1,2}",
                "all within 1e-12 of 1", "ok" if stochastic_ok else "violated", stochastic_ok)
    )
    reports.append(
        _report("rule-dp-ratio", "passes at eps, fails at 0.99*eps",
                "true/false per pair", "ok" if dp_ok else "violated", dp_ok)
    )

    rule = optimal_rule(4, 1.0)
    rng = np.random.default_rng(seed)
    draws = _draw_responses(rng, np.zeros(trials, dtype=int), 4, *_invertible_rule_entries(4, 1.0))
    freq = np.bincount(draws, minlength=4) / trials
    stderr = np.sqrt(rule[:, 0] * (1 - rule[:, 0]) / trials)
    freq_ok = bool(np.all(np.abs(freq - rule[:, 0]) <= 3.5 * stderr))
    reports.append(
        _report("rule-sampling-frequencies", f"{trials} draws of one column",
                "within 3.5 binomial stderr", f"max dev {np.abs(freq - rule[:, 0]).max():.4g}",
                freq_ok)
    )
    reports.append(_check_estimator_closed_form(seed))
    return reports


def _check_estimator_closed_form(seed: int) -> OracleReport:
    """The releases' closed-form estimate against ``estimate_from_counts``, which maps
    through ``delta @ invert_rule(optimal_rule)``.

    Deviations are measured in standard deviations for the values and
    relative to the largest covariance entry for the covariance.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for labels in (2, 3):
        mspace = AnswerMutationSpace(ResponseSpace(tuple("abc"[:labels])))
        for epsilon in (0.5, 1.0, 4.0):
            counts = rng.integers(0, 1000, size=mspace.size)
            p, q = _invertible_rule_entries(mspace.size, epsilon)
            got = _estimate(counts.reshape(labels + 1, -1), p - q)
            want = estimate_from_counts(
                counts, optimal_rule(mspace.size, epsilon), mspace.delta_matrix()
            )
            sd = np.sqrt(np.diag(want.covariance))
            cov_scale = np.abs(want.covariance).max()
            worst = max(worst, float(np.max(np.abs(got.values - want.values) / sd)),
                        float(np.abs(got.covariance - want.covariance).max() / cov_scale))
    return _report("estimator-closed-form", "labels {2,3} x eps {0.5,1,4}, random counts",
                   "<= 1e-9", f"{worst:.2e}", worst <= 1e-9)


def _random_changelog(rng: np.random.Generator, entries: int, horizon: int) -> Changelog:
    muts: list[Mutation] = []
    for i in range(entries):
        eid = f"e{i:04d}"
        t0 = int(rng.integers(0, horizon))
        times = sorted(set([t0] + [int(t) for t in rng.integers(t0, horizon + 1, size=rng.integers(0, 4))]))
        value = float(np.round(rng.uniform(0, 100), 3))
        chain = [Mutation(times[0], eid, None, value)]
        for t in times[1:]:
            new_value = float(np.round(rng.uniform(0, 100), 3))
            chain.append(Mutation(t, eid, value, new_value))
            value = new_value
        if len(times) > 1 and rng.random() < 0.2:
            last = chain.pop()
            chain.append(Mutation(last.time, eid, last.prev_value, None))
        muts.extend(chain)
    return Changelog.from_unsorted(muts)


def check_dcr_against_snapshots(seed: int) -> list[OracleReport]:
    """Cumulative exact release values equal snapshot sums at each endpoint."""
    rng = np.random.default_rng(seed)
    spec = LinearQuerySpec("identity", 0.0, 100.0)
    logs = 100
    worst = 0.0
    for _ in range(logs):
        log = _random_changelog(rng, entries=int(rng.integers(3, 15)), horizon=30)
        schedule = ReleaseSchedule.uniform(5, int(rng.integers(2, 7)), 6)
        noise = NoiseSpec(1.0, sensitivity(spec), seed=int(rng.integers(0, 2**32)))
        result = run_dcr(log, schedule, spec, noise)
        running = 0.0
        for record in result.records:
            running += record.exact
            worst = max(worst, abs(running - oracles.snapshot_oracle(log, record.window.end, spec)))
    return [
        _report("dcr-cumulative-vs-snapshot", f"{logs} random changelogs",
                "<= 1e-9", f"{worst:.2e}", worst <= 1e-9)
    ]


def check_aggregate_exactness(seed: int) -> list[OracleReport]:
    """Aggregate exact parts equal the direct change over the raw range."""
    rng = np.random.default_rng(seed)
    spec = LinearQuerySpec("identity", 0.0, 100.0)
    worst = 0.0
    for _ in range(30):
        log = _random_changelog(rng, entries=8, horizon=32)
        params = HdcrParams(height=5, branching=2, start=0, span=int(rng.integers(20, 33)), interval=1)
        noise = NoiseSpec(1.0, sensitivity(spec), seed=int(rng.integers(0, 2**32)))
        tree = build_hdcr(log, params, spec, noise)
        grid = params.grid_size()
        mutations = log.mutations
        lows, highs = [], []
        for _ in range(10):
            lows.append(int(rng.integers(0, grid)))
            highs.append(int(rng.integers(lows[-1] + 1, grid + 1)))
        for low, high, exact in zip(lows, highs, aggregate(tree, lows, highs).exact):
            # the range is selected here, not by the window slices the tree used
            direct = linear_query_change([m for m in mutations if low < m.time <= high], spec)
            worst = max(worst, abs(exact - direct))
    return [
        _report("aggregate-exact-part", "30 random trees x 10 ranges",
                "<= 1e-9", f"{worst:.2e}", worst <= 1e-9)
    ]


def check_estimator_unbiasedness(trials: int, seed: int) -> list[OracleReport]:
    """Monte Carlo mean of the histogram-change estimator hits the truth.

    Each trial draws and estimates as the randomized-response releases
    do (``_draw_responses``, ``_change_values``).
    """
    space = ResponseSpace(("a", "b"))
    mspace = AnswerMutationSpace(space)
    p, q = _invertible_rule_entries(mspace.size, 1.0)
    true_cells = np.array([mspace.index("a", "b")] * 5 + [mspace.index(None, None)] * 15)

    def sampler(rng: np.random.Generator) -> np.ndarray:
        responses = _draw_responses(rng, true_cells, mspace.size, p, q)
        counts = np.bincount(responses, minlength=mspace.size)
        return _change_values(counts.reshape(len(mspace.alphabet), -1), p - q)

    mc = oracles.monte_carlo("mean", sampler, trials, seed)
    truth = np.array([-5.0, 5.0])
    ok = bool(np.all(np.abs(mc.estimate - truth) <= 3 * np.maximum(mc.stderr, 1e-12)))
    return [
        _report("estimator-unbiasedness", f"{trials} trials, 20 entries",
                f"{truth.tolist()} within 3 stderr",
                np.array2string(np.asarray(mc.estimate), precision=3), ok)
    ]


def format_reports(reports: list[OracleReport]) -> str:
    """Fixed-width table, one oracle per line."""
    lines = []
    name_w = max(len(r.name) for r in reports)
    inst_w = max(len(r.instance) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name:<{name_w}}  {r.instance:<{inst_w}}  "
            f"expected {r.expected}; got {r.actual}"
        )
    return "\n".join(lines)
