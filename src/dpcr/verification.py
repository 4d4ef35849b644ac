"""Oracle suite pairing every engine claim with its brute-force check.

This is the harness behind the ``verify`` CLI subcommand: each check
runs an engine path and its independent oracle side by side and emits
one report per claim. Integer claims are exact; Monte Carlo claims pass
within three standard errors (means) or ten percent (variances), so a
larger ``trials`` tightens them automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .changelog import Changelog, Mutation
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
    """Exhaustive cover-size bounds plus the reference 18-node cover."""
    bump = 1 if fault == "cover-off-by-one" else 0
    reports = []
    for branching, height, top in ((2, 6, 64), (10, 2, 100)):
        violations = 0
        broken = 0
        matches = 0
        ranges = 0
        for low in range(top):
            for high in range(low + 1, min(top, low + branching**height) + 1):
                ranges += 1
                cover = cover_range(low, high, branching, height)
                count = len(cover) + bump
                if count > _cover_bound(branching, high - low):
                    violations += 1
                segments = sorted(
                    (i * branching**lv, (i + 1) * branching**lv) for lv, i in cover
                )
                ok = segments[0][0] == low and segments[-1][1] == high and all(
                    a[1] == b[0] for a, b in zip(segments, segments[1:])
                )
                if not ok:
                    broken += 1
                if count == oracles.min_cover_oracle(low, high, branching, height):
                    matches += 1
        reports.append(
            _report(
                "cover-count-bound",
                f"c={branching} h={height} all (l,r] up to {top}",
                "0 violations",
                f"{violations} violations over {ranges} ranges",
                violations == 0,
            )
        )
        reports.append(
            _report(
                "cover-partition",
                f"c={branching} h={height}",
                "disjoint and exact everywhere",
                f"{broken} broken covers",
                broken == 0,
            )
        )
        reports.append(
            _report(
                "cover-near-minimal",
                f"c={branching} h={height}",
                ">= 90% equal to DP minimum",
                f"{matches / ranges:.1%}",
                matches / ranges >= 0.9,
            )
        )
    count99 = len(cover_range(0, 99, 10, 2)) + bump
    reports.append(
        _report("cover-reference-case", "(0, 99] c=10 h=2", 18, count99, count99 == 18)
    )
    return reports


def _cover_bound(branching: int, width: int) -> int:
    if width == 1:
        return 1
    return 2 * (branching - 1) * math.ceil(math.log(width) / math.log(branching))


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


def _packed_time_bounded_times(ticks: tuple[int, ...], interval: int, bound: int) -> list[int]:
    # mutations at consecutive endpoints, last one `bound` after the first
    steps = -(-bound // interval)
    times = [ticks[0] + interval * j for j in range(steps)]
    times.append(ticks[0] + bound)
    return sorted(set(times))


def _entry_chain(times: list[int]) -> list[Mutation]:
    chain = [Mutation(times[0], "probe", None, 1.0)]
    chain += [Mutation(t, "probe", 1.0, 1.0) for t in times[1:]]
    return chain


def _random_entry(
    rng: np.random.Generator, insertion: int, reach: int, max_bound: int
) -> tuple[list[Mutation], AtMostK | TimeBounded]:
    """A probe entry from ``insertion`` meeting its random constraint: at most ``k``
    mutations within ``reach`` ticks, or a bound up to ``max_bound`` reached exactly."""
    if rng.random() < 0.5:
        k = int(rng.integers(1, 6))
        offsets = np.unique(rng.integers(0, reach + 1, size=k))
        constraint: AtMostK | TimeBounded = AtMostK(k)
    else:
        b = int(rng.integers(0, max_bound + 1))
        n_muts = int(rng.integers(1, 6))
        offsets = np.unique(np.append(rng.integers(0, b + 1, size=n_muts), [0, b]))
        constraint = TimeBounded(b)
    return _entry_chain([insertion + int(o) for o in offsets]), constraint


def check_dominance(instances: int, seed: int) -> list[OracleReport]:
    """Affected-query counts never exceed the accounted fold counts.

    Random schedules are uniform or not, may have a single endpoint, and
    draw time bounds up to past the schedule span; packed adversarial
    entries must achieve equality for uniform disjoint schedules. About
    a tenth as many random hierarchies follow, each counted over the
    release's own node windows (``HdcrParams.node_filter``).
    """
    rng = np.random.default_rng(seed)
    reports = []

    interval, bound = 3, 7
    ticks = ReleaseSchedule.uniform(3, interval, 12)
    packed = _entry_chain(_packed_time_bounded_times(ticks.ticks, interval, bound))
    folds = dcr_folds(ticks, TimeBounded(bound))
    hits = oracles.affected_count_oracle(ticks.filters(), packed)
    reports.append(
        _report(
            "dcr-time-bounded-equality",
            f"uniform interval={interval} bound={bound}, packed entry",
            folds,
            hits,
            hits == folds,
        )
    )

    k = 4
    times = [ticks.ticks[0] + interval * j for j in range(k)]
    packed_k = _entry_chain(times)
    hits_k = oracles.affected_count_oracle(ticks.filters(), packed_k)
    reports.append(
        _report(
            "dcr-at-most-k-equality",
            f"uniform schedule, k={k} mutations in distinct intervals",
            dcr_folds(ticks, AtMostK(k)),
            hits_k,
            hits_k == dcr_folds(ticks, AtMostK(k)),
        )
    )

    dcr_bad = swcr_bad = 0
    for _ in range(instances):
        interval = int(rng.integers(1, 8))
        count = int(rng.integers(1, 20))
        start = int(rng.integers(-5, 6))
        uniform = rng.random() < 0.5
        gaps = [interval] * (count - 1) if uniform else rng.integers(1, 2 * interval + 1, count - 1)
        schedule = ReleaseSchedule(tuple((start + np.cumsum([0, *gaps])).tolist()))
        span = schedule.ticks[-1] - schedule.ticks[0]
        insertion = int(rng.integers(start - 4, schedule.ticks[-1] + 2))
        if rng.random() < 0.5:
            insertion = schedule.ticks[int(rng.integers(0, count))]
        chain, constraint = _random_entry(rng, insertion, 4 * interval, span + 4 * interval)
        filters = schedule.filters()
        hits = oracles.affected_count_oracle(filters, chain)
        dcr_bad += hits > dcr_folds(schedule, constraint)
        window = interval * int(rng.integers(1, 5))
        swcr = SwcrParams(window=window, period=interval, first_release=start, count=count)
        swcr_bad += oracles.affected_count_oracle(swcr.filters(), chain) > swcr_folds(swcr, constraint)
    instance = f"{instances} random instances"
    for name, bad in (("dcr-dominance", dcr_bad), ("swcr-dominance", swcr_bad)):
        reports.append(_report(name, instance, "0 exceedances", f"{bad} exceedances", bad == 0))

    hierarchies = max(instances // 10, 1)
    hdcr_bad = 0
    for _ in range(hierarchies):
        params = HdcrParams(
            height=int(rng.integers(1, 5)), branching=int(rng.integers(2, 4)),
            start=int(rng.integers(-5, 6)), span=int(rng.integers(1, 41)),
            interval=int(rng.integers(1, 4)),
        )
        insertion = int(rng.integers(params.start - 4, params.start + params.span + 2))
        chain, constraint = _random_entry(rng, insertion, params.span, params.span + 4 * params.interval)
        nodes = [
            params.node_filter(layer, index)
            for layer in range(params.height) for index in range(params.layer_size(layer))
        ]
        hdcr_bad += oracles.affected_count_oracle(nodes, chain) > hdcr_folds(params, constraint)
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
        for _ in range(10):
            low = int(rng.integers(0, grid))
            high = int(rng.integers(low + 1, grid + 1))
            agg = aggregate(tree, low, high)
            # the range is selected here, not by the window slices the tree used
            direct = linear_query_change([m for m in mutations if low < m.time <= high], spec)
            worst = max(worst, abs(agg.exact - direct))
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
