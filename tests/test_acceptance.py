"""Release acceptance suite: every criterion at its contracted tolerance.

Each test prints one ``[criterion N] ... PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so the suite doubles as a gate and a
report. Timing limits are part of the criteria and are asserted too.
"""

import math
import time

import numpy as np

from dpcr.accounting import (
    HdcrParams,
    PrivacyLoss,
    ReleaseSchedule,
    SwcrParams,
    compose_fold,
    dcr_folds,
    hdcr_folds,
    local_folds,
    swcr_folds,
)
from dpcr.changelog import AtMostK, Changelog, TimeBounded, insert, modify
from dpcr.engines import (
    aggregate,
    build_hdcr,
    compare_hdcr_swcr,
    derive_swcr_from_hdcr,
    run_dcr,
    run_swcr,
)
from dpcr.mechanisms import LinearQuerySpec, NoiseSpec, sensitivity
from dpcr.oracles import snapshot_oracle
from dpcr.randomized_response import (
    AnswerMutationSpace,
    ResponseSpace,
    answer_changelog,
    optimal_rule,
    rr_dcr,
    rr_hdcr,
    verify_dp,
)
from dpcr.verification import check_cover_bounds, check_dominance


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_cover_count_bound():
    started = time.perf_counter()
    reports = check_cover_bounds()
    elapsed = time.perf_counter() - started
    failed = [r for r in reports if not r.passed]
    detail = "; ".join(f"{r.name} {r.instance}: {r.actual}" for r in reports)
    _verdict(1, "cover-count bound", not failed and elapsed < 5.0, f"{detail}, {elapsed:.2f}s")


def test_criterion_2_aggregate_variance_law():
    started = time.perf_counter()
    log = Changelog.from_unsorted(
        [insert(f"e{i}", i % 8, float(10 + i)) for i in range(6)]
        + [modify("e0", 5, 10.0, 40.0), modify("e2", 7, 12.0, 3.0)]
    )
    params = HdcrParams(height=3, branching=2, start=0, span=8, interval=1)
    spec = LinearQuerySpec("identity", 0.0, 50.0)
    seeds = 10_000
    values = np.empty(seeds)
    node_count = variance = None
    for seed in range(seeds):
        tree = build_hdcr(log, params, spec, NoiseSpec(1.0, sensitivity(spec), seed))
        agg = aggregate(tree, 1, 7).records[0]
        values[seed] = agg.noisy
        node_count, variance = agg.node_count, agg.variance
    sample_var = values.var(ddof=1)
    elapsed = time.perf_counter() - started
    ok = abs(sample_var - variance) <= 0.10 * variance and elapsed < 30.0
    _verdict(
        2, "aggregate variance law",
        ok,
        f"{node_count} nodes, nominal {variance:.1f}, sampled {sample_var:.1f} "
        f"({seeds} seeds, {elapsed:.1f}s)",
    )


def test_criterion_3_privacy_bound_tightness():
    reports = check_dominance(instances=10_000, seed=424242)
    failed = [r for r in reports if not r.passed]
    detail = "; ".join(f"{r.name}={r.actual}" for r in reports)
    _verdict(3, "privacy-bound tightness", not failed, detail)


def test_criterion_4_randomized_response_dp():
    bad = []
    for size in (2, 9, 26):
        for epsilon in (0.5, 1.0, 2.0):
            rule = optimal_rule(size, epsilon)
            if not verify_dp(rule, epsilon) or verify_dp(rule, 0.99 * epsilon):
                bad.append((size, epsilon))
    _verdict(
        4, "randomized-response DP grid",
        not bad,
        "tight at eps, broken at 0.99*eps for all 9 cases" if not bad else f"failed: {bad}",
    )


def test_criterion_5_estimator_unbiasedness():
    started = time.perf_counter()
    space = ResponseSpace(("a", "b", "c"))
    mspace = AnswerMutationSpace(space)
    rule = optimal_rule(mspace.size, 1.0)
    transform = mspace.delta_matrix() @ np.linalg.inv(rule)
    scripted = [
        (mspace.index("a", "b"), 300),
        (mspace.index("b", "c"), 200),
        (mspace.index(None, "a"), 100),
        (mspace.index("c", None), 50),
        (mspace.index(None, None), 350),
    ]
    truth = np.zeros(3)
    for cell, count in scripted:
        truth += count * mspace.delta_matrix()[:, cell]
    trials = 100_000
    rng = np.random.default_rng(89231)
    histograms = np.zeros((trials, mspace.size))
    for cell, count in scripted:
        histograms += rng.multinomial(count, rule[:, cell], size=trials)
    estimates = histograms @ transform.T
    mean = estimates.mean(axis=0)
    stderr = estimates.std(axis=0, ddof=1) / math.sqrt(trials)
    elapsed = time.perf_counter() - started
    deviations = np.abs(mean - truth)
    ok = bool(np.all(deviations <= 3 * stderr)) and elapsed < 60.0
    _verdict(
        5, "estimator unbiasedness",
        ok,
        f"1000 entries, truth {truth.tolist()}, mean dev {deviations.max():.3f} "
        f"vs 3*stderr {3 * stderr.max():.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_additivity_consistency():
    rng = np.random.default_rng(777)
    spec = LinearQuerySpec("identity", 0.0, 100.0)
    noise = NoiseSpec(1.0, sensitivity(spec), seed=1)
    worst = 0.0
    for _ in range(1000):
        muts = []
        for i in range(int(rng.integers(2, 12))):
            eid = f"e{i:03d}"
            t0 = int(rng.integers(0, 25))
            times = sorted({t0, *(int(t) for t in rng.integers(t0, 30, size=rng.integers(0, 4)))})
            value = float(np.round(rng.uniform(0, 100), 3))
            muts.append(insert(eid, times[0], value))
            for t in times[1:]:
                new = float(np.round(rng.uniform(0, 100), 3))
                muts.append(modify(eid, t, value, new))
                value = new
        log = Changelog.from_unsorted(muts)
        schedule = ReleaseSchedule.uniform(int(rng.integers(2, 6)), int(rng.integers(2, 7)), 6)
        result = run_dcr(log, schedule, spec, noise)
        running = 0.0
        for record in result.records:
            running += record.exact
            worst = max(worst, abs(running - snapshot_oracle(log, record.window.end, spec)))
    _verdict(6, "additivity vs snapshot oracle", worst <= 1e-9, f"max |diff| {worst:.2e}")


def _window_variances_equal_privacy(
    swcr: SwcrParams, branching: int, epsilon: float, factor: float, seeds: int
) -> tuple[np.ndarray, np.ndarray]:
    spec = LinearQuerySpec("identity", 0.0, 1.0)
    log = Changelog(())
    direct = np.empty((seeds, swcr.count))
    derived = np.empty((seeds, swcr.count))
    for seed in range(seeds):
        d = run_swcr(log, swcr, spec, NoiseSpec(epsilon, 1.0, seed))
        direct[seed] = d.noisy
        h = derive_swcr_from_hdcr(log, swcr, branching, NoiseSpec(factor * epsilon, 1.0, seed), spec)
        derived[seed] = h.noisy
    return direct.var(axis=0, ddof=1), derived.var(axis=0, ddof=1)


def test_criterion_7_hdcr_swcr_predicate_consistency():
    started = time.perf_counter()
    seeds = 10_000
    verdicts = []

    wide = SwcrParams(window=64, period=1, first_release=64, count=2)
    cmp_wide = compare_hdcr_swcr(wide, 2, AtMostK(1))
    direct_var, derived_var = _window_variances_equal_privacy(
        wide, 2, 0.5, cmp_wide.epsilon_prime_factor, seeds
    )
    wide_ok = cmp_wide.hdcr_wins and bool(
        np.all(derived_var < 0.9 * direct_var)
    )
    verdicts.append(
        f"wide window: predicate true, var ratio {float((derived_var / direct_var).mean()):.2f}"
    )

    tumbling = SwcrParams(window=4, period=4, first_release=4, count=2)
    cmp_tum = compare_hdcr_swcr(tumbling, 2, AtMostK(1))
    direct_var_t, derived_var_t = _window_variances_equal_privacy(
        tumbling, 2, 0.5, cmp_tum.epsilon_prime_factor, seeds
    )
    tum_ok = (not cmp_tum.hdcr_wins) and bool(
        np.all(derived_var_t >= 0.8 * direct_var_t)
    )
    verdicts.append(
        f"tumbling: predicate false, var ratio {float((derived_var_t / direct_var_t).mean()):.2f}"
    )
    elapsed = time.perf_counter() - started
    ok = wide_ok and tum_ok and elapsed < 60.0
    _verdict(
        7, "variance predicate consistency", ok,
        "; ".join(verdicts) + f"; {seeds} seeds, {elapsed:.1f}s",
    )


def test_criterion_8_local_accounting_doubles_folds():
    per_query = PrivacyLoss(0.25, 2**-20)
    constraints = [AtMostK(1), AtMostK(2), AtMostK(5), TimeBounded(0), TimeBounded(2), TimeBounded(7)]
    cases = []
    for start in (0, 5):
        for interval in (1, 3, 7):
            for count in (5, 12):
                schedule = ReleaseSchedule.uniform(start, interval, count)
                cases += [("dcr", dcr_folds(schedule, c)) for c in constraints]
    for window, period in ((7, 7), (14, 7), (9, 3)):
        params = SwcrParams(window=window, period=period, first_release=window, count=6)
        cases += [("swcr", swcr_folds(params, c)) for c in constraints]
    for height in (1, 3):
        for branching in (2, 4):
            params = HdcrParams(height=height, branching=branching, start=0, span=32, interval=1)
            cases += [("hdcr", hdcr_folds(params, c)) for c in constraints]
    mismatches = 0
    for _, folds in cases:
        doubled = local_folds(folds)
        bound = compose_fold(per_query, local_folds(folds))
        if doubled != 2 * folds or bound.epsilon != 2 * folds * per_query.epsilon:
            mismatches += 1
    _verdict(
        8, "local accounting doubles folds",
        mismatches == 0 and len(cases) >= 100,
        f"{len(cases)} cases, {mismatches} mismatches (exact arithmetic)",
    )


def test_criterion_9_variance_growth_shape():
    started = time.perf_counter()
    space = ResponseSpace(("r1", "r2"))
    # 40 answers before the start: odd entries hold r1 (code 0), even ones r2
    log = answer_changelog((-1, f"e{i:03d}", 0.0 if i % 2 else 1.0) for i in range(40))
    params = HdcrParams(height=7, branching=2, start=0, span=64, interval=1)
    schedule = ReleaseSchedule.uniform(1, 1, 64)
    checkpoints = (4, 16, 64)
    seeds = 300

    hdcr_values = {t: [] for t in checkpoints}
    node_counts = {}
    dcr_values = {t: [] for t in checkpoints}
    for seed in range(seeds):
        records = rr_hdcr(log, space, params, 1.0, seed=seed)
        by_time = {r.time: r for r in records}
        for t in checkpoints:
            hdcr_values[t].append(by_time[t].estimate.values)
            node_counts[t] = by_time[t].node_count
        deltas = rr_dcr(log, space, schedule, 1.0, seed=seed)
        cumulative = np.zeros(2)
        wanted = dict.fromkeys(checkpoints)
        for record in deltas:
            cumulative = cumulative + record.estimate.values
            if record.time in wanted:
                wanted[record.time] = cumulative.copy()
        for t in checkpoints:
            dcr_values[t].append(wanted[t])

    def total_var(values: list[np.ndarray]) -> float:
        return float(np.asarray(values).var(axis=0, ddof=1).sum())

    hdcr_var = {t: total_var(hdcr_values[t]) for t in checkpoints}
    dcr_var = {t: total_var(dcr_values[t]) for t in checkpoints}
    elapsed = time.perf_counter() - started

    # aligned checkpoints are single nodes, so the aggregated variance must
    # stay flat while the disjoint cumulative sum grows linearly with t
    node_ratio = node_counts[64] / node_counts[4]
    hdcr_ratio = hdcr_var[64] / hdcr_var[4]
    dcr_ratio = dcr_var[64] / dcr_var[4]
    ok = (
        node_counts[4] == node_counts[16] == node_counts[64] == 1
        and hdcr_ratio <= 2.0 * node_ratio
        and 8.0 <= dcr_ratio <= 32.0
    )
    _verdict(
        9, "variance growth shape",
        ok,
        f"hdcr var ratio {hdcr_ratio:.2f} (node ratio {node_ratio:.0f}), "
        f"dcr cumulative ratio {dcr_ratio:.1f} vs linear 16, "
        f"{seeds} seeds, {elapsed:.1f}s",
    )
