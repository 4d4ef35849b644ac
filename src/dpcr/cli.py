"""Command-line front end: generate, run, account, compare, verify.

Configuration lives in a JSON file; any leaf can be overridden with
``--set dotted.path=value``. The seed is mandatory (no wall-clock
default) so every artifact is reproducible byte for byte. A run refuses
to release anything until the input log satisfies the constraint
declared for accounting, because the privacy bound printed in the
header is meaningless otherwise.

Exit codes: 0 success, 2 configuration error, 3 constraint violation,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import IO, Mapping, Sequence

import numpy as np

from .accounting import (
    Advanced,
    CompositionStrategy,
    HdcrParams,
    Naive,
    PrivacyLoss,
    ReleaseSchedule,
    SwcrParams,
    compose_fold,
    dcr_folds,
    hdcr_folds,
    hdcr_time_bounded_nominal_folds,
    local_folds,
    swcr_folds,
)
from .changelog import (
    AtMostK,
    Changelog,
    Hybrid,
    MutationConstraint,
    TimeBounded,
    dump_changelog,
    load_changelog,
    to_columns,
    validate_constraint,
)
from .engines import (
    ReleaseResult,
    check_prefix_cover,
    compare_hdcr_swcr,
    derive_swcr_from_hdcr,
    result_to_csv,
    result_to_jsonl,
    run_dcr,
    run_hdcr,
    run_swcr,
    swcr_equivalent_hdcr_params,
)
from .mechanisms import InvalidNoiseError, LinearQuerySpec, NoiseSpec, named_stream, sensitivity
from .randomized_response import (
    InvalidEpsilonError,
    ResponseSpace,
    RrRecord,
    SingularMatrixError,
    dump_answer_log,
    load_answer_log,
    rr_dcr,
    rr_hdcr,
)
from .verification import format_reports, run_all

RELEASE_KINDS = ("dcr", "swcr", "hdcr", "rr-dcr", "rr-hdcr")


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the field path."""


class ConstraintViolationError(RuntimeError):
    """The input log does not satisfy its declared mutation constraint."""


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConstraintViolationError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcr",
        description="Differentially-private continual releases over changelogs.",
    )
    sub = parser.add_subparsers(required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic changelog or answer log")
    _config_args(p_gen)
    p_gen.add_argument("--out", help="output path (overrides output.path)")
    p_gen.set_defaults(handler=cmd_generate)

    p_run = sub.add_parser("run", help="execute a release against a log file")
    _config_args(p_run)
    p_run.add_argument("--changelog", required=True, help="JSONL changelog or answer log")
    p_run.add_argument("--out", help="output path (overrides output.path)")
    p_run.set_defaults(handler=cmd_run)

    p_acc = sub.add_parser("account", help="print privacy bounds for the configured release")
    _config_args(p_acc)
    p_acc.set_defaults(handler=cmd_account)

    p_cmp = sub.add_parser("compare", help="hierarchy-vs-sliding-window variance predicate")
    p_cmp.add_argument("--window", type=int, required=True)
    p_cmp.add_argument("--period", type=int, required=True)
    p_cmp.add_argument("--branching", default="2,4,16", help="comma-separated factors")
    p_cmp.add_argument(
        "--constraint", required=True,
        help="at_most_k:<k> or time_bounded:<bound>",
    )
    p_cmp.set_defaults(handler=cmd_compare)

    p_ver = sub.add_parser("verify", help="run the brute-force oracle suite")
    p_ver.add_argument("--trials", type=int, default=10_000)
    p_ver.add_argument("--seed", type=int, default=20_240_807)
    p_ver.add_argument("--inject-fault", help=argparse.SUPPRESS)
    p_ver.set_defaults(handler=cmd_verify)
    return parser


def _config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--seed", type=int, help="overrides the config seed")
    parser.add_argument(
        "--set", action="append", default=[], metavar="PATH=VALUE",
        help="override one config leaf, e.g. --set release.epsilon=0.5",
    )


# -- configuration plumbing -------------------------------------------------

def load_config(path: str, overrides: Sequence[str], seed: int | None) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path} nests too deeply to parse") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs PATH=VALUE, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except RecursionError as exc:
            raise ConfigError(f"--set {dotted}: the value nests too deeply to parse") from exc
        node = cfg
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"{dotted}: {part} is not an object")
        node[parts[-1]] = value
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def _get(cfg: Mapping, path: str, kind: type, default=None):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            if default is None:
                raise ConfigError(f"missing field {path!r}")
            return default
        node = node[part]
    if kind is float and isinstance(node, int) and not isinstance(node, bool):
        node = float(node)
    if kind is int and isinstance(node, bool):
        raise ConfigError(f"field {path!r} must be {kind.__name__}, got a boolean")
    if not isinstance(node, kind):
        raise ConfigError(f"field {path!r} must be {kind.__name__}, got {type(node).__name__}")
    return node


def _seed(cfg: Mapping) -> int:
    if "seed" not in cfg:
        raise ConfigError("a seed is required (config 'seed' or --seed)")
    return _get(cfg, "seed", int)


def constraint_from_config(obj, path: str) -> MutationConstraint:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise ConfigError(f"{path} must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "at_most_k":
            return AtMostK(int(obj["k"]))
        if kind == "time_bounded":
            return TimeBounded(int(obj["bound"]))
        if kind == "hybrid":
            branches = obj.get("branches")
            if not isinstance(branches, list) or not branches:
                raise ConfigError(f"{path}.branches must be a non-empty list")
            return Hybrid(tuple(
                constraint_from_config(b, f"{path}.branches[{i}]")
                for i, b in enumerate(branches)
            ))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind must be at_most_k, time_bounded or hybrid, got {kind!r}")


def _constraint_json(constraint: MutationConstraint) -> dict:
    if isinstance(constraint, AtMostK):
        return {"kind": "at_most_k", "k": constraint.k}
    if isinstance(constraint, TimeBounded):
        return {"kind": "time_bounded", "bound": constraint.bound}
    return {"kind": "hybrid", "branches": [_constraint_json(b) for b in constraint.branches]}


def query_from_config(cfg: Mapping) -> LinearQuerySpec:
    qcfg = _get(cfg, "release.query", dict, default={"fn": "identity", "bounds": [0.0, 1.0]})
    fn = qcfg.get("fn", "identity")
    bounds = qcfg.get("bounds", [0.0, 1.0])
    if not (isinstance(bounds, list) and len(bounds) == 2):
        raise ConfigError("release.query.bounds must be [lower, upper]")
    if fn == "indicator" and "threshold" not in qcfg:
        raise ConfigError("release.query.threshold is required for indicator queries")
    predicate = None
    table = qcfg.get("table")
    try:
        if fn == "indicator":
            threshold = float(qcfg["threshold"])
            predicate = lambda v: v > threshold  # noqa: E731
        if table is not None:
            table = {float(k): float(v) for k, v in table.items()}
        return LinearQuerySpec(fn, float(bounds[0]), float(bounds[1]), predicate, table)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"release.query: {exc}") from exc


def strategy_from_config(cfg: Mapping) -> CompositionStrategy:
    name = _get(cfg, "release.composition", str, default="naive")
    if name == "naive":
        return Naive()
    if name == "advanced":
        slack = _get(cfg, "release.delta_slack", float, default=1e-6)
        try:
            return Advanced(slack)
        except ValueError as exc:
            raise ConfigError(f"release.delta_slack: {exc}") from exc
    raise ConfigError(f"release.composition must be naive or advanced, got {name!r}")


# -- accounting reports ------------------------------------------------------

def release_accounting(cfg: Mapping) -> tuple[MutationConstraint, dict]:
    """The declared constraint plus folds and composed losses of the release.

    The returned mapping is embedded verbatim in run headers, so the
    CLI can never drift from the library's accountant.
    """
    kind = _get(cfg, "release.kind", str)
    if kind not in RELEASE_KINDS:
        raise ConfigError(f"release.kind must be one of {RELEASE_KINDS}, got {kind!r}")
    constraint = constraint_from_config(_get(cfg, "release.constraint", dict), "release.constraint")
    epsilon = _get(cfg, "release.epsilon", float)
    delta = _get(cfg, "release.delta", float, default=0.0)
    try:
        per_query = PrivacyLoss(epsilon, delta)
    except ValueError as exc:
        raise ConfigError(f"release: {exc}") from exc
    strategy = strategy_from_config(cfg)
    # randomized response is a local guarantee; the Laplace releases are global
    local = kind.startswith("rr-")

    if kind in ("dcr", "rr-dcr"):
        global_folds = dcr_folds(_schedule_from_config(cfg), constraint)
    elif kind != "swcr":
        global_folds = hdcr_folds(_hdcr_from_config(cfg), constraint)
    elif _get(cfg, "release.from_hdcr", bool, default=False):
        # the derived release's loss is the underlying hierarchy's
        swcr, branching = _swcr_from_config(cfg), _get(cfg, "release.branching", int, default=2)
        try:
            params = swcr_equivalent_hdcr_params(swcr, branching)
        except ValueError as exc:  # a branching below 2
            raise ConfigError(f"release: {exc}") from exc
        global_folds = hdcr_folds(params, constraint)
    else:
        global_folds = swcr_folds(_swcr_from_config(cfg), constraint)
    local_fold_count = local_folds(global_folds)
    folds = local_fold_count if local else global_folds
    try:
        loss = compose_fold(per_query, folds, strategy)
        local_loss = compose_fold(per_query, local_fold_count, strategy)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"release: cannot compose {folds} folds: {exc}") from exc
    report = {
        "kind": kind,
        "constraint": _constraint_json(constraint),
        "per_query": {"epsilon": per_query.epsilon, "delta": per_query.delta},
        "scope": "local" if local else "global",
        "folds": folds,
        "epsilon": loss.epsilon,
        "delta": loss.delta,
        "local_folds": local_fold_count,
        "local_epsilon": local_loss.epsilon,
        "local_delta": local_loss.delta,
    }
    if kind in ("hdcr", "rr-hdcr") and isinstance(constraint, TimeBounded):
        report["nominal_layer_sum_folds"] = hdcr_time_bounded_nominal_folds(
            _hdcr_from_config(cfg), constraint.bound
        )
    return constraint, report


def _schedule_from_config(cfg: Mapping) -> ReleaseSchedule:
    scfg = _get(cfg, "release.schedule", dict)
    try:
        if "ticks" in scfg:
            return ReleaseSchedule(tuple(int(t) for t in scfg["ticks"]))
        return ReleaseSchedule.uniform(
            int(scfg["start"]), int(scfg["interval"]), int(scfg["count"])
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"release.schedule: {exc}") from exc


def _swcr_from_config(cfg: Mapping) -> SwcrParams:
    try:
        return SwcrParams(
            window=_get(cfg, "release.window", int),
            period=_get(cfg, "release.period", int),
            first_release=_get(cfg, "release.first_release", int),
            count=_get(cfg, "release.count", int),
        )
    except ValueError as exc:
        raise ConfigError(f"release: {exc}") from exc


def _hdcr_from_config(cfg: Mapping) -> HdcrParams:
    """The hierarchy of a prefix release (``hdcr``, ``rr-hdcr``).

    Refused here, on the path ``account`` and ``run`` share, when it is
    too flat for its grid, so both commands agree that no such release exists.
    """
    try:
        params = HdcrParams(
            height=_get(cfg, "release.height", int),
            branching=_get(cfg, "release.branching", int),
            start=_get(cfg, "release.start", int),
            span=_get(cfg, "release.span", int),
            interval=_get(cfg, "release.interval", int),
        )
        check_prefix_cover(params)
    except ValueError as exc:  # RangeTooWideError is a ValueError
        raise ConfigError(f"release: {exc}") from exc
    return params


def _space_from_config(cfg: Mapping, path: str) -> ResponseSpace:
    labels = _get(cfg, path, list)
    try:
        return ResponseSpace(tuple(str(l) for l in labels))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# -- generate ----------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    seed = _seed(cfg)
    out = args.out or _get(cfg, "output.path", str)
    labels = _get(cfg, "generator.labels", list, default=[])
    space = _space_from_config(cfg, "generator.labels") if labels else None
    log = generate_log(cfg, seed, space)
    try:
        if space is None:
            dump_changelog(log, out)
        else:
            dump_answer_log(log, space, out)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc
    print(f"wrote {len(log)} {'answer records' if space else 'mutations'} to {out}")
    return 0


def _generator_params(cfg: Mapping) -> tuple[int, int, MutationConstraint, float]:
    entries = _get(cfg, "generator.entries", int)
    horizon = _get(cfg, "generator.horizon", int)
    if entries < 1 or horizon < 1:
        raise ConfigError("generator.entries and generator.horizon must be >= 1")
    constraint = constraint_from_config(
        _get(cfg, "generator.constraint", dict), "generator.constraint"
    )
    rate = _get(cfg, "generator.mutation_rate", float, default=0.5)
    if not 0 <= rate <= 1:
        raise ConfigError(f"generator.mutation_rate must be in [0, 1], got {rate}")
    return entries, horizon, constraint, rate


def _pick_branch(constraint: MutationConstraint, rng: np.random.Generator):
    if isinstance(constraint, Hybrid):
        choice = constraint.branches[int(rng.integers(0, len(constraint.branches)))]
        return _pick_branch(choice, rng)
    return constraint


def _mutation_times(
    rng: np.random.Generator, t0: int, horizon: int, branch, rate: float
) -> list[int]:
    if isinstance(branch, AtMostK):
        budget, last = branch.k - 1, horizon
    else:
        budget, last = 4, min(horizon, t0 + branch.bound)
    times = [t0]
    if budget > 0 and last > t0:
        extra = int(rng.binomial(budget, rate))
        if extra:
            times += sorted(
                int(t) for t in np.unique(rng.integers(t0 + 1, last + 1, size=extra))
            )
    return times


def generate_log(cfg: Mapping, seed: int, space: ResponseSpace | None) -> Changelog:
    """Synthesize a log under the declared constraint, sorted by ``(time, entry)``.

    With a response space the values are answer-log label codes, each
    answer differing from the one before; without one they are drawn
    from ``generator.value_range`` and rounded to 6 decimals. Only the
    stream name and the value draws differ between the two kinds. Every
    entry is checked against the constraint.
    """
    entries, horizon, constraint, rate = _generator_params(cfg)
    if space is None:
        value_range = _get(cfg, "generator.value_range", list, default=[0.0, 100.0])
        try:
            low, high = (float(v) for v in value_range)
        except (TypeError, ValueError, OverflowError):
            low = high = float("nan")
        if not (low <= high and math.isfinite(high - low)):
            raise ConfigError(f"generator.value_range must be finite [low, high], got {value_range}")
        stream = "generate"

        def draw(rng: np.random.Generator, value: float | None) -> float:
            return float(np.round(rng.uniform(low, high), 6))
    else:
        stream = "generate-answers"

        def draw(rng: np.random.Generator, value: float | None) -> float:
            if value is None:
                return float(rng.integers(0, space.size))
            other = int(rng.integers(0, space.size - 1))  # an index among the other labels
            return float(other + (other >= value))

    rows: list[tuple[int, str, float | None, float | None]] = []
    for i in range(entries):
        rng = named_stream(seed, stream, i)
        eid = f"e{i:06d}"
        times = _mutation_times(
            rng, int(rng.integers(0, horizon)), horizon, _pick_branch(constraint, rng), rate
        )
        value = None
        for t in times:
            new_value = draw(rng, value)
            rows.append((t, eid, value, new_value))
            value = new_value
        if len(times) > 1 and rng.random() < 0.25 * rate:
            t, _, prev, _ = rows.pop()
            rows.append((t, eid, prev, None))
    rows.sort(key=lambda row: row[:2])
    log = Changelog.from_columns(*to_columns(rows))
    if not validate_constraint(log, constraint).all():
        raise AssertionError("generator produced a constraint-violating entry")
    return log


# -- run ----------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    seed = _seed(cfg)
    constraint, accounting = release_accounting(cfg)
    kind = accounting["kind"]
    out = args.out or _get(cfg, "output.path", str)
    fmt = _get(cfg, "output.format", str, default="csv")
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"output.format must be csv or jsonl, got {fmt!r}")
    include_exact = _get(cfg, "output.include_exact", bool, default=False)

    header = {
        "seed": seed,
        "input": args.changelog,
        "privacy": accounting,
    }
    rr = kind.startswith("rr-")
    if rr:
        space = _space_from_config(cfg, "release.labels")
        log = _load_input(lambda path: load_answer_log(path, space), args.changelog)
    else:
        log = _load_input(load_changelog, args.changelog)
    bad = np.flatnonzero(~validate_constraint(log, constraint))
    if len(bad):
        raise ConstraintViolationError(
            f"{len(bad)} entries violate the declared constraint "
            f"(first: {[log.ids[i] for i in bad[:3]]})"
        )
    try:
        release = _run_rr(cfg, kind, log, space, seed) if rr else _run_release(cfg, kind, log, seed)
    except (InvalidEpsilonError, InvalidNoiseError, SingularMatrixError) as exc:
        # the engines check these release parameters only once they run
        raise ConfigError(f"release: {exc}") from exc
    try:
        with open(out, "w", encoding="utf-8") as fh:
            if rr:
                _write_rr(release, space, fh, fmt, header)
            else:
                _write_release(release, fh, fmt, header, include_exact)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc
    print(f"wrote release to {out} (accounted {accounting['scope']} loss: "
          f"epsilon={accounting['epsilon']:.6g}, delta={accounting['delta']:.3g})")
    return 0


def _load_input(loader, path: str):
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--changelog {path}: {exc}") from exc


def _run_release(cfg: Mapping, kind: str, log: Changelog, seed: int) -> ReleaseResult:
    spec = query_from_config(cfg)
    noise = NoiseSpec(_get(cfg, "release.epsilon", float), sensitivity(spec), seed)
    if kind == "dcr":
        return run_dcr(log, _schedule_from_config(cfg), spec, noise)
    if kind == "swcr":
        if _get(cfg, "release.from_hdcr", bool, default=False):
            return derive_swcr_from_hdcr(
                log, _swcr_from_config(cfg), _get(cfg, "release.branching", int, default=2),
                noise, spec,
            )
        return run_swcr(log, _swcr_from_config(cfg), spec, noise)
    return run_hdcr(log, _hdcr_from_config(cfg), spec, noise)


def _run_rr(
    cfg: Mapping, kind: str, log: Changelog, space: ResponseSpace, seed: int
) -> list[RrRecord]:
    epsilon = _get(cfg, "release.epsilon", float)
    if kind == "rr-dcr":
        return rr_dcr(log, space, _schedule_from_config(cfg), epsilon, seed)
    return rr_hdcr(log, space, _hdcr_from_config(cfg), epsilon, seed)


def _write_header(fh: IO[str], fmt: str, header: dict) -> None:
    if fmt == "jsonl":
        fh.write(json.dumps({"type": "header", **header}) + "\n")
    else:
        fh.write("# " + json.dumps(header) + "\n")


def _write_release(
    result: ReleaseResult, fh: IO[str], fmt: str, header: dict, include_exact: bool
) -> None:
    _write_header(fh, fmt, header)
    if fmt == "jsonl":
        result_to_jsonl(result, fh, include_exact)
    else:
        result_to_csv(result, fh, include_exact)


def _write_rr(
    records: list[RrRecord], space: ResponseSpace, fh: IO[str], fmt: str, header: dict
) -> None:
    """Cumulative histogram estimates, one row per release time."""
    cumulative = np.zeros(space.size)
    cum_var = np.zeros(space.size)
    rows = []
    for rec in records:
        if rec.node_count is None:
            cumulative = cumulative + rec.estimate.values
            cum_var = cum_var + np.diag(rec.estimate.covariance)
            rows.append((rec.time, cumulative.copy(), cum_var.copy(), None))
        else:
            rows.append(
                (rec.time, rec.estimate.values, np.diag(rec.estimate.covariance), rec.node_count)
            )
    _write_header(fh, fmt, header)
    if fmt == "jsonl":
        for t, values, variances, node_count in rows:
            rec = {"t": t, "estimate": values.tolist(), "variance": variances.tolist()}
            if node_count is not None:
                rec["node_count"] = node_count
            fh.write(json.dumps(rec))
            fh.write("\n")
    else:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"{kind}_{l}" for kind in ("vhat", "var") for l in space.labels])
        for t, values, variances, _ in rows:
            writer.writerow([t] + [repr(float(v)) for v in (*values, *variances)])


# -- account / compare / verify ------------------------------------------------

def cmd_account(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    constraint, report = release_accounting(cfg)
    note = " (per-branch sup)" if isinstance(constraint, Hybrid) else ""
    print(f"release kind:      {report['kind']}")
    print(f"constraint:        {json.dumps(report['constraint'])}")
    print(f"per-query loss:    (epsilon={report['per_query']['epsilon']:.6g}, "
          f"delta={report['per_query']['delta']:.3g})")
    print(f"scope:             {report['scope']}")
    print(f"composed folds:    {report['folds']}{note}")
    print(f"accounted loss:    (epsilon={report['epsilon']:.6g}, delta={report['delta']:.3g})")
    if report["scope"] == "global":
        print(f"local folds:       {report['local_folds']}{note}")
        print(f"local bound:       (epsilon={report['local_epsilon']:.6g}, "
              f"delta={report['local_delta']:.3g})")
    if "nominal_layer_sum_folds" in report:
        print(f"nominal layer sum: {report['nominal_layer_sum_folds']:.6g} "
              "(closed form; the exact per-layer count above is authoritative)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        name, _, value = args.constraint.partition(":")
        if name == "at_most_k":
            constraint: AtMostK | TimeBounded = AtMostK(int(value or 1))
        elif name == "time_bounded":
            constraint = TimeBounded(int(value))
        else:
            raise ConfigError(
                f"--constraint must be at_most_k:<k> or time_bounded:<bound>, got {args.constraint!r}"
            )
        factors = [int(c) for c in args.branching.split(",") if c]
        swcr = SwcrParams(window=args.window, period=args.period, first_release=args.window, count=2)
        rows = [(c, compare_hdcr_swcr(swcr, c, constraint)) for c in factors]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print("branching  height  lhs           rhs           hdcr_wins  eps_prime_factor")
    for c, cmp in rows:
        print(
            f"{c:<9d}  {cmp.height:<6d}  {cmp.lhs:<12.6g}  {cmp.rhs:<12.6g}  "
            f"{'yes' if cmp.hdcr_wins else 'no ':<9}  {cmp.epsilon_prime_factor:.6g}"
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 100:
        raise ConfigError(f"--trials must be >= 100, got {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    reports = run_all(trials=args.trials, seed=args.seed, fault=args.inject_fault)
    print(format_reports(reports))
    failed = sum(1 for r in reports if not r.passed)
    print(f"{len(reports) - failed}/{len(reports)} oracle checks passed")
    return 4 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
