"""Command-line front end: generate, run, account, compare, verify.

Configuration lives in a JSON file; any leaf can be overridden with
``--set dotted.path=value``. The seed is mandatory (no wall-clock
default) so every artifact is reproducible byte for byte. ``account``
and ``run`` read and check all of ``release.*`` in one place, query,
labels and noise included: ``account`` refuses what ``run`` refuses,
and ``run`` refuses a bad release before it opens the log. A run then
refuses to release anything until the input log satisfies the
constraint declared for accounting, because the privacy bound printed
in the header is meaningless otherwise.

Exit codes: 0 success; 2 a refused config value, ``compare`` argument or
input file, with a ``config error:`` message naming what was refused, or
an allocation failure (the command needs more memory than the process
may use); 3 a constraint violation; 4 a failed verification. Every
refusal of a library value passes through one helper, ``_refused``, and
so does a release with more windows or grid units than an int64 can index.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import IO, Iterator, Mapping, Sequence

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
    INT64_MAX,
    AtMostK,
    Changelog,
    Hybrid,
    MutationConstraint,
    TimeBounded,
    dump_changelog,
    float_texts,
    load_changelog,
    sorted_columns,
    validate_constraint,
    write_rows,
)
from .engines import (
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
from .mechanisms import LinearQuerySpec, NoiseSpec, named_stream, sensitivity
from .randomized_response import (
    AnswerMutationSpace,
    ResponseSpace,
    RrRecord,
    _invertible_rule_entries,
    dump_answer_log,
    load_answer_log,
    rr_dcr,
    rr_hdcr,
)

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
    except MemoryError:
        command = args.handler.__name__.removeprefix("cmd_")
        print(f"config error: {command} needs more memory than this process may use",
              file=sys.stderr)
        return 2


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
    return _typed(node, path, kind)


def _typed(value, path: str, kind: type):
    """``value`` as a ``kind``, an int accepted as a float; ConfigError names ``path``."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"field {path!r} is too large for a float") from None
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"field {path!r} must be {kind.__name__}, got a boolean")
    if not isinstance(value, kind):
        raise ConfigError(f"field {path!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


@contextlib.contextmanager
def _refused(prefix: str) -> Iterator[None]:
    """Re-raise a value the library refuses inside the block as a ConfigError.

    The message is ``f"{prefix}: {exc}"``, where the prefix names what
    the value came from. A ConfigError passes through as raised.
    """
    try:
        yield
    except ConfigError:
        raise
    except (AttributeError, KeyError, OSError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


def _seed(cfg: Mapping) -> int:
    if "seed" not in cfg:
        raise ConfigError("a seed is required (config 'seed' or --seed)")
    seed = _get(cfg, "seed", int)
    # named_stream keys on the seed modulo 2**64: any other seed would alias one of these
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def constraint_from_config(obj, path: str) -> MutationConstraint:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise ConfigError(f"{path} must be an object with a 'kind'")
    kind = obj["kind"]
    with _refused(path):
        if kind == "at_most_k":
            return AtMostK(_typed(obj["k"], f"{path}.k", int))
        if kind == "time_bounded":
            return TimeBounded(_typed(obj["bound"], f"{path}.bound", int))
        if kind == "hybrid":
            branches = obj.get("branches")
            if not isinstance(branches, list) or not branches:
                raise ConfigError(f"{path}.branches must be a non-empty list")
            return Hybrid(tuple(
                constraint_from_config(b, f"{path}.branches[{i}]")
                for i, b in enumerate(branches)
            ))
    raise ConfigError(f"{path}.kind must be at_most_k, time_bounded or hybrid, got {kind!r}")


def _constraint_json(constraint: MutationConstraint) -> dict:
    if isinstance(constraint, AtMostK):
        return {"kind": "at_most_k", "k": constraint.k}
    if isinstance(constraint, TimeBounded):
        return {"kind": "time_bounded", "bound": constraint.bound}
    return {"kind": "hybrid", "branches": [_constraint_json(b) for b in constraint.branches]}


def query_from_config(cfg: Mapping) -> LinearQuerySpec:
    qcfg = _get(cfg, "release.query", dict, default={})
    fn = qcfg.get("fn", "identity")
    lower, upper = _pair(qcfg.get("bounds", [0.0, 1.0]), "release.query.bounds")
    threshold = _get(cfg, "release.query.threshold", float) if fn == "indicator" else None
    table = qcfg.get("table")
    with _refused("release.query"):
        if table is not None:
            # JSON keys are strings, read as numbers
            table = {float(k): _typed(v, f"release.query.table.{k}", float) for k, v in table.items()}
        return LinearQuerySpec(fn, lower, upper, threshold, table)


def _pair(value, path: str) -> tuple[float, float]:
    """A ``[low, high]`` list of two numbers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{path} must be [low, high], got {value!r}")
    return tuple(_typed(v, f"{path}[{i}]", float) for i, v in enumerate(value))


def strategy_from_config(cfg: Mapping) -> CompositionStrategy:
    name = _get(cfg, "release.composition", str, default="naive")
    if name == "naive":
        return Naive()
    if name == "advanced":
        slack = _get(cfg, "release.delta_slack", float, default=1e-6)
        with _refused("release.delta_slack"):
            return Advanced(slack)
    raise ConfigError(f"release.composition must be naive or advanced, got {name!r}")


# -- accounting reports ------------------------------------------------------

def release_accounting(cfg: Mapping) -> tuple[
    MutationConstraint, dict, ReleaseSchedule | SwcrParams | HdcrParams,
    ReleaseSchedule | SwcrParams | HdcrParams, LinearQuerySpec | ResponseSpace,
]:
    """``(constraint, report, params, accounted, mechanism)``, each read and checked once.

    ``params`` are what the engine runs; ``accounted`` are what the folds
    are counted on: the equivalent hierarchy of a ``from_hdcr`` window
    release, else ``params``. ``mechanism`` is the query of a Laplace
    release or the response space of a randomized-response one, whose
    noise or rule is checked here, with a hierarchy's aggregate variance.
    The report is embedded verbatim in run headers, so the CLI can never
    drift from the library's accountant.
    """
    kind = _get(cfg, "release.kind", str)
    if kind not in RELEASE_KINDS:
        raise ConfigError(f"release.kind must be one of {RELEASE_KINDS}, got {kind!r}")
    constraint = constraint_from_config(_get(cfg, "release.constraint", dict), "release.constraint")
    epsilon = _get(cfg, "release.epsilon", float)
    delta = _get(cfg, "release.delta", float, default=0.0)
    strategy = strategy_from_config(cfg)
    # randomized response is a local guarantee; the Laplace releases are global
    local = kind.startswith("rr-")
    # the library's own checks of the loss, the parameters and the mechanism
    with _refused("release"):
        per_query = PrivacyLoss(epsilon, delta)
        if kind in ("dcr", "rr-dcr"):
            params = _schedule_from_config(cfg)
        elif kind == "swcr":
            params = _swcr_from_config(cfg)
        else:
            params = _hdcr_from_config(cfg)
        accounted = params
        if kind == "swcr" and _get(cfg, "release.from_hdcr", bool, default=False):
            # the derived release's loss is the underlying hierarchy's
            branching = _get(cfg, "release.branching", int, default=2)
            accounted = swcr_equivalent_hdcr_params(params, branching)
        # windows and grid units are counted, sliced and indexed as int64s
        hierarchy = isinstance(accounted, HdcrParams)
        units = accounted.grid_size() if hierarchy else accounted.count
        if units > INT64_MAX:
            raise ValueError(f"{units} windows or grid units are more than an int64 can index")
        if local:
            mechanism = _space_from_config(cfg, "release.labels")
            _invertible_rule_entries(AnswerMutationSpace(mechanism).size, epsilon)
        else:
            mechanism = query_from_config(cfg)
            scale = NoiseSpec(epsilon, sensitivity(mechanism), seed=0).scale  # reads no seed
            if hierarchy:
                # an aggregate reports node_count * 2 * scale**2, and a cover has at most
                # 2 * (branching - 1) nodes per layer up to the first one-node layer
                layers = min(accounted.height, len(accounted.widths) + 1)
                widest = 2 * (accounted.branching - 1) * layers
                if not math.isfinite(widest * 2 * scale * scale):
                    raise ValueError(
                        f"a {widest}-node cover at per-node noise scale {scale:.6g} "
                        "has no finite variance"
                    )
    fold_count = {ReleaseSchedule: dcr_folds, SwcrParams: swcr_folds, HdcrParams: hdcr_folds}
    global_folds = fold_count[type(accounted)](accounted, constraint)
    local_fold_count = local_folds(global_folds)
    folds = local_fold_count if local else global_folds
    with _refused(f"release: cannot compose {folds} folds"):
        loss = compose_fold(per_query, folds, strategy)
        local_loss = compose_fold(per_query, local_fold_count, strategy)
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
        report["nominal_layer_sum_folds"] = hdcr_time_bounded_nominal_folds(params, constraint.bound)
    return constraint, report, params, accounted, mechanism


def _schedule_from_config(cfg: Mapping) -> ReleaseSchedule:
    scfg = _get(cfg, "release.schedule", dict)
    with _refused("release.schedule"):
        if "ticks" in scfg:
            return ReleaseSchedule(tuple(
                _typed(t, f"release.schedule.ticks[{i}]", int) for i, t in enumerate(scfg["ticks"])
            ))
        return ReleaseSchedule.uniform(*(
            _typed(scfg[name], f"release.schedule.{name}", int)
            for name in ("start", "interval", "count")
        ))


def _swcr_from_config(cfg: Mapping) -> SwcrParams:
    return SwcrParams(
        window=_get(cfg, "release.window", int),
        period=_get(cfg, "release.period", int),
        first_release=_get(cfg, "release.first_release", int),
        count=_get(cfg, "release.count", int),
    )


def _hdcr_from_config(cfg: Mapping) -> HdcrParams:
    """A prefix release's hierarchy; a ``RangeTooWideError`` when too flat for its grid."""
    params = HdcrParams(
        height=_get(cfg, "release.height", int),
        branching=_get(cfg, "release.branching", int),
        start=_get(cfg, "release.start", int),
        span=_get(cfg, "release.span", int),
        interval=_get(cfg, "release.interval", int),
    )
    check_prefix_cover(params)
    return params


def _space_from_config(cfg: Mapping, path: str) -> ResponseSpace:
    labels = tuple(_typed(l, f"{path}[{i}]", str) for i, l in enumerate(_get(cfg, path, list)))
    with _refused(path):
        return ResponseSpace(labels)


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
    if horizon > INT64_MAX:
        raise ConfigError(f"generator.horizon must be at most 2**63 - 1, so that every time "
                          f"in [0, horizon] fits in int64, got {horizon}")
    constraint = constraint_from_config(
        _get(cfg, "generator.constraint", dict), "generator.constraint"
    )
    rate = _get(cfg, "generator.mutation_rate", float, default=0.5)
    if not 0 <= rate <= 1:
        raise ConfigError(f"generator.mutation_rate must be in [0, 1], got {rate}")
    return entries, horizon, constraint, rate


def _leaves(constraint: MutationConstraint, share: float = 1.0) -> list[tuple]:
    """``(leaf, probability)`` of each atomic constraint of a hybrid, where every level
    picks one of its branches uniformly."""
    if isinstance(constraint, Hybrid):
        share /= len(constraint.branches)
        return [leaf for branch in constraint.branches for leaf in _leaves(branch, share)]
    return [(constraint, share)]


def _addressable(rows) -> None:
    """Raise MemoryError for more rows than an int64 column can hold in memory."""
    if rows > sys.maxsize // 8:
        raise MemoryError(f"{rows} rows do not fit in an int64 column")


def generate_log(cfg: Mapping, seed: int, space: ResponseSpace | None) -> Changelog:
    """Synthesize a log under the declared constraint, sorted by ``(time, entry)``.

    Entry ``i`` is ``e{i:06d}``. Every draw comes from one stream per log,
    ``(seed, "generate")``, or ``(seed, "generate-answers")`` with a response
    space, as one array per step, in this order:

    - each entry's insertion time ``t0``, uniform in ``[0, horizon)``;
    - its constraint leaf: a hybrid picks one of its branches uniformly,
      level by level;
    - its count of extra mutations, ``Binomial(budget, mutation_rate)``,
      where the budget is ``k - 1`` for at-most-k and 4 for a time bound,
      and 0 when no tick follows ``t0`` within reach;
    - the extra times, uniform in ``(t0, last]``, where ``last`` is the
      horizon, or ``t0 + bound`` if earlier; repeated times of one entry
      count once;
    - the values of each entry's chain, insertion first. Without a space
      they are uniform in ``generator.value_range``, rounded to 6
      decimals. With one they are label codes: the first uniform, each
      later one uniform among the labels other than the one before it;
    - whether an entry with more than one mutation ends with a deletion,
      with probability ``0.25 * mutation_rate``.

    A budget or bound past the horizon is capped at the horizon, which no
    entry's distinct extra times can exceed. The log is checked against
    the constraint before it is returned.
    """
    entries, horizon, constraint, rate = _generator_params(cfg)
    if space is None:
        value_range = _get(cfg, "generator.value_range", list, default=[0.0, 100.0])
        low, high = _pair(value_range, "generator.value_range")
        # rounding to 6 decimals multiplies a value by 1e6, which must stay finite
        if not (low <= high and math.isfinite(high - low) and math.isfinite(max(-low, high) * 1e6)):
            raise ConfigError(f"generator.value_range must be finite [low, high], and finite "
                              f"times 1e6, got {value_range}")
    rng = named_stream(seed, "generate" if space is None else "generate-answers")
    times, lengths = _chain_times(rng, entries, horizon, constraint, rate)
    first = np.cumsum(lengths) - lengths  # each entry's insertion row
    inserted = np.zeros(len(times), dtype=bool)
    inserted[first] = True
    if space is None:
        new = np.round(rng.uniform(low, high, size=len(times)), 6)
    else:
        # a later answer moves 1 to size - 1 labels on from the one before it
        steps = rng.integers(0, np.where(inserted, space.size, space.size - 1)) + ~inserted
        total = np.cumsum(steps)
        new = ((total - np.repeat(total[first] - steps[first], lengths)) % space.size).astype(float)
    has_new = np.ones(len(times), dtype=bool)
    has_new[(first + lengths - 1)[(rng.random(entries) < 0.25 * rate) & (lengths > 1)]] = False
    prev = np.empty_like(new)
    prev[0], prev[1:] = 0.0, new[:-1]
    codes = np.repeat(np.arange(entries), lengths)
    ids = [f"e{i:06d}" for i in range(entries)]
    columns = sorted_columns((times, codes, ids, prev, new, ~inserted, has_new))
    # the rows in entry order are no longer needed once sorted
    del times, codes, prev, new, inserted, has_new
    log = Changelog.from_columns(*columns)
    if not validate_constraint(log, constraint).all():
        raise AssertionError("generator produced a constraint-violating entry")
    return log


def _chain_times(
    rng: np.random.Generator, entries: int, horizon: int, constraint: MutationConstraint,
    rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Every entry's mutation times, entry by entry, each its insertion time and then its
    extra times in order, and each entry's count of them (``generate_log``'s first draws)."""
    _addressable(entries)
    starts = rng.integers(0, horizon, size=entries)
    leaves, shares = zip(*_leaves(constraint))
    leaf = rng.choice(len(leaves), size=entries, p=shares)
    budget = np.array([min(b.k - 1, horizon) if isinstance(b, AtMostK) else 4 for b in leaves])
    reach = np.array([horizon if isinstance(b, AtMostK) else min(b.bound, horizon) for b in leaves])
    last = starts + np.minimum(reach[leaf], horizon - starts)
    extra = rng.binomial(np.where(last > starts, budget[leaf], 0), rate)
    _addressable(entries + extra.sum(dtype=float))
    owner = np.repeat(np.arange(entries), extra)
    times = rng.integers(np.repeat(starts + 1, extra), np.repeat(last, extra), endpoint=True)
    # each entry's extra times in order, a repeated time once
    order = np.lexsort((times, owner))
    owner, times = owner[order], times[order]
    fresh = np.ones(len(times), dtype=bool)
    fresh[1:] = (owner[1:] != owner[:-1]) | (times[1:] != times[:-1])
    owner, times = owner[fresh], times[fresh]
    lengths = 1 + np.bincount(owner, minlength=entries)
    chain_times = np.empty(entries + len(times), dtype=np.int64)
    chain_times[np.cumsum(lengths) - lengths] = starts
    chain_times[np.arange(len(times)) + owner + 1] = times
    return chain_times, lengths


# -- run ----------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    seed = _seed(cfg)
    constraint, accounting, params, accounted, mechanism = release_accounting(cfg)
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
    with _refused(f"--changelog {args.changelog}"):
        log = load_answer_log(args.changelog, mechanism) if rr else load_changelog(args.changelog)
    bad = np.flatnonzero(~validate_constraint(log, constraint))
    if len(bad):
        raise ConstraintViolationError(
            f"{len(bad)} entries violate the declared constraint "
            f"(first: {[log.ids[i] for i in bad[:3]]})"
        )
    epsilon = accounting["per_query"]["epsilon"]
    if rr:
        release = (rr_dcr if kind == "rr-dcr" else rr_hdcr)(log, mechanism, params, epsilon, seed)
    else:
        noise = NoiseSpec(epsilon, sensitivity(mechanism), seed)
        if accounted is not params:  # a window release answered by the hierarchy it is accounted on
            release = derive_swcr_from_hdcr(log, params, accounted.branching, noise, mechanism)
        else:
            engine = {"dcr": run_dcr, "swcr": run_swcr, "hdcr": run_hdcr}[kind]
            release = engine(log, params, mechanism, noise)
    try:
        with open(out, "w", encoding="utf-8") as fh:
            if fmt == "jsonl":
                fh.write(json.dumps({"type": "header", **header}) + "\n")
            else:
                fh.write("# " + json.dumps(header) + "\n")
            if rr:
                _write_rr(release, mechanism, fh, fmt)
            else:
                (result_to_jsonl if fmt == "jsonl" else result_to_csv)(release, fh, include_exact)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc
    print(f"wrote release to {out} (accounted {accounting['scope']} loss: "
          f"epsilon={accounting['epsilon']:.6g}, delta={accounting['delta']:.3g})")
    return 0


def _write_rr(records: list[RrRecord], space: ResponseSpace, fh: IO[str], fmt: str) -> None:
    """Cumulative histogram estimates, then their variances, one row per release time:
    rr-hdcr's prefix aggregates with their node counts, or rr-dcr's running sums."""
    k = space.size
    table = np.array([np.append(rec.estimate.values, np.diag(rec.estimate.covariance))
                      for rec in records]).reshape(-1, 2 * k)
    counts = [rec.node_count for rec in records]
    if None in counts:  # each sum adds left to right from 0.0
        table = np.add.accumulate(np.vstack([np.zeros(2 * k), table]))[1:]
    columns = {"t": lambda rows: [str(rec.time) for rec in records[rows]]}
    if fmt == "csv":
        names = [f"{name}_{label}" for name in ("vhat", "var") for label in space.labels]
        for name, column in zip(names, table.T):
            columns[name] = lambda rows, x=column: float_texts(x[rows], fmt)
    else:
        for name, x in (("estimate", table[:, :k]), ("variance", table[:, k:])):
            columns[name] = lambda rows, x=x: ["[" + ", ".join(float_texts(row, fmt)) + "]"
                                               for row in x[rows]]
        if None not in counts:
            columns["node_count"] = lambda rows: map(str, counts[rows])
    write_rows(fh, fmt, len(records), columns)


# -- account / compare / verify ------------------------------------------------

def cmd_account(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    constraint, report, *_ = release_accounting(cfg)
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
    name, _, value = args.constraint.partition(":")
    kinds = {"at_most_k": AtMostK, "time_bounded": TimeBounded}
    if name not in kinds or not value:
        raise ConfigError(
            f"--constraint must be at_most_k:<k> or time_bounded:<bound>, got {args.constraint!r}"
        )
    with _refused(f"--constraint {args.constraint}"):
        constraint = kinds[name](int(value))
    with _refused(f"--branching {args.branching}"):
        factors = [int(c) for c in args.branching.split(",") if c]
    window = f"--window {args.window} --period {args.period}"
    with _refused(window):
        swcr = SwcrParams(window=args.window, period=args.period, first_release=args.window, count=2)
    rows = []
    for c in factors:
        with _refused(f"{window} --constraint {args.constraint} --branching {c}"):
            rows.append((c, compare_hdcr_swcr(swcr, c, constraint)))
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
    from .verification import format_reports, run_all  # only verify loads the oracle suite

    reports = run_all(trials=args.trials, seed=args.seed, fault=args.inject_fault)
    print(format_reports(reports))
    failed = sum(1 for r in reports if not r.passed)
    print(f"{len(reports) - failed}/{len(reports)} oracle checks passed")
    return 4 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
