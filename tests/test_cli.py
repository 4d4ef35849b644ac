import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import dpcr
from dpcr.accounting import HdcrParams, ReleaseSchedule
from dpcr.changelog import (
    AtMostK,
    Changelog,
    chains,
    dump_changelog,
    load_changelog,
    validate_constraint,
)
from dpcr.randomized_response import (
    ResponseSpace,
    answer_changelog,
    dump_answer_log,
    load_answer_log,
    rr_dcr,
    rr_hdcr,
)
from dpcr.cli import _write_rr, constraint_from_config, generate_log, main


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "seed": 42,
        "generator": {
            "entries": 60,
            "horizon": 64,
            "constraint": {"kind": "at_most_k", "k": 3},
            "value_range": [0.0, 100.0],
            "mutation_rate": 0.5,
        },
        "release": {
            "kind": "dcr",
            "epsilon": 0.1,
            "delta": 0.0,
            "constraint": {"kind": "at_most_k", "k": 3},
            "query": {"fn": "identity", "bounds": [0, 100]},
            "schedule": {"start": 8, "interval": 8, "count": 8},
        },
        "output": {"format": "csv", "path": str(path.parent / "out.csv")},
    }
    for dotted, value in overrides.items():
        node = cfg
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def cfg(tmp_path):
    return write_config(tmp_path / "cfg.json")


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestGenerate:
    def test_constraint_holds_post_hoc(self, tmp_path, cfg):
        out = tmp_path / "log.jsonl"
        assert run_cli("generate", "--config", cfg, "--out", out) == 0
        log = load_changelog(out)
        verdicts = validate_constraint(log, AtMostK(3))
        assert verdicts.dtype == bool and verdicts.shape == (len(log.ids),) and verdicts.all()

    def test_same_seed_gives_identical_bytes(self, tmp_path, cfg):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("generate", "--config", cfg, "--out", a)
        run_cli("generate", "--config", cfg, "--out", b)
        assert a.read_bytes() == b.read_bytes()
        run_cli("generate", "--config", cfg, "--out", b, "--seed", "43")
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("labels", [None, ["yes", "no", "maybe"]], ids=["changelog", "answers"])
    def test_dump_of_loaded_log_reproduces_generated_bytes(self, tmp_path, cfg, labels):
        generated, dumped = tmp_path / "generated.jsonl", tmp_path / "dumped.jsonl"
        overrides = ["--set", f"generator.labels={json.dumps(labels)}"] if labels else []
        assert run_cli("generate", "--config", cfg, *overrides, "--out", generated) == 0
        if labels:
            space = ResponseSpace(tuple(labels))
            log = load_answer_log(generated, space)
            assert any(m.is_deletion for m in log) and any(not m.is_insertion for m in log)
            dump_answer_log(log, space, dumped)
        else:
            dump_changelog(load_changelog(generated), dumped)
        assert dumped.read_bytes() == generated.read_bytes()

    @pytest.mark.parametrize("labels, digest", [
        (None, "ca48e8207e92318cfc03b4f29206eb82bc06ccf0378ff1764a8bb137e5c586db"),
        (["yes", "no", "maybe"], "adeaf57dc67fc791d1bd0021db56ebea87ff9605fc9ca990f6e6983493fccd96"),
    ], ids=["changelog", "answers"])
    def test_generated_bytes_are_pinned(self, tmp_path, cfg, labels, digest):
        # a change to the seeded streams, the draws or the writers changes these
        out = tmp_path / "log.jsonl"
        overrides = ["--set", f"generator.labels={json.dumps(labels)}"] if labels else []
        assert run_cli("generate", "--config", cfg, *overrides, "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_zero_mutation_rate_gives_insertions_only(self, tmp_path, cfg):
        out = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--set", "generator.mutation_rate=0", "--out", out)
        log = load_changelog(out)
        assert all(m.is_insertion for m in log)

    def test_time_bounded_generation(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            **{"generator.constraint": {"kind": "time_bounded", "bound": 5}},
        )
        out = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--out", out)
        log = load_changelog(out)
        for eid in log.ids:
            chain = log.for_entry(eid)
            assert chain[-1].time - chain[0].time <= 5


def generated(seed: int = 3, labels=None, **generator) -> "Changelog":
    """``generate_log`` in process on a generator config: 4,000 entries over a
    horizon of 10**9 ticks unless overridden, where two draws of an entry rarely
    share a tick."""
    cfg = {"entries": 4000, "horizon": 10**9, "mutation_rate": 0.5,
           "value_range": [0.0, 100.0], **generator}
    space = ResponseSpace(tuple(labels)) if labels else None
    return generate_log({"generator": cfg}, seed, space)


def chain_lengths(log) -> np.ndarray:
    return np.bincount(log.codes, minlength=len(log.ids))


def within(count: int, n: int, p: float, z: float = 5.0) -> bool:
    """``count`` of ``n`` Bernoulli(p) trials lies within ``z`` standard errors of ``n p``."""
    return abs(count - n * p) <= z * math.sqrt(n * p * (1 - p)) + 1e-9


class TestGeneratorModel:
    """Seeded logs follow the model ``generate_log`` documents, to within five
    standard errors of each share."""

    def test_hybrid_leaf_shares(self):
        # rate 1 draws every budgeted extra, so a chain's length names its leaf:
        # 1 for k = 1, 3 for k = 3, 5 for the time bound, picked as 1/2, 1/4, 1/4
        constraint = {"kind": "hybrid", "branches": [
            {"kind": "at_most_k", "k": 1},
            {"kind": "hybrid", "branches": [{"kind": "at_most_k", "k": 3},
                                            {"kind": "time_bounded", "bound": 10**6}]}]}
        lengths = chain_lengths(generated(mutation_rate=1.0, constraint=constraint))
        n = len(lengths)
        assert set(lengths.tolist()) <= {1, 2, 3, 4, 5}
        assert within(np.count_nonzero(lengths == 1), n, 0.5)
        assert within(np.count_nonzero(lengths == 3), n, 0.25)
        assert within(np.count_nonzero(lengths >= 4), n, 0.25)

    @pytest.mark.parametrize("constraint, budget", [
        ({"kind": "at_most_k", "k": 4}, 3), ({"kind": "time_bounded", "bound": 10**6}, 4),
    ], ids=["at_most_k", "time_bounded"])
    def test_chain_lengths_per_leaf(self, constraint, budget):
        # 1 + Binomial(budget, rate) mutations per entry
        lengths = chain_lengths(generated(constraint=constraint))
        for extra in range(budget + 1):
            p = math.comb(budget, extra) * 0.5**budget
            assert within(np.count_nonzero(lengths == 1 + extra), len(lengths), p), extra
        assert lengths.max() <= 1 + budget

    @pytest.mark.parametrize("constraint, reach", [
        ({"kind": "at_most_k", "k": 6}, None), ({"kind": "time_bounded", "bound": 7}, 7),
        ({"kind": "hybrid", "branches": [{"kind": "at_most_k", "k": 2},
                                         {"kind": "time_bounded", "bound": 3}]}, None),
    ], ids=["at_most_k", "time_bounded", "hybrid"])
    def test_extra_times_fall_after_the_insertion(self, constraint, reach):
        # every extra time is in (t0, last]: last is the horizon, or t0 + bound if earlier
        horizon = 50
        log = generated(horizon=horizon, constraint=constraint)
        chain, starts = chains(log.codes)
        times, owner = log.times[chain], log.codes[chain]
        t0 = times[starts][owner]
        assert ((0 <= t0) & (t0 < horizon)).all()
        extra = ~starts
        assert (times[extra] > t0[extra]).all() and (times[extra] <= horizon).all()
        assert (np.diff(times)[extra[1:]] > 0).all()  # each time once per entry
        if reach is not None:
            assert (times[extra] <= t0[extra] + reach).all()
        assert validate_constraint(log, constraint_from_config(constraint, "c")).all()

    @pytest.mark.parametrize("rate", [0.5, 1.0])
    def test_deletion_rate(self, rate):
        # an entry with more than one mutation ends with a deletion w.p. 0.25 * rate
        log = generated(mutation_rate=rate, constraint={"kind": "at_most_k", "k": 4})
        lengths = chain_lengths(log)
        assert log.has_prev[~log.has_new].all()  # only a later mutation deletes
        deleted = np.zeros(len(lengths), dtype=bool)
        deleted[log.codes[~log.has_new]] = True
        several = lengths > 1
        assert not deleted[~several].any()
        assert within(np.count_nonzero(deleted[several]), np.count_nonzero(several), 0.25 * rate)

    def test_answers_differ_from_the_one_before(self):
        labels = ["a", "b", "c", "d"]
        log = generated(labels=labels, constraint={"kind": "at_most_k", "k": 5})
        changed = log.has_prev & log.has_new
        assert changed.any() and (log.prev[changed] != log.new[changed]).all()
        # the first answer is uniform over the labels, a later one over the other labels
        first = log.new[~log.has_prev].astype(int)
        for label in range(len(labels)):
            assert within(np.count_nonzero(first == label), len(first), 1 / len(labels))
        moves = ((log.new[changed] - log.prev[changed]) % len(labels)).astype(int)
        for move in range(1, len(labels)):
            assert within(np.count_nonzero(moves == move), len(moves), 1 / (len(labels) - 1))

    @pytest.mark.parametrize("labels", [None, ["a", "b"]], ids=["changelog", "answers"])
    @pytest.mark.parametrize("entries, horizon", [(1, 64), (50, 1), (1, 1)])
    def test_smallest_sizes(self, labels, entries, horizon):
        log = generated(entries=entries, horizon=horizon, labels=labels,
                        constraint={"kind": "at_most_k", "k": 3})
        assert len(log.ids) == entries and ((0 <= log.times) & (log.times <= horizon)).all()
        if horizon == 1:  # t0 = 0, and the one tick after it at most once
            assert (chain_lengths(log) <= 2).all()


class TestRun:
    def test_header_carries_accounted_bound(self, tmp_path, cfg):
        log = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--out", log)
        assert run_cli("run", "--config", cfg, "--changelog", log) == 0
        first = (tmp_path / "out.csv").read_text().splitlines()[0]
        header = json.loads(first.lstrip("# "))
        assert header["privacy"]["folds"] == 3
        assert header["privacy"]["epsilon"] == pytest.approx(0.3)
        assert header["privacy"]["scope"] == "global"

    @pytest.mark.parametrize(
        "ticks,bound,hits",
        [([0, 1, 2], 100, 3), ([5, 10, 11, 12, 14], 5, 4)],
    )
    def test_header_folds_cover_time_bounded_overlap(self, tmp_path, ticks, bound, hits):
        # one entry mutating at consecutive ticks up to `bound` after its
        # insertion touches `hits` queries, so the header must compose as many
        cfg = write_config(
            tmp_path / "cfg.json",
            **{
                "release.epsilon": 1.0,
                "release.schedule": {"ticks": ticks},
                "release.constraint": {"kind": "time_bounded", "bound": bound},
                "generator.constraint": {"kind": "time_bounded", "bound": bound},
            },
        )
        log = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--out", log)
        assert run_cli("run", "--config", cfg, "--changelog", log) == 0
        header = json.loads((tmp_path / "out.csv").read_text().splitlines()[0].lstrip("# "))
        assert header["privacy"]["folds"] == hits
        assert header["privacy"]["epsilon"] == pytest.approx(hits)

    def test_exact_hidden_unless_requested(self, tmp_path, cfg):
        log = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--out", log)
        run_cli("run", "--config", cfg, "--changelog", log)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[1] == "query_index,t_start,t_end,noisy"
        run_cli(
            "run", "--config", cfg, "--changelog", log,
            "--set", "output.include_exact=true",
        )
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[1] == "query_index,t_start,t_end,noisy,exact"

    def test_constraint_violation_exits_3(self, tmp_path, cfg):
        log = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--out", log)
        code = run_cli(
            "run", "--config", cfg, "--changelog", log,
            "--set", 'release.constraint={"kind":"at_most_k","k":1}',
        )
        assert code == 3

    def test_swcr_time_bounded_header_folds(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            **{
                "release.kind": "swcr",
                "release.window": 14,
                "release.period": 7,
                "release.first_release": 14,
                "release.count": 6,
                "release.constraint": {"kind": "time_bounded", "bound": 7},
                "generator.constraint": {"kind": "time_bounded", "bound": 7},
            },
        )
        log = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--out", log)
        run_cli("run", "--config", cfg, "--changelog", log)
        header = json.loads((tmp_path / "out.csv").read_text().splitlines()[0].lstrip("# "))
        assert header["privacy"]["folds"] == 3

    def test_rr_dcr_header_doubles_folds(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            **{
                "release.kind": "rr-dcr",
                "release.epsilon": 1.0,
                "release.labels": ["yes", "no"],
                "release.constraint": {"kind": "at_most_k", "k": 2},
                "generator.constraint": {"kind": "at_most_k", "k": 2},
                "generator.labels": ["yes", "no"],
                "output.format": "jsonl",
                "output.path": str(tmp_path / "out.jsonl"),
            },
        )
        answers = tmp_path / "answers.jsonl"
        run_cli("generate", "--config", cfg, "--out", answers)
        assert run_cli("run", "--config", cfg, "--changelog", answers) == 0
        lines = (tmp_path / "out.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["privacy"]["scope"] == "local"
        assert header["privacy"]["folds"] == 4
        row = json.loads(lines[1])
        assert len(row["estimate"]) == 2

    def test_rr_csv_quotes_labels(self, tmp_path):
        labels = ["a,b", 'c"d']
        cfg = write_config(
            tmp_path / "cfg.json",
            **{"release.kind": "rr-dcr", "release.epsilon": 1.0, "release.labels": labels,
               "generator.labels": labels},
        )
        answers = tmp_path / "answers.jsonl"
        run_cli("generate", "--config", cfg, "--out", answers)
        assert run_cli("run", "--config", cfg, "--changelog", answers) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()[1:]
        header, *rows = csv.reader(lines)
        assert header == ["t", "vhat_a,b", 'vhat_c"d', "var_a,b", 'var_c"d']
        assert rows and all(len(row) == len(header) for row in rows)

    def test_swcr_from_hdcr_accounts_the_hierarchy(self, tmp_path):
        # window 8, period 4 -> bottom interval 4, one layer: 1*k folds,
        # while the direct window release would compose 2*k
        cfg = write_config(
            tmp_path / "cfg.json",
            **{
                "release.kind": "swcr",
                "release.from_hdcr": True,
                "release.branching": 2,
                "release.window": 8,
                "release.period": 4,
                "release.first_release": 8,
                "release.count": 4,
                "release.constraint": {"kind": "at_most_k", "k": 2},
                "generator.constraint": {"kind": "at_most_k", "k": 2},
                "output.format": "jsonl",
                "output.path": str(tmp_path / "out.jsonl"),
            },
        )
        log = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--out", log)
        assert run_cli("run", "--config", cfg, "--changelog", log) == 0
        lines = (tmp_path / "out.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["privacy"]["folds"] == 2
        assert json.loads(lines[1])["node_count"] == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"release.schedule": {"ticks": [8, 16, 2**63]}},
            {"release.kind": "hdcr", "release.height": 3, "release.branching": 2,
             "release.start": 2**63, "release.span": 32, "release.interval": 8},
        ],
        ids=["schedule-tick", "hierarchy-start"],
    )
    def test_release_times_beyond_int64_run(self, tmp_path, overrides):
        # only the log's times must fit in 64 bits; release bounds may exceed them
        cfg = write_config(tmp_path / "cfg.json", **overrides, **{"output.include_exact": True})
        log = tmp_path / "log.jsonl"
        assert run_cli("generate", "--config", cfg, "--out", log) == 0
        out = tmp_path / "out.csv"
        assert run_cli("run", "--config", cfg, "--changelog", log, "--out", out) == 0
        rows = list(csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#")))
        assert int(rows[-1]["t_end"]) >= 2**63

    def test_end_to_end_determinism(self, tmp_path, cfg):
        log = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--out", log)
        run_cli("run", "--config", cfg, "--changelog", log)
        first = (tmp_path / "out.csv").read_bytes()
        run_cli("run", "--config", cfg, "--changelog", log)
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_hdcr_run_emits_prefix_aggregates(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            **{
                "release.kind": "hdcr",
                "release.height": 3,
                "release.branching": 2,
                "release.start": 0,
                "release.span": 8,
                "release.interval": 2,
                "output.format": "jsonl",
                "output.path": str(tmp_path / "out.jsonl"),
            },
        )
        log = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--out", log)
        assert run_cli("run", "--config", cfg, "--changelog", log) == 0
        rows = [json.loads(l) for l in (tmp_path / "out.jsonl").read_text().splitlines()]
        assert rows[1]["node_count"] == 1
        assert rows[2]["node_count"] == 1  # (0, 4] is one layer-1 node
        assert rows[3]["node_count"] == 2


HIERARCHY = {"release.height": 4, "release.branching": 2, "release.start": 0,
             "release.span": 64, "release.interval": 8}
WINDOWS = {"release.window": 16, "release.period": 8, "release.first_release": 16,
           "release.count": 6}
LABELS = {"release.labels": ["yes", "no"], "generator.labels": ["yes", "no"],
          "release.epsilon": 1.0}


class TestHeaderPrivacyRule:
    """The released header carries the seed, the input and the accounted bound, nothing else."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"release.kind": "swcr", **WINDOWS},
            {"release.kind": "swcr", "release.from_hdcr": True, "release.branching": 2,
             **WINDOWS},
            {"release.kind": "hdcr", **HIERARCHY},
            {"release.kind": "rr-dcr", **LABELS},
            {"release.kind": "rr-hdcr", **HIERARCHY, **LABELS},
        ],
        ids=["dcr", "swcr", "swcr-from-hdcr", "hdcr", "rr-dcr", "rr-hdcr"],
    )
    def test_header_keys(self, tmp_path, overrides, fmt):
        out = tmp_path / f"out.{fmt}"
        cfg = write_config(
            tmp_path / "cfg.json",
            **overrides, **{"output.format": fmt, "output.path": str(out)},
        )
        data = tmp_path / "input.jsonl"
        assert run_cli("generate", "--config", cfg, "--out", data) == 0
        assert run_cli("run", "--config", cfg, "--changelog", data) == 0
        first = out.read_text().splitlines()[0]
        if fmt == "csv":
            assert first.startswith("# ")
            first = first[2:]
        expected = {"seed", "input", "privacy"} | ({"type"} if fmt == "jsonl" else set())
        assert set(json.loads(first)) == expected


# two labels, one of which a CSV writer must quote
QUOTED_LABELS = {"release.labels": ["yes", "no, maybe"],
                 "generator.labels": ["yes", "no, maybe"], "release.epsilon": 1.0}
ROW_RELEASES = {
    "dcr": {"output.include_exact": True},
    "swcr": {"release.kind": "swcr", **WINDOWS, "output.include_exact": True},
    "rr-dcr": {"release.kind": "rr-dcr", **QUOTED_LABELS},
    "rr-hdcr": {"release.kind": "rr-hdcr", **HIERARCHY, **QUOTED_LABELS},
}
# SHA-256 of each release's rows, everything after the header line
ROW_DIGESTS = {
    ("dcr", "csv"):
        "820140c5501aafecaf2cbfd717725c2a3439e2694061c9467546f3cfb26f7a7d",
    ("dcr", "jsonl"):
        "56f8b39ff9e863569cf0b833af4aa67f89a0e849c076b2cd8efbdfc08edb57fc",
    ("swcr", "csv"):
        "4e6f52a42ea495c4c1c32d524c36ba039f78b1a5e02ad0f41357e55e6e8d8bf0",
    ("swcr", "jsonl"):
        "7a5ffd0e0e2fda7484a172c6c502d3ef5b739be62544b2f0b08c1c5c9a23759c",
    ("rr-dcr", "csv"):
        "31483b2fb3676a04b9ba1f86fac6025ced6d07e103966ceaa3c465fa6fb350f1",
    ("rr-dcr", "jsonl"):
        "4a0a21a71172531ddd9cab629adb5327d85a8ea61aeb91db270a0bcab56b9cc5",
    ("rr-hdcr", "csv"):
        "7839423750c78c59081bed2e6081d608c7cef6e87eea734f45442f75d8b65c21",
    ("rr-hdcr", "jsonl"):
        "8d8683eeda1c03272b7c85500ffc8cc9b87d7b0492ef3df2d1c1634db45b79f9",
}


class TestRowPins:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("kind", sorted(ROW_RELEASES))
    def test_rows_are_pinned(self, tmp_path, kind, fmt):
        # a change to the engines, the noise streams, the entry order or the
        # writers changes these; the header names the input path, so it is skipped
        out = tmp_path / f"out.{fmt}"
        cfg = write_config(
            tmp_path / "cfg.json",
            **ROW_RELEASES[kind], **{"output.format": fmt, "output.path": str(out)},
        )
        data = tmp_path / "input.jsonl"
        assert run_cli("generate", "--config", cfg, "--out", data) == 0
        assert run_cli("run", "--config", cfg, "--changelog", data) == 0
        rows = out.read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(rows).hexdigest() == ROW_DIGESTS[kind, fmt]


class TestRrWriter:
    """``_write_rr`` writes what the per-row dict, ``json.dumps`` and ``csv.writer`` writer
    it replaced wrote, rr-dcr's running sums included."""

    SPACE = ResponseSpace(("a,b", 'c"d', "\u00e9t\u00e9"))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("kind", ["rr-dcr", "rr-hdcr"])
    def test_rows_equal_the_reference(self, kind, fmt):
        rng = np.random.default_rng(3)
        log = answer_changelog((int(t), f"e{i:02d}", float(rng.integers(0, self.SPACE.size)))
                               for i in range(40) for t in np.unique(rng.integers(0, 32, 3)))
        if kind == "rr-dcr":
            records = rr_dcr(log, self.SPACE, ReleaseSchedule.uniform(4, 4, 8), 1.0, 7)
        else:
            records = rr_hdcr(log, self.SPACE, HdcrParams(4, 2, 0, 32, 4), 1.0, 7)
        buf = io.StringIO()
        _write_rr(records, self.SPACE, buf, fmt)
        assert buf.getvalue() == reference_rr(records, self.SPACE, fmt)


def reference_rr(records, space: ResponseSpace, fmt: str) -> str:
    """The replaced writer: running sums by a loop, one dict or ``writerow`` per row."""
    fh = io.StringIO()
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
    return fh.getvalue()


NOISE_SEEDS = range(20)
NOISE_RELEASES = {
    "dcr": {"release.schedule": {"start": 8, "interval": 8, "count": 400}},
    "swcr": {"release.kind": "swcr", **WINDOWS, "release.count": 400},
    "hdcr": {"release.kind": "hdcr", **HIERARCHY},
    "swcr-from-hdcr": {"release.kind": "swcr", "release.from_hdcr": True,
                       "release.branching": 2, **WINDOWS},
}


class TestNoiseScale:
    """The released noise has the Laplace scale ``b = (upper - lower) / epsilon``,
    computed from the config's query bounds and the header's per-query epsilon
    alone, not read back through the code that draws it."""

    @staticmethod
    def released(tmp_path, kind) -> tuple[float, list[dict]]:
        """``b`` and the rows of one release run at every seed of ``NOISE_SEEDS``."""
        out = tmp_path / "out.jsonl"
        cfg = write_config(
            tmp_path / "cfg.json", **NOISE_RELEASES[kind],
            **{"release.epsilon": 0.5, "output.format": "jsonl", "output.path": str(out),
               "output.include_exact": True},
        )
        data = tmp_path / "input.jsonl"
        assert run_cli("generate", "--config", cfg, "--out", data) == 0
        lower, upper = json.loads(cfg.read_text())["release"]["query"]["bounds"]
        rows, scales = [], set()
        for seed in NOISE_SEEDS:
            assert run_cli("run", "--config", cfg, "--changelog", data, "--seed", seed) == 0
            header, *lines = map(json.loads, out.read_text().splitlines())
            scales.add((upper - lower) / header["privacy"]["per_query"]["epsilon"])
            rows += lines
        (b,) = scales
        return b, rows

    @pytest.mark.parametrize("kind", ["dcr", "swcr"])
    def test_residuals_have_the_laplace_moments(self, tmp_path, kind):
        b, rows = self.released(tmp_path, kind)
        residuals = np.array([row["noisy"] - row["exact"] for row in rows])
        n = len(residuals)
        assert n >= 8000
        # the sample mean's standard error is sqrt(2 / n) b; the Laplace
        # kurtosis of 6 puts the variance's at sqrt(5 / n) of 2 b^2, so 10%
        # is four standard errors at n = 8000
        assert abs(residuals.mean()) <= 4 * math.sqrt(2 / n) * b
        assert residuals.var() == pytest.approx(2 * b**2, rel=0.1)

    @pytest.mark.parametrize("kind", ["hdcr", "swcr-from-hdcr"])
    def test_reported_variance_is_the_cover_of_laplace_nodes(self, tmp_path, kind):
        b, rows = self.released(tmp_path, kind)
        assert rows
        for row in rows:
            assert row["variance"] == pytest.approx(row["node_count"] * 2 * b**2, rel=1e-12)


class TestAccountAndCompare:
    def test_account_prints_bound(self, tmp_path, cfg, capsys):
        assert run_cli("account", "--config", cfg) == 0
        out = capsys.readouterr().out
        assert "epsilon=0.3" in out
        assert "folds:    3" in out

    def test_account_prints_local_variant(self, tmp_path, cfg, capsys):
        run_cli("account", "--config", cfg)
        out = capsys.readouterr().out
        assert "local folds:       6" in out
        assert "epsilon=0.6" in out

    def test_account_hybrid_uses_branch_sup(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            **{
                "release.constraint": {
                    "kind": "hybrid",
                    "branches": [
                        {"kind": "at_most_k", "k": 1},
                        {"kind": "time_bounded", "bound": 0},
                    ],
                }
            },
        )
        run_cli("account", "--config", cfg)
        out = capsys.readouterr().out
        assert "per-branch sup" in out
        # a zero-bound entry mutates once, so it touches one range
        assert "composed folds:    1 (per-branch sup)" in out
        assert "accounted loss:    (epsilon=0.1," in out

    def test_account_hdcr_reports_nominal_folds(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            **{
                "release.kind": "hdcr",
                "release.height": 2,
                "release.branching": 2,
                "release.start": 0,
                "release.span": 4,
                "release.interval": 1,
                "release.constraint": {"kind": "time_bounded", "bound": 1},
            },
        )
        run_cli("account", "--config", cfg)
        out = capsys.readouterr().out
        assert "folds:    4" in out
        assert "nominal layer sum: 3.5" in out

    def test_compare_table(self, capsys):
        assert run_cli(
            "compare", "--window", 64, "--period", 1,
            "--constraint", "at_most_k:1", "--branching", "2",
        ) == 0
        out = capsys.readouterr().out
        assert "432" in out and "4096" in out and "yes" in out

    @pytest.mark.parametrize("constraint", ["at_most_k", "at_most_k:", "time_bounded"])
    def test_compare_constraint_needs_a_value(self, capsys, constraint):
        assert run_cli(
            "compare", "--window", 64, "--period", 1, "--constraint", constraint, "--branching", "2",
        ) == 2
        err = capsys.readouterr().err
        assert "at_most_k:<k>" in err and "time_bounded:<bound>" in err

    @pytest.mark.parametrize(
        "window,constraint,named",
        [(4, f"time_bounded:{10**400}", f"--constraint time_bounded:{10**400}"),
         (10**200, "at_most_k:1", f"--window {10**200} --period 1")],
        ids=["bound-beyond-float", "window-beyond-float"],
    )
    def test_compare_beyond_float_range_exits_2(self, capsys, window, constraint, named):
        assert run_cli("compare", "--window", window, "--period", 1, "--constraint", constraint) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert named in err

    def test_config_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "release": {"kind": "dcr"}}))
        assert run_cli("account", "--config", bad) == 2

    def test_missing_seed_exits_2(self, tmp_path, cfg):
        assert run_cli(
            "generate", "--config", cfg, "--set", "seed=null",
            "--out", tmp_path / "x.jsonl",
        ) == 2


SWCR_BRANCHING_1 = [
    "--set", "release.kind=swcr", "--set", "release.from_hdcr=true",
    "--set", "release.branching=1", "--set", "release.window=16", "--set", "release.period=8",
    "--set", "release.first_release=16", "--set", "release.count=6",
]


# input logs that a loader must refuse
BAD_LOGS = {
    "nan-value": '{"entry": "e", "t": 1, "prev": null, "new": NaN}',
    "infinite-value": '{"entry": "e", "t": 1, "prev": null, "new": -Infinity}',
    "overflowing-time": '{"entry": "e", "t": 1e400, "prev": null, "new": 1.0}',
    "overflowing-answer-time": '{"entry": "e", "t": 1e400, "answer": "a"}',
    "time-beyond-int64": '{"entry": "e", "t": 9223372036854775808, "prev": null, "new": 1.0}',
}
# "t" must be a JSON integer in both log kinds, and a null answer withdraws
# an answer, so the entry must hold one
STRICT_LOGS = {
    **{f"{name}-{kind}-time": f'{{"entry": "e", "t": {t}, {fields}}}'
       for name, t in (("fractional", "1.9"), ("boolean", "true"), ("string", '"3"'),
                       ("integral-float", "3.0"))
       for kind, fields in (("log", '"prev": null, "new": 1.0'), ("answer", '"answer": "a"'))},
    "null-first-answer": '{"entry": "e", "t": 1, "answer": null}',
    "null-after-null-answer": '{"entry": "e", "t": 1, "answer": "a"}\n'
                              '{"entry": "e", "t": 2, "answer": null}\n'
                              '{"entry": "e", "t": 3, "answer": null}',
}
BAD_LOGS.update(STRICT_LOGS)
RR_DCR = ["release.kind=rr-dcr", 'release.labels=["a","b"]']


class TestInputFailures:
    @pytest.mark.parametrize(
        "command,overrides,changelog",
        [
            ("account", ["release.epsilon=NaN"], "log"),
            ("run", ["release.epsilon=Infinity"], "log"),
            ("run", [], "missing"),
            ("run", [], "unsorted"),
            ("run", ["release.query.fn=indicator", "release.query.threshold=abc"], "log"),
            ("run", ["release.kind=hdcr", "release.height=1", "release.branching=2",
                     "release.start=0", "release.span=8", "release.interval=1"], "log"),
            ("run", ["release.kind=rr-dcr", "release.epsilon=0", 'release.labels=["a","b"]'],
             "answers"),
            ("account", ["release.composition=advanced", "release.delta_slack=0"], "log"),
            ("run", ["release.kind=rr-dcr", "release.epsilon=1e-14", 'release.labels=["a","b","c"]'],
             "answers"),
            ("account", ["release.kind=hdcr", "release.height=1", "release.branching=2",
                         "release.start=0", "release.span=8", "release.interval=1"], "log"),
            ("account", ['release.constraint={"kind":"at_most_k","k":1e400}'], "log"),
            ("account", ['release.constraint={"kind":"time_bounded","bound":1e400}'], "log"),
            ("generate", ['generator.constraint={"kind":"at_most_k","k":1e400}'], "log"),
            ("account", ['release.schedule={"ticks":[1e400]}'], "log"),
            ("generate", ['generator.value_range=["a","b"]'], "log"),
            ("generate", ["generator.value_range=[0,1e400]"], "log"),
            ("generate", ['generator.labels=["a","a"]'], "log"),
            ("run", ["release.query.bounds=[0,1e400]"], "log"),
            ("run", ["release.kind=rr-dcr", 'release.labels=["x","y"]'], "answers"),
            ("account", ["release.composition=advanced", "release.delta_slack=1e400"], "log"),
            ("account", ["release.epsilon=1e308"], "log"),
            ("run", [], "nan-value"),
            ("run", [], "infinite-value"),
            ("run", [], "overflowing-time"),
            ("run", ["release.kind=rr-dcr", 'release.labels=["a","b"]'], "overflowing-answer-time"),
            ("run", ["release.query.fn=table", 'release.query.table={"1": NaN}'], "log"),
            ("run", [], "time-beyond-int64"),
            *(("run", RR_DCR if "answer" in name else [], name) for name in STRICT_LOGS),
            ("account", ["release.constraint.k=2.5"], "log"),
            ("account", ['release.constraint.k="3"'], "log"),
            ("account", ['release.constraint={"kind":"time_bounded","bound":true}'], "log"),
            ("account", ['release.constraint={"kind":"hybrid","branches":'
                         '[{"kind":"at_most_k","k":2},{"kind":"time_bounded","bound":4.5}]}'],
             "log"),
            ("account", ['release.schedule={"ticks":[8,16.5]}'], "log"),
            ("account", ['release.schedule={"ticks":[8,"16"]}'], "log"),
            ("account", ["release.schedule.start=1.5"], "log"),
            ("account", ["release.schedule.interval=true"], "log"),
            ("account", ['release.schedule.count="8"'], "log"),
            ("generate", ["generator.constraint.k=2.5"], "log"),
            ("generate", ['generator.constraint.k="3"'], "log"),
            ("generate", ['generator.constraint={"kind":"time_bounded","bound":false}'], "log"),
            ("account", ["release.epsilon=0"], "log"),
            ("account", ["release.query.bounds=[5,5]"], "log"),
            ("account", ["release.query.fn=bogus"], "log"),
            ("account", ["release.kind=rr-dcr", "release.epsilon=1e-14",
                         'release.labels=["a","b","c"]'], "log"),
            ("account", ["release.kind=rr-dcr"], "log"),
            ("account", ["release.kind=rr-dcr", 'release.labels=["a","a"]'], "log"),
            ("account", [*RR_DCR, "release.epsilon=1000"], "log"),
            ("account", ["release.epsilon=1e-320"], "log"),
            ("account", ["release.query.bounds=[-1e308,1e308]"], "log"),
            ("account", ["release.kind=rr-dcr", "release.labels=[1,2]"], "log"),
            ("account", ["release.epsilon=1" + "0" * 400], "log"),
            ("run", [*RR_DCR, "release.epsilon=1000"], "answers"),
            ("run", ["release.epsilon=1e-320"], "log"),
            ("run", ["release.query.bounds=[-1e308,1e308]"], "log"),
            ("run", ['release.query.bounds=["0","100"]'], "log"),
            ("run", ["release.query.bounds=[false,true]"], "log"),
            ("run", ["release.query.fn=indicator", 'release.query.threshold="5"'], "log"),
            ("run", ["release.query.fn=table", 'release.query.table={"1":"2"}'], "log"),
            ("generate", ['generator.value_range=["0","100"]'], "log"),
            ("generate", ["generator.labels=[1,2]"], "log"),
            ("generate", ["generator.value_range=[1e307,1e308]"], "log"),
            ("run", ["seed=-1"], "log"),
            ("generate", ["seed=18446744073709551616"], "log"),
        ],
        ids=["nan-epsilon", "infinite-epsilon", "missing-log", "unsorted-log",
             "bad-threshold", "hierarchy-too-flat", "rr-zero-epsilon", "zero-delta-slack",
             "rr-singular-rule", "hierarchy-too-flat-account", "overflowing-k",
             "overflowing-bound", "overflowing-generator-k", "overflowing-tick",
             "non-numeric-value-range", "infinite-value-range", "duplicate-labels",
             "infinite-query-bounds", "unknown-answer-labels", "infinite-delta-slack",
             "overflowing-composed-epsilon", "nan-log-value", "infinite-log-value",
             "overflowing-log-time", "overflowing-answer-time", "nan-query-table",
             "time-beyond-int64", *STRICT_LOGS, "fractional-k", "string-k", "boolean-bound",
             "fractional-hybrid-bound", "fractional-tick", "string-tick", "fractional-start",
             "boolean-interval", "string-count", "fractional-generator-k", "string-generator-k",
             "boolean-generator-bound", "zero-epsilon-account", "zero-width-bounds-account",
             "unknown-query-fn-account", "rr-singular-rule-account", "rr-missing-labels-account",
             "rr-duplicate-labels-account", "rr-overflowing-epsilon-account",
             "subnormal-epsilon-account", "overflowing-bounds-width-account",
             "numeric-labels-account", "integer-epsilon-beyond-float", "rr-overflowing-epsilon",
             "subnormal-epsilon", "overflowing-bounds-width", "string-bounds", "boolean-bounds",
             "string-threshold", "string-table-value", "string-value-range",
             "numeric-generator-labels", "value-range-beyond-rounding", "negative-seed",
             "seed-beyond-64-bits"],
    )
    def test_exits_2_without_traceback(self, tmp_path, cfg, capsys, command, overrides, changelog):
        log = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--out", log)
        inputs = {"log": log, "missing": tmp_path / "absent.jsonl"}
        if changelog == "unsorted":
            inputs["unsorted"] = tmp_path / "unsorted.jsonl"
            inputs["unsorted"].write_text("".join(reversed(log.read_text().splitlines(True))))
        if changelog in BAD_LOGS:
            inputs[changelog] = tmp_path / "bad.jsonl"
            inputs[changelog].write_text(BAD_LOGS[changelog] + "\n")
        if changelog == "answers":
            inputs["answers"] = tmp_path / "answers.jsonl"
            run_cli("generate", "--config", cfg, "--set", 'generator.labels=["a","b"]',
                    "--out", inputs["answers"])
        argv = [command, "--config", cfg]
        for item in overrides:
            argv += ["--set", item]
        if command == "run":
            argv += ["--changelog", inputs[changelog]]
        if command == "generate":
            argv += ["--out", tmp_path / "generated.jsonl"]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("changelog", ["missing", "violating"])
    def test_release_is_refused_before_the_log_is_read(self, tmp_path, cfg, capsys, changelog):
        log = tmp_path / "log.jsonl"
        violating = ["--set", "release.constraint.k=1"]  # generated under at_most_k:3
        if changelog == "violating":
            run_cli("generate", "--config", cfg, "--out", log)
        argv = ["run", "--config", cfg, "--changelog", log, *violating]
        capsys.readouterr()
        assert run_cli(*argv) == (3 if changelog == "violating" else 2)
        capsys.readouterr()
        assert run_cli(*argv, "--set", "release.epsilon=0") == 2
        assert capsys.readouterr().err.startswith("config error: release: ")

    @pytest.mark.parametrize("epsilon", [1e-152, 5e-153])
    @pytest.mark.parametrize("release", ["hdcr", "swcr-from-hdcr", "swcr"])
    def test_aggregate_variance_must_be_finite(self, tmp_path, capsys, release, epsilon):
        """An aggregate reports ``node_count * 2 * scale**2``. At these epsilons
        that is not a finite float for the widest cover of a hierarchy, which
        ``account`` and ``run`` then refuse; a window release reports no
        variance and still runs."""
        overrides = {
            "hdcr": {"release.kind": "hdcr", **HIERARCHY},
            "swcr-from-hdcr": {"release.kind": "swcr", "release.from_hdcr": True,
                               "release.branching": 2, **WINDOWS},
            "swcr": {"release.kind": "swcr", **WINDOWS},
        }[release]
        cfg = write_config(tmp_path / "cfg.json", **overrides, **{"release.epsilon": epsilon})
        log = tmp_path / "log.jsonl"
        assert run_cli("generate", "--config", cfg, "--out", log) == 0
        refused = release != "swcr"
        for argv in (["account"], ["run", "--changelog", log]):
            capsys.readouterr()
            assert run_cli(argv[0], "--config", cfg, *argv[1:]) == (2 if refused else 0)
            if refused:
                assert capsys.readouterr().err.startswith("config error: release: ")

    def test_widest_cover_reads_no_layer_above_the_first_one_node_layer(self, tmp_path, capsys):
        """At epsilon 1e-151 a cover of the 4 layers this hierarchy reads has a
        finite variance. Layers above them add no node to any cover, so
        ``account`` and ``run`` accept the hierarchy at any height, and the
        run releases the rows of the 4-layer one."""
        cfg = write_config(tmp_path / "cfg.json", **{
            "release.kind": "hdcr", **HIERARCHY, "release.epsilon": 1e-151,
        })
        log = tmp_path / "log.jsonl"
        assert run_cli("generate", "--config", cfg, "--out", log) == 0
        tall = ["--set", f"release.height={10**12}"]
        assert run_cli("account", "--config", cfg, *tall) == 0
        rows = []
        for height in ([], tall):
            out = tmp_path / f"out{len(height)}.csv"
            assert run_cli("run", "--config", cfg, "--changelog", log, "--out", out, *height) == 0
            rows.append(out.read_text().splitlines()[1:])
        assert len(rows[0]) == 1 + 8 and rows[0] == rows[1]  # column names, 8 prefixes

    @pytest.mark.parametrize("where", ["log-line", "config-file", "set-value"])
    def test_deeply_nested_json_exits_2(self, tmp_path, cfg, capsys, where):
        # deep enough for the JSON parser to raise RecursionError
        deep = "[" * 100_000 + "]" * 100_000
        log = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--out", log)
        config = cfg
        overrides = []
        if where == "log-line":
            log.write_text(f'{{"entry": "e", "t": 1, "prev": null, "new": {deep}}}\n')
        if where == "config-file":
            config = tmp_path / "deep.json"
            config.write_text(deep)
        if where == "set-value":
            overrides = ["--set", f"release.epsilon={deep}"]
        capsys.readouterr()
        assert run_cli("run", "--config", config, "--changelog", log, *overrides) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command", ["generate", "run"])
    def test_output_in_missing_directory_exits_2(self, tmp_path, cfg, capsys, command):
        log = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--out", log)
        argv = [command, "--config", cfg, "--out", tmp_path / "absent" / "out.csv"]
        if command == "run":
            argv += ["--changelog", log]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--window", "8", "--period", "4", "--constraint", "at_most_k:1",
             "--branching", "1"],
            ["compare", "--window", "8", "--period", "4", "--constraint", "at_most_k:1",
             "--branching", "0"],
            ["account", *SWCR_BRANCHING_1],
            ["run", *SWCR_BRANCHING_1],
        ],
        ids=["compare-1", "compare-0", "account-swcr-from-hdcr", "run-swcr-from-hdcr"],
    )
    def test_branching_below_two_exits_2_promptly(self, tmp_path, cfg, argv):
        # a subprocess with a timeout, so that a search that never ends fails the run
        if argv[0] != "compare":
            argv = [argv[0], "--config", str(cfg), *argv[1:]]
        if argv[0] == "run":
            log = tmp_path / "log.jsonl"
            run_cli("generate", "--config", cfg, "--out", log)
            argv += ["--changelog", str(log), "--out", str(tmp_path / "out.csv")]
        env = {**os.environ, "PYTHONPATH": str(Path(dpcr.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "dpcr.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")


# the address-space limit of the allocation probes: room for the interpreter
# and numpy, far less than either probe's release asks for
PROBE_ADDRESS_SPACE = 500_000 * 1024


def _lower_address_space() -> None:
    resource.setrlimit(
        resource.RLIMIT_AS, (PROBE_ADDRESS_SPACE, resource.getrlimit(resource.RLIMIT_AS)[1])
    )


class TestAllocationFailure:
    @pytest.mark.parametrize(
        "command,overrides",
        [
            ("run", {"release.schedule.count": 100_000_000}),
            ("run", {"release.kind": "hdcr", "release.branching": 2, "release.height": 41,
                     "release.start": 0, "release.span": 10**12, "release.interval": 1}),
        ],
        ids=["run-tick-windows", "run-hierarchy-windows"],
    )
    def test_exits_2_without_traceback(self, tmp_path, command, overrides):
        """A release too large for the process's address space exits 2.

        Each probe runs in a subprocess that lowers only its own
        ``RLIMIT_AS``, so the allocation fails there and nowhere else.
        """
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        argv = [command, "--config", str(cfg)]
        if command == "run":
            log = tmp_path / "log.jsonl"
            assert run_cli("generate", "--config", cfg, "--out", log) == 0
            argv += ["--changelog", str(log), "--out", str(tmp_path / "out.csv")]
        env = {**os.environ, "PYTHONPATH": str(Path(dpcr.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "dpcr.cli", *argv],
            capture_output=True, text=True, timeout=120, env=env,
            preexec_fn=_lower_address_space,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error:")
        assert "Traceback" not in proc.stderr


# the address-space limit of the tall-hierarchy account: room for the
# interpreter and numpy, not for branching**height at 10**12 layers
ACCOUNT_ADDRESS_SPACE = 1 << 30


class TestTallHierarchyAccount:
    def test_fold_count_without_a_power_of_the_branching(self, tmp_path):
        """An at-most-4 hierarchy of 10**12 layers is accounted arithmetically.

        ``branching**height`` alone would be a 125 GB integer, so the
        subprocess, which lowers only its own ``RLIMIT_AS`` to 1 GiB,
        fails unless no code builds it.
        """
        cfg = write_config(
            tmp_path / "cfg.json",
            **{"release.kind": "hdcr", **HIERARCHY, "release.height": 10**12,
               "release.constraint": {"kind": "at_most_k", "k": 4}},
        )
        env = {**os.environ, "PYTHONPATH": str(Path(dpcr.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "dpcr.cli", "account", "--config", str(cfg)],
            capture_output=True, text=True, timeout=120, env=env,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS,
                (ACCOUNT_ADDRESS_SPACE, resource.getrlimit(resource.RLIMIT_AS)[1]),
            ),
        )
        assert proc.returncode == 0, proc.stderr
        assert "composed folds:    4000000000000\n" in proc.stdout

    @pytest.mark.parametrize(
        "constraint",
        [{"kind": "at_most_k", "k": 3}, {"kind": "time_bounded", "bound": 5}],
        ids=["at-most-k", "time-bounded"],
    )
    def test_run_values_only_the_layers_a_cover_reads(self, tmp_path, constraint):
        """``dpcr run`` on 10**12 layers finishes in a 1 GiB address space.

        Its rows are those of the 4-layer hierarchy, whose top layer is its
        first one-node layer.
        """
        cfg = write_config(tmp_path / "cfg.json", **{
            "release.kind": "hdcr", **HIERARCHY, "release.constraint": constraint,
            "generator.constraint": constraint,
        })
        log = tmp_path / "log.jsonl"
        assert run_cli("generate", "--config", cfg, "--out", log) == 0
        assert run_cli("run", "--config", cfg, "--changelog", log, "--out", tmp_path / "cut.csv") == 0
        env = {**os.environ, "PYTHONPATH": str(Path(dpcr.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "dpcr.cli", "run", "--config", str(cfg), "--changelog", str(log),
             "--out", str(tmp_path / "tall.csv"), "--set", f"release.height={10**12}"],
            capture_output=True, text=True, timeout=60, env=env,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS,
                (ACCOUNT_ADDRESS_SPACE, resource.getrlimit(resource.RLIMIT_AS)[1]),
            ),
        )
        assert proc.returncode == 0, proc.stderr
        cut, tall = ((tmp_path / name).read_text().splitlines() for name in ("cut.csv", "tall.csv"))
        assert len(tall) == 2 + 8 and tall[1:] == cut[1:]  # header, column names, 8 prefixes
        assert tall[0] != cut[0]  # the header still accounts every layer


class TestPrefixCut:
    """Layers above the first one-node layer change no prefix row."""

    @pytest.mark.parametrize("seed", [1, 2, 7919])
    @pytest.mark.parametrize("branching", [2, 3])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("kind", ["hdcr", "rr-hdcr"])
    def test_rows_do_not_depend_on_layers_above(self, tmp_path, kind, fmt, branching, seed):
        overrides = {"release.kind": kind, **HIERARCHY, "release.branching": branching,
                     "output.format": fmt, "seed": seed}
        if kind == "rr-hdcr":
            overrides.update(LABELS)
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        log = tmp_path / "log.jsonl"
        assert run_cli("generate", "--config", cfg, "--out", log) == 0
        read = len(HdcrParams(1, branching, 0, HIERARCHY["release.span"],
                              HIERARCHY["release.interval"]).widths) + 1
        rows = []
        for height in (read, read + 50):
            out = tmp_path / f"{height}.{fmt}"
            assert run_cli("run", "--config", cfg, "--changelog", log, "--out", out,
                           "--set", f"release.height={height}") == 0
            rows.append(out.read_text().splitlines()[1:])
        assert len(rows[0]) >= 8 and rows[0] == rows[1]


# compare arguments, half of them valid and half zero, one, negative,
# non-numeric, beyond the float range or empty
COMPARE_VALUES = st.sampled_from(["4", "64"]) | st.sampled_from(
    ["0", "1", "-3", "x", str(10**200), str(10**400), ""]
)
COMPARE_KINDS = st.sampled_from(["at_most_k", "time_bounded"]) | st.sampled_from(["hybrid", ""])


class TestCompareFuzz:
    @given(
        COMPARE_VALUES,
        COMPARE_VALUES,
        st.lists(COMPARE_VALUES, min_size=1, max_size=3).map(",".join),
        st.tuples(COMPARE_KINDS, st.sampled_from([":", ""]), COMPARE_VALUES).map("".join),
    )
    def test_arguments_exit_0_or_2(self, window, period, branching, constraint):
        argv = ["compare", "--window", window, "--period", period,
                "--branching", branching, "--constraint", constraint]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = run_cli(*argv)
            except SystemExit as exc:  # argparse refuses a --window or --period that is no int
                code = exc.code
        assert code in (0, 2)


FUZZ_RELEASES = {
    "dcr": {},
    "swcr": {"release.kind": "swcr", **WINDOWS},
    "swcr-from-hdcr": {"release.kind": "swcr", "release.from_hdcr": True,
                       "release.branching": 2, **WINDOWS},
    "hdcr": {"release.kind": "hdcr", **HIERARCHY},
    "rr-dcr": {"release.kind": "rr-dcr", **LABELS},
    "rr-hdcr": {"release.kind": "rr-hdcr", **HIERARCHY, **LABELS},
}
FUZZ_LEAVES = [
    "seed", "release.kind", "release.epsilon", "release.delta", "release.composition",
    "release.delta_slack", "release.constraint", "release.constraint.kind",
    "release.constraint.k", "release.constraint.bound", "release.query", "release.query.fn",
    "release.query.bounds", "release.query.threshold", "release.query.table",
    "release.schedule", "release.schedule.start", "release.schedule.interval",
    "release.schedule.count", "release.schedule.ticks", "release.window", "release.period",
    "release.first_release", "release.count", "release.from_hdcr", "release.branching",
    "release.height", "release.start", "release.span", "release.interval", "release.labels",
    "generator.entries", "generator.horizon", "generator.constraint",
    "generator.constraint.k", "generator.value_range", "generator.mutation_rate",
    "generator.labels", "output.format", "output.include_exact",
]
# JSON texts for --set: wrong types, null, NaN, +-1e400, zero, negatives,
# duplicates, labels the input does not carry, and a non-JSON word
FUZZ_VALUES = [
    '"x"', "true", "null", "[]", "{}", "NaN", "1e400", "-1e400", "0", "-1", "-2.5",
    '["a","a"]', "[0,0]", '["x","y"]', "[1e400]", "x", "1000", "1e-320", "1e-152", "5e-153",
]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small valid config and its generated input, per release kind."""
    root = tmp_path_factory.mktemp("fuzz")
    inputs = {}
    for name, overrides in FUZZ_RELEASES.items():
        cfg = write_config(
            root / f"{name}.json",
            **overrides, **{"generator.entries": 20, "output.path": str(root / f"{name}.out")},
        )
        data = root / f"{name}.jsonl"
        assert run_cli("generate", "--config", cfg, "--out", data) == 0
        inputs[name] = (cfg, data)
    return inputs


class TestConfigFuzz:
    @given(
        st.sampled_from(sorted(FUZZ_RELEASES)),
        st.sampled_from(["generate", "account", "run"]),
        st.lists(st.tuples(st.sampled_from(FUZZ_LEAVES), st.sampled_from(FUZZ_VALUES)),
                 min_size=1, max_size=3),
    )
    def test_adversarial_leaves_exit_with_a_documented_code(
        self, fuzz_inputs, release, command, overrides
    ):
        cfg, data = fuzz_inputs[release]
        argv = [command, "--config", cfg]
        for path, value in overrides:
            argv += ["--set", f"{path}={value}"]
        if command == "generate":
            argv += ["--out", data.with_suffix(".generated")]
        if command == "run":
            argv += ["--changelog", data]
        assert run_cli(*argv) in (0, 2, 3)


class TestAccountRunAgreement:
    @given(
        st.sampled_from(sorted(FUZZ_RELEASES)),
        st.lists(st.tuples(st.sampled_from([l for l in FUZZ_LEAVES if l.startswith("release.")]),
                           st.sampled_from(FUZZ_VALUES)),
                 min_size=1, max_size=3),
    )
    def test_account_refuses_what_run_refuses(self, fuzz_inputs, release, overrides):
        """Only reading the log may make ``run`` refuse a release that ``account`` accepts."""
        cfg, data = fuzz_inputs[release]
        sets = [arg for path, value in overrides for arg in ("--set", f"{path}={value}")]
        codes, errors = {}, {}
        for command, extra in (("account", []), ("run", ["--changelog", data])):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                codes[command] = run_cli(command, "--config", cfg, *sets, *extra)
            errors[command] = err.getvalue()
        if codes["account"] == 2:
            assert codes["run"] == 2, errors
        if codes["run"] == 2 and not errors["run"].startswith("config error: --changelog"):
            assert codes["account"] == 2, errors


# the fields that size a release: its window count, a window's or hierarchy's
# reach in ticks, and a hierarchy's height
SIZE_FIELDS = {
    "dcr": ["release.schedule.count"],
    "swcr": ["release.count", "release.window", "release.period"],
    "swcr-from-hdcr": ["release.count", "release.window", "release.period"],
    "hdcr": ["release.span", "release.height"],
    "rr-dcr": ["release.schedule.count"],
    "rr-hdcr": ["release.span", "release.height"],
}
# the generator fields that size a log: its entry count, its horizon in ticks
# and an entry's budget of mutations or reach in ticks
GENERATOR_SIZE_FIELDS = ["generator.entries", "generator.horizon", "generator.constraint.k",
                         "generator.constraint.bound"]
# a hierarchy of unit intervals tall enough to cover any span up to 2**80 ticks,
# so that a wide span is planned rather than refused as too flat
TALL = ["--set", "release.interval=1", "--set", "release.height=80"]


def _probe(argv: list[str]) -> subprocess.CompletedProcess:
    """``dpcr`` in a subprocess that lowers its own ``RLIMIT_AS``, under a hang guard."""
    env = {**os.environ, "PYTHONPATH": str(Path(dpcr.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "dpcr.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=_lower_address_space,
    )


class TestSizeFields:
    @pytest.mark.parametrize("command", ["account", "run"])
    @pytest.mark.parametrize("value", [10**12, 10**20], ids=["1e12", "1e20"])
    @pytest.mark.parametrize("release, field", [
        (release, field) for release, fields in SIZE_FIELDS.items() for field in fields
    ])
    def test_exits_with_a_documented_code(self, fuzz_inputs, release, field, value, command):
        """A size field at 10**12 or 10**20 is accounted, refused (more windows or grid
        units than an int64 can index) or fails on allocation; it never ends in a traceback.
        A run that fails on allocation is a resource failure, not a refusal, so these
        values stay out of ``FUZZ_VALUES``."""
        cfg, data = fuzz_inputs[release]
        tall = TALL if field in SIZE_FIELDS["hdcr"] else []
        argv = [command, "--config", cfg, *tall, "--set", f"{field}={value}"]
        if command == "run":
            argv += ["--changelog", data, "--out", data.with_suffix(f".{command}-{value}")]
        proc = _probe(argv)
        assert proc.returncode in (0, 2, 3), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", [10**12, 10**20], ids=["1e12", "1e20"])
    @pytest.mark.parametrize("field", GENERATOR_SIZE_FIELDS)
    @pytest.mark.parametrize("release", ["dcr", "rr-dcr"], ids=["changelog", "answers"])
    def test_generate_exits_0_or_2(self, fuzz_inputs, release, field, value):
        """A generator size field at 10**12 or 10**20 generates (a budget or bound past the
        horizon draws as one at the horizon), is refused (a horizon past int64) or fails on
        allocation (10**12 entries); it never ends in a traceback or a hang."""
        cfg, data = fuzz_inputs[release]
        argv = ["generate", "--config", cfg, "--out", data.with_suffix(".generated-size")]
        if field == "generator.constraint.bound":
            argv += ["--set", 'generator.constraint={"kind": "time_bounded", "bound": 1}']
        proc = _probe([*argv, "--set", f"{field}={value}"])
        assert proc.returncode in (0, 2), proc.stderr
        assert "Traceback" not in proc.stderr
        if proc.returncode == 2:
            assert proc.stderr.startswith(("config error: generator.", "config error: generate "))

    @pytest.mark.parametrize("release", ["dcr", "rr-dcr"])
    def test_account_counts_a_uniform_schedule_without_its_ticks(self, fuzz_inputs, release):
        cfg, _ = fuzz_inputs[release]
        folds = []
        for count in (512, 10**12):
            proc = _probe(["account", "--config", cfg, "--set", f"release.schedule.count={count}",
                           "--set", 'release.constraint={"kind":"time_bounded","bound":20}'])
            assert proc.returncode == 0, proc.stderr
            folds += [line for line in proc.stdout.splitlines()
                      if line.startswith("composed folds:")]
        # ceil(20 / 8) + 1 ranges at interval 8, far fewer than either count
        assert folds[0] == folds[1] == f"composed folds:    {(4 if release == 'dcr' else 8)}"


# JSON texts for input-log fields: a valid pool, and an adversarial pool of
# wrong types, non-finite and overflowing numbers, negative times and labels
# the release does not declare (None leaves the key out).
LOG_FIELDS = {
    "entry": (['"e1"', '"e2"'], ["7", "null", None]),
    "t": (["0", "3", "9", "17"],
          ["-3", "1.5", "3.0", '"3"', "NaN", "Infinity", "-Infinity", "1e400", "true", "null",
           "9223372036854775808", None]),
    "prev": (["null", "1.5"], ["0", "NaN", "Infinity", "-Infinity", "1e400", '"x"', None]),
    "new": (["1.5", "100", "null"], ["NaN", "-Infinity", "1e400", "true", None]),
    "answer": (['"yes"', '"no"', "null"], ['"maybe"', "3", None]),
}
LOG_KEYS = {"dcr": ("entry", "t", "prev", "new"), "rr-dcr": ("entry", "t", "answer")}


@st.composite
def log_lines(draw, release: str) -> str:
    """1-6 records, each valid or with one adversarial field.

    The small valid pools give duplicate ``(entry, t)`` pairs, out-of-order
    lines and ``prev`` mismatches.
    """
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        keys = LOG_KEYS[release]
        corrupt = draw(st.sampled_from((None, None) + keys))
        fields = [(k, draw(st.sampled_from(LOG_FIELDS[k][k == corrupt]))) for k in keys]
        lines.append("{" + ", ".join(f'"{k}": {v}' for k, v in fields if v is not None) + "}")
    return "".join(line + "\n" for line in lines)


class TestLogFuzz:
    @given(st.sampled_from(sorted(LOG_KEYS)).flatmap(
        lambda release: st.tuples(st.just(release), log_lines(release))
    ))
    def test_adversarial_logs_exit_with_a_documented_code(self, fuzz_inputs, drawn):
        release, text = drawn
        cfg, data = fuzz_inputs[release]
        log = data.with_suffix(".fuzz")
        log.write_text(text)
        out = data.with_suffix(".fuzz-out")
        code = run_cli("run", "--config", cfg, "--changelog", log, "--out", out)
        assert code in (0, 2, 3)
        if code == 0:
            rows = csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#"))
            released = [float(v) for row in rows for k, v in row.items()
                        if k == "noisy" or k.startswith(("vhat_", "var_"))]
            assert released and all(math.isfinite(v) for v in released)


class TestVerify:
    def test_clean_build_passes(self, capsys):
        assert run_cli("verify", "--trials", 300) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_negative_seed_exits_2(self, capsys):
        assert run_cli("verify", "--trials", 300, "--seed", -1) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "Traceback" not in err

    def test_injected_fault_exits_4(self, capsys):
        assert run_cli("verify", "--trials", 300, "--inject-fault", "cover-off-by-one") == 4
        assert "FAIL" in capsys.readouterr().out
