import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

import dpcr
from dpcr.changelog import AtMostK, dump_changelog, load_changelog, validate_constraint
from dpcr.randomized_response import ResponseSpace, dump_answer_log, load_answer_log
from dpcr.cli import main


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
        (None, "34d37a17aaafdf602b6a1536da32a07ffd1378724a7c38560239f429e96c8ab2"),
        (["yes", "no", "maybe"], "d6d22ff043b0345a5e14cab376f546d233236376433dbc759014623d8ebcd04a"),
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
        for eid in log.entry_ids():
            chain = log.for_entry(eid)
            assert chain[-1].time - chain[0].time <= 5


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
        ],
        ids=["nan-epsilon", "infinite-epsilon", "missing-log", "unsorted-log",
             "bad-threshold", "hierarchy-too-flat", "rr-zero-epsilon", "zero-delta-slack",
             "rr-singular-rule", "hierarchy-too-flat-account", "overflowing-k",
             "overflowing-bound", "overflowing-generator-k", "overflowing-tick",
             "non-numeric-value-range", "infinite-value-range", "duplicate-labels",
             "infinite-query-bounds", "unknown-answer-labels", "infinite-delta-slack",
             "overflowing-composed-epsilon", "nan-log-value", "infinite-log-value",
             "overflowing-log-time", "overflowing-answer-time", "nan-query-table",
             "time-beyond-int64", *STRICT_LOGS],
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
    '["a","a"]', "[0,0]", '["x","y"]', "[1e400]", "x",
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
