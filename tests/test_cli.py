import json
from pathlib import Path

import pytest

from dpcr.changelog import AtMostK, load_changelog, validate_constraint
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
        assert all(validate_constraint(log, AtMostK(3)).values())

    def test_same_seed_gives_identical_bytes(self, tmp_path, cfg):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("generate", "--config", cfg, "--out", a)
        run_cli("generate", "--config", cfg, "--out", b)
        assert a.read_bytes() == b.read_bytes()
        run_cli("generate", "--config", cfg, "--out", b, "--seed", "43")
        assert a.read_bytes() != b.read_bytes()

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
        assert "epsilon=0.2" in out  # zero-bound branch still spans two ranges

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
        ],
        ids=["nan-epsilon", "infinite-epsilon", "missing-log", "unsorted-log",
             "bad-threshold", "hierarchy-too-flat", "rr-zero-epsilon", "zero-delta-slack",
             "rr-singular-rule", "hierarchy-too-flat-account"],
    )
    def test_exits_2_without_traceback(self, tmp_path, cfg, capsys, command, overrides, changelog):
        log = tmp_path / "log.jsonl"
        run_cli("generate", "--config", cfg, "--out", log)
        inputs = {"log": log, "missing": tmp_path / "absent.jsonl"}
        if changelog == "unsorted":
            inputs["unsorted"] = tmp_path / "unsorted.jsonl"
            inputs["unsorted"].write_text("".join(reversed(log.read_text().splitlines(True))))
        if changelog == "answers":
            inputs["answers"] = tmp_path / "answers.jsonl"
            run_cli("generate", "--config", cfg, "--set", 'generator.labels=["a","b"]',
                    "--out", inputs["answers"])
        argv = [command, "--config", cfg]
        for item in overrides:
            argv += ["--set", item]
        if command == "run":
            argv += ["--changelog", inputs[changelog]]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("config error:")


class TestVerify:
    def test_clean_build_passes(self, capsys):
        assert run_cli("verify", "--trials", 300) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_injected_fault_exits_4(self, capsys):
        assert run_cli("verify", "--trials", 300, "--inject-fault", "cover-off-by-one") == 4
        assert "FAIL" in capsys.readouterr().out
