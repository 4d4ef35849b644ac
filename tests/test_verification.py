from bisect import bisect_left

import numpy as np
import pytest

from dpcr import accounting, verification
from dpcr.accounting import HdcrParams, ReleaseSchedule, SwcrParams
from dpcr.changelog import Changelog
from dpcr.oracles import FAR_PAST
from dpcr.verification import (
    CHUNK,
    _cover_bound,
    _draw_schedules,
    check_dominance,
    format_reports,
    run_all,
)


def test_suite_passes_on_clean_build():
    reports = run_all(trials=1000, seed=5)
    failed = [r for r in reports if not r.passed]
    assert not failed, format_reports(failed)


def test_injected_cover_fault_is_caught():
    reports = run_all(trials=1000, seed=5, fault="cover-off-by-one")
    names = {r.name for r in reports if not r.passed}
    assert "cover-reference-case" in names


def test_window_bound_fault_is_caught(monkeypatch):
    """Windows that read ``start <= t < end`` instead of ``start < t <= end``.

    The snapshot and exact-part oracles select their mutations by time
    themselves, so a fault in the releases' window slices shows.
    """

    def shifted_ranks(self, bounds):
        ticks = self.times.tolist()
        return np.array([bisect_left(ticks, b) for b in bounds], dtype=np.int64)

    monkeypatch.setattr(Changelog, "ranks", shifted_ranks)
    reports = run_all(trials=1000, seed=5)
    names = {r.name for r in reports if not r.passed}
    assert {"dcr-cumulative-vs-snapshot", "aggregate-exact-part"} <= names


def test_report_table_lists_every_check():
    reports = run_all(trials=1000, seed=5)
    table = format_reports(reports)
    assert len(table.splitlines()) == len(reports)
    assert all(line.startswith(("PASS", "FAIL")) for line in table.splitlines())
    # one seed gives one table, and no check is dropped
    assert format_reports(run_all(trials=1000, seed=5)) == table
    assert len(reports) >= 22
    names = {r.name for r in reports}
    assert "hdcr-dominance" in names and "affected-count-agreement" not in names


def test_cover_bound_counts_levels_in_integers():
    # log(125) / log(5) is 3.0000000000000004 in floating point
    assert _cover_bound(5, 125) == 24
    assert _cover_bound(6, 216) == 30
    assert _cover_bound(5, 126) == 32
    assert _cover_bound(2, 1) == 1


def _early(windows):
    """A ``(starts, ends)`` pair whose every window starts one tick earlier."""
    starts, ends = windows
    return [start - 1 for start in starts], ends


DOMINANCE_MUTANTS = {
    "dcr-folds-one-less": (verification, "dcr_folds", lambda f: lambda *a: f(*a) - 1, "dcr-dominance"),
    "swcr-folds-one-less": (verification, "swcr_folds", lambda f: lambda *a: f(*a) - 1, "swcr-dominance"),
    "hdcr-folds-one-less": (verification, "hdcr_folds", lambda f: lambda *a: f(*a) - 1, "hdcr-dominance"),
    # the closed form of uniform schedules only; explicit ticks keep span_folds
    "dcr-uniform-closed-form-one-less": (
        accounting, "uniform_span_folds", lambda f: lambda *a: f(*a) - 1, "dcr-dominance",
    ),
    "dcr-windows-one-tick-early": (
        ReleaseSchedule, "windows", lambda f: lambda self: _early(f(self)), "dcr-dominance",
    ),
    "swcr-windows-one-tick-early": (
        SwcrParams, "windows", lambda f: lambda self: _early(f(self)), "swcr-dominance",
    ),
    "hdcr-nodes-one-tick-early": (
        HdcrParams, "windows", lambda f: lambda self, layer: _early(f(self, layer)), "hdcr-dominance",
    ),
    # overlapping nodes in some hierarchies only
    "hdcr-nodes-one-tick-early-at-branching-3": (
        HdcrParams, "windows",
        lambda f: lambda self, layer: (
            _early(f(self, layer)) if self.branching == 3 else f(self, layer)
        ),
        "hdcr-dominance",
    ),
}


@pytest.mark.parametrize("mutant", DOMINANCE_MUTANTS)
def test_dominance_fault_is_caught(monkeypatch, mutant):
    """Fold counts one too low, and windows that open one tick early.

    The dominance checks count over the release's own windows, so a
    widened window shows as well as an undercount.
    """
    owner, name, wrap, report = DOMINANCE_MUTANTS[mutant]
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    failed = {r.name for r in check_dominance(1000, 5) if not r.passed}
    assert report in failed


def test_one_chunk_draws_every_documented_case():
    s = _draw_schedules(np.random.default_rng(5), CHUNK)
    rows = np.arange(CHUNK)
    endpoint = np.arange(s.ticks.shape[1]) < s.count[:, None]
    gaps_equal = (np.diff(s.ticks, axis=1) == s.interval[:, None]) | ~endpoint[:, 1:]
    uniform = gaps_equal.all(axis=1)
    assert uniform[s.count >= 3].any() and not uniform.all()
    # the rows marked uniform, built by ReleaseSchedule.uniform, are uniform
    assert uniform[s.uniform].all() and s.uniform[s.count >= 3].any()
    assert (s.count == 1).any()
    on_tick = ((s.ticks == s.insertion[:, None]) & endpoint).any(axis=1)
    assert on_tick.any() and not on_tick.all()
    e = s.entries
    assert e.at_most_k.any() and not e.at_most_k.all()
    span = s.ticks[rows, s.count - 1] - s.start
    assert (~e.at_most_k & (e.bound > span)).any()
    # every entry meets its constraint and starts at the insertion
    for row in rows:
        times = set(e.times[row].tolist()) - {FAR_PAST}
        assert min(times) >= s.insertion[row]
        if e.at_most_k[row]:
            assert len(times) <= e.k[row]
        else:
            assert min(times) == s.insertion[row] and max(times) == s.insertion[row] + e.bound[row]
