from bisect import bisect_left

from dpcr.changelog import Changelog
from dpcr.verification import format_reports, run_all


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

    def shifted_rows(self, windows):
        ticks = memoryview(self.times)
        return [slice(bisect_left(ticks, w.start), bisect_left(ticks, w.end)) for w in windows]

    monkeypatch.setattr(Changelog, "rows", shifted_rows)
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
