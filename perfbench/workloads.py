"""The four benchmark workloads: dpcr configs, input sizes and output checks.

Every check here is independent of ``dpcr``: inputs and outputs are
parsed with the standard library and references are rebuilt with numpy,
so a defect in the program cannot hide in its own checker.

Why these workloads (each stresses a different layer):

- ``dcr-bulk``: the log-heavy case. Ingest and the per-query scan of the
  whole log dominate; per-node noise and covers do almost nothing.
- ``hdcr-deep``: the node-heavy case. Stream set-up, Laplace draws,
  covers, aggregates and row serialization are paid once per node.
- ``rr-hdcr-survey``: the local-DP path. It bypasses the changelog and
  Laplace layers; rule inversion and per-entry net mutations dominate.
- ``verify-suite``: tens of thousands of calls on tiny inputs, so any
  per-call set-up added to win on large inputs shows here.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import re
from dataclasses import dataclass

import numpy as np

# Standard normal quantile used to bound each randomized-response estimate
# of the timed run by its standard deviation. 208 estimates per run put the
# chance of a false alarm near 1e-6 if the estimates are close to normal.
# At epsilon 1 that deviation is in the thousands, so this only catches
# gross errors; the RR_CHECK_EPSILON run below does the exact check.
RR_Z = 6.0
# Epsilon of the untimed randomized-response check run. The optimal rule
# then keeps the true cell with probability 1 - 7e-11, so every estimate
# must equal the true histogram change to within RR_CHECK_ATOL.
RR_CHECK_EPSILON = 30.0
RR_CHECK_ATOL = 0.5
# Relative tolerance of an exact column against the numpy reference,
# scaled by the sum of absolute per-mutation terms in the window.
EXACT_RTOL = 1e-9
# ``dpcr verify`` ran 22 checks at the commit that defined this benchmark;
# a later change may add checks but never drop one.
VERIFY_MIN_CHECKS = 22


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "verify"
    generator: dict | None = None
    release: dict | None = None
    output_format: str = "csv"

    def config(self, seed: int) -> dict:
        return {
            "seed": seed,
            "generator": self.generator,
            "release": self.release,
            "output": {"format": self.output_format, "include_exact": False},
        }


LABELS = [chr(ord("a") + i) for i in range(26)]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dcr-bulk", "run",
            generator={
                "entries": 6000, "horizon": 4096,
                "constraint": {"kind": "hybrid", "branches": [
                    {"kind": "at_most_k", "k": 5}, {"kind": "time_bounded", "bound": 64}]},
                "value_range": [0.0, 100.0], "mutation_rate": 0.5,
            },
            release={
                "kind": "dcr", "epsilon": 1.0, "delta": 0.0,
                "constraint": {"kind": "hybrid", "branches": [
                    {"kind": "at_most_k", "k": 5}, {"kind": "time_bounded", "bound": 64}]},
                "query": {"fn": "identity", "bounds": [0, 100]},
                "schedule": {"start": 8, "interval": 8, "count": 512},
            },
            output_format="csv",
        ),
        Workload(
            "hdcr-deep", "run",
            generator={
                "entries": 500, "horizon": 4096,
                "constraint": {"kind": "time_bounded", "bound": 32},
                "value_range": [0.0, 100.0], "mutation_rate": 0.5,
            },
            release={
                "kind": "hdcr", "epsilon": 1.0, "delta": 0.0,
                "constraint": {"kind": "time_bounded", "bound": 32},
                "query": {"fn": "identity", "bounds": [0, 100]},
                "branching": 2, "height": 13, "start": 0, "span": 4096, "interval": 1,
            },
            output_format="jsonl",
        ),
        Workload(
            "rr-hdcr-survey", "run",
            generator={
                "entries": 4000, "horizon": 256,
                "constraint": {"kind": "at_most_k", "k": 4},
                "mutation_rate": 0.5, "labels": LABELS,
            },
            release={
                "kind": "rr-hdcr", "epsilon": 1.0, "delta": 0.0,
                "constraint": {"kind": "at_most_k", "k": 4},
                "labels": LABELS,
                "branching": 2, "height": 4, "start": 0, "span": 256, "interval": 32,
            },
            output_format="csv",
        ),
        Workload("verify-suite", "verify"),
    )
}

VERIFY_TRIALS = 10_000


def hdcr_nodes(release: dict) -> int:
    c, h, span, dt = release["branching"], release["height"], release["span"], release["interval"]
    return sum(-(-span // (c**layer * dt)) for layer in range(h))


def hdcr_grid_ends(release: dict) -> list[int]:
    start, span, dt = release["start"], release["span"], release["interval"]
    grid = -(-span // dt)
    return [min(start + j * dt, start + span) for j in range(1, grid + 1)]


def dcr_windows(release: dict) -> list[tuple[float, int]]:
    s = release["schedule"]
    ticks = [s["start"] + s["interval"] * i for i in range(s["count"])]
    return list(zip([-math.inf] + ticks[:-1], ticks))


# -- reading inputs ---------------------------------------------------------

def read_changelog(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Times, previous and new values (NaN for null), and distinct entries."""
    times, prev, new, entries = [], [], [], set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            times.append(rec["t"])
            prev.append(math.nan if rec["prev"] is None else rec["prev"])
            new.append(math.nan if rec["new"] is None else rec["new"])
            entries.add(rec["entry"])
    return (np.asarray(times, dtype=np.int64), np.asarray(prev, dtype=float),
            np.asarray(new, dtype=float), len(entries))


def read_answer_log(path: str) -> tuple[dict[str, list[tuple[int, str | None]]], int]:
    timelines: dict[str, list[tuple[int, str | None]]] = {}
    records = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            timelines.setdefault(rec["entry"], []).append((rec["t"], rec["answer"]))
            records += 1
    for timeline in timelines.values():
        timeline.sort(key=lambda r: r[0])
    return timelines, records


def input_sizes(workload: Workload, path: str) -> dict[str, int]:
    if workload.release["kind"] == "rr-hdcr":
        timelines, records = read_answer_log(path)
        labels = len(workload.release["labels"])
        return {"answer_records": records, "entries": len(timelines),
                "nodes": hdcr_nodes(workload.release), "labels": labels,
                "rule_size": (labels + 1) ** 2}
    times, _, _, entries = read_changelog(path)
    sizes = {"mutations": int(times.size), "entries": entries}
    if workload.release["kind"] == "dcr":
        sizes["queries"] = workload.release["schedule"]["count"]
    else:
        sizes["nodes"] = hdcr_nodes(workload.release)
    return sizes


# -- reading outputs --------------------------------------------------------

def read_release(path: str, fmt: str) -> tuple[dict, list[dict]]:
    """Header object and data rows of a ``dpcr run`` output file."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if fmt == "jsonl":
            header = json.loads(first)
            rows = [json.loads(line) for line in fh]
        else:
            if not first.startswith("# "):
                raise ValueError("CSV output does not start with a '# ' header line")
            header = json.loads(first[2:])
            rows = list(csv.DictReader(fh))
    return header, rows


def header_problems(header: dict, seed: int, fmt: str) -> list[str]:
    """The released header carries seed, input and privacy, and nothing else."""
    allowed = {"seed", "input", "privacy"} | ({"type"} if fmt == "jsonl" else set())
    problems = []
    extra = set(header) - allowed
    if extra:
        problems.append(f"header has keys beyond seed, input, privacy: {sorted(extra)}")
    missing = {"seed", "input", "privacy"} - set(header)
    if missing:
        problems.append(f"header lacks {sorted(missing)}")
    if header.get("seed") != seed:
        problems.append(f"header seed {header.get('seed')!r} != workload seed {seed}")
    return problems


def _identity_clamped(values: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """The identity query's per-value function: clamped value, 0 for null (NaN)."""
    out = np.clip(values, lower, upper)
    return np.where(np.isnan(values), 0.0, out)


def _window_reference(
    times: np.ndarray, terms: np.ndarray, windows: list[tuple[float, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window exact change and the sum of absolute terms (the error scale)."""
    exact = np.empty(len(windows))
    scale = np.empty(len(windows))
    for i, (start, end) in enumerate(windows):
        lo = 0 if start == -math.inf else int(np.searchsorted(times, start, side="right"))
        hi = int(np.searchsorted(times, end, side="right"))
        exact[i] = terms[lo:hi].sum()
        scale[i] = np.abs(terms[lo:hi]).sum()
    return exact, scale


def release_problems(
    workload: Workload, seed: int, input_path: str, checked_path: str, timed_path: str,
    rr_exact_path: str | None = None,
) -> list[str]:
    """Check one ``dpcr run`` output against references built from the input.

    ``checked_path`` was written with ``output.include_exact=true``;
    ``timed_path`` is the last timed run's output, whose noisy values must
    be identical to the checked run's. On rr-hdcr, ``rr_exact_path`` was
    written with ``release.epsilon`` set to RR_CHECK_EPSILON.
    """
    fmt = workload.output_format
    header, rows = read_release(checked_path, fmt)
    problems = header_problems(header, seed, fmt)
    timed_header, timed_rows = read_release(timed_path, fmt)
    problems += header_problems(timed_header, seed, fmt)
    if workload.release["kind"] == "rr-hdcr":
        if rows != timed_rows:
            problems.append("rr output differs between the timed and the checked run")
        _, exact_rows = read_release(rr_exact_path, fmt)
        return (problems + rr_problems(workload, input_path, exact_rows, exact=True)
                + rr_problems(workload, input_path, timed_rows, exact=False))

    release = workload.release
    if release["kind"] == "dcr":
        windows = dcr_windows(release)
    else:
        windows = [(release["start"], end) for end in hdcr_grid_ends(release)]
    if len(rows) != len(windows) or len(timed_rows) != len(windows):
        return problems + [f"expected {len(windows)} rows, got {len(rows)} and {len(timed_rows)}"]
    noisy = [float(r["noisy"]) for r in rows]
    if noisy != [float(r["noisy"]) for r in timed_rows]:
        problems.append("noisy column differs between the timed and the checked run")

    times, prev, new, _ = read_changelog(input_path)
    lower, upper = (float(b) for b in release["query"]["bounds"])
    terms = _identity_clamped(new, lower, upper) - _identity_clamped(prev, lower, upper)
    ref, scale = _window_reference(times, terms, windows)
    exact = np.array([float(r["exact"]) for r in rows])
    worst = np.abs(exact - ref) - EXACT_RTOL * np.maximum(scale, 1.0)
    if np.any(worst > 0):
        i = int(np.argmax(worst))
        problems.append(f"exact row {i}: dpcr {exact[i]!r}, reference {ref[i]!r}")

    for i, (row, (start, end)) in enumerate(zip(rows, windows)):
        row_start = row["t_start"]
        expected_start = None if start == -math.inf else int(start)
        if fmt == "csv":
            expected_start = "-inf" if expected_start is None else str(expected_start)
            row_end = int(row["t_end"])
        else:
            row_end = row["t_end"]
        if row_start != expected_start or row_end != end:
            problems.append(f"row {i} covers ({row_start}, {row_end}], expected ({start}, {end}]")
            break
    if release["kind"] == "hdcr":
        b2 = ((upper - lower) / release["epsilon"]) ** 2
        cover_max = 2 * (release["branching"] - 1) * release["height"]
        for i, row in enumerate(rows):
            count = row["node_count"]
            if not 1 <= count <= cover_max:
                problems.append(f"row {i}: node_count {count} outside [1, {cover_max}]")
                break
            if not math.isclose(row["variance"], count * 2 * b2, rel_tol=1e-12):
                problems.append(f"row {i}: variance {row['variance']} != {count} * 2b^2")
                break
    return problems


def rr_problems(workload: Workload, input_path: str, rows: list[dict], exact: bool) -> list[str]:
    """Each estimate against the true histogram change since ``start``.

    With ``exact`` (the RR_CHECK_EPSILON run) every estimate must be within
    RR_CHECK_ATOL of the truth. Otherwise it must be within RR_Z standard
    deviations: dpcr reports ``var_<label>`` as
    ``(1/n) A (diag(o) - o o^T) A^T``, the variance of the estimate divided
    by the entry count ``n`` (every entry answers in every node); the
    estimates are counts, so their standard deviation is ``n * sqrt(var)``.
    """
    release = workload.release
    labels = release["labels"]
    ends = hdcr_grid_ends(release)
    if len(rows) != len(ends):
        return [f"rr output has {len(rows)} rows, expected {len(ends)}"]
    timelines, _ = read_answer_log(input_path)
    n = len(timelines)
    index = {label: i for i, label in enumerate(labels)}

    def histogram(t: int) -> np.ndarray:
        hist = np.zeros(len(labels))
        for timeline in timelines.values():
            pos = bisect.bisect_right(timeline, t, key=lambda r: r[0])
            if pos and timeline[pos - 1][1] is not None:
                hist[index[timeline[pos - 1][1]]] += 1
        return hist

    base = histogram(release["start"])
    for row, end in zip(rows, ends):
        if int(row["t"]) != end:
            return [f"rr row at t={row['t']}, expected {end}"]
        truth = histogram(end) - base
        est = np.array([float(row[f"vhat_{label}"]) for label in labels])
        if exact:
            allowed = np.full(len(labels), RR_CHECK_ATOL)
        else:
            allowed = RR_Z * n * np.sqrt(np.array([float(row[f"var_{label}"]) for label in labels]))
        excess = np.abs(est - truth) - allowed
        if not np.all(excess <= 1e-9):  # a NaN estimate fails too
            i = int(np.argmax(excess))
            kind = f"epsilon {RR_CHECK_EPSILON:g}" if exact else f"within {RR_Z:g} sd"
            return [f"t={end} label {labels[i]} ({kind}): estimate {est[i]:.6g}, "
                    f"truth {truth[i]:.0f}, allowed error {allowed[i]:.6g}"]
    return []


def verify_problems(exit_code: int, stdout: str) -> list[str]:
    match = re.search(r"(\d+)/(\d+) oracle checks passed", stdout)
    if exit_code != 0:
        return [f"dpcr verify exited with {exit_code}"]
    if match is None:
        return ["dpcr verify printed no summary line"]
    passed, total = int(match.group(1)), int(match.group(2))
    if passed != total or total < VERIFY_MIN_CHECKS:
        return [f"dpcr verify passed {passed}/{total}, expected all of >= {VERIFY_MIN_CHECKS}"]
    return []


def output_rows(path: str, fmt: str) -> int:
    """Data rows of a release file: CSV has a column-name line after the header."""
    with open(path, encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    return lines - (2 if fmt == "csv" else 1)
