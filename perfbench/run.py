"""Run one dpcr benchmark workload and print its metrics as JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dcr-bulk --seed 1 --seconds 24 --trace 0

The workload runs in this one process with a single caller in a closed
loop: the next ``dpcr`` call starts only after the previous one returns.
``dpcr`` is driven in-process through ``dpcr.cli.main([...])`` and sees
only the generated config and input files. BLAS is pinned to one thread.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

- ``setup_s``: seconds from process start until the inputs are ready:
  import of dpcr plus ``dpcr generate`` of the workload input (import
  only on verify-suite). Each sample is a cold set-up in a fresh
  ``cold_setup.py`` process; the value is the median of COLD_SETUPS;
- ``run_s``: median wall seconds of one timed call: ``dpcr run`` on the
  release workloads, after the untimed check runs have warmed them up,
  and ``dpcr verify`` on verify-suite;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` untraced calls alternate with calls that have every
dpcr layer wrapped by ``tracing.Tracer``, and the line carries the
per-layer metrics.
The line before it is the full result record (input sizes, repetition
counts, environment); the same record is written under ``perfbench/work``.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    RR_CHECK_EPSILON,
    VERIFY_TRIALS,
    WORKLOADS,
    input_sizes,
    output_rows,
    release_problems,
    verify_problems,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

DEFAULT_SEED = 1
# Seed reserved for the hold-out check of a claimed gain: never use it
# while writing the change the claim is about.
HOLDOUT_SEED = 7919
DEFAULT_SECONDS = 24.0
COLD_SETUPS = 3
MIN_TIMED_REPS = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dpcr" / "__init__.py").is_file():
        print(f"error: no dpcr sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dpcr
    import dpcr.cli
    if Path(dpcr.__file__).resolve().parent != SRC / "dpcr":
        print(f"error: imported dpcr from {dpcr.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        record = bench.run()
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    WORK.mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in record["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    for key, metric in record["metrics"].items():
        print(f"{args.workload:>15}  {key:<44} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


class Bench:
    """One workload, one seed: set up, warm up with the check runs, time, check.

    Every ``dpcr`` call is one attempted operation. An operation fails on
    a non-zero exit, an exception, or a failed output check; the output
    checks after the timed loop count as one operation's failure.
    """

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        # Fixed width: the path is in the release header, whose size must repeat.
        self.dir = WORK / f"run-{workload.name}-{seed}-{os.getpid():07d}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sizes: dict = {}
        ext = workload.output_format
        self.config = self.dir / "config.json"
        self.input = self.dir / "input.jsonl"
        self.out = self.dir / f"out.{ext}"
        self.out_checked = self.dir / f"checked.{ext}"
        self.out_rr_exact = self.dir / f"rr-exact.{ext}"

    def _fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += problems

    def _call(self, argv: list[str]) -> tuple[int, str]:
        """One in-process ``dpcr`` call; a raised exception is exit code 1."""
        import dpcr.cli

        self.attempted += 1
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = dpcr.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        return code, stdout.getvalue()

    def _timed_argv(self, out: Path) -> list[str]:
        if self.workload.command == "verify":
            return ["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(self.seed)]
        return ["run", "--config", str(self.config), "--changelog", str(self.input),
                "--out", str(out)]

    def _timed_op(self) -> float:
        """One timed call, then the checks cheap enough to repeat on every call."""
        argv = self._timed_argv(self.out)
        gc.collect()
        start = time.perf_counter()
        code, stdout = self._call(argv)
        elapsed = time.perf_counter() - start
        if self.workload.command == "verify":
            found = verify_problems(code, stdout)
            sizes = {"checks_line": stdout.splitlines()[-1] if stdout else "",
                     "stdout_bytes": len(stdout.encode())}
        elif code != 0:
            found, sizes = [f"dpcr run exited with {code}"], {}
        else:
            found = []
            sizes = {"rows": output_rows(str(self.out), self.workload.output_format),
                     "bytes": self.out.stat().st_size}
        if not found and self.sizes.setdefault("output", sizes) != sizes:
            found = [f"output sizes {sizes} differ from {self.sizes['output']} within one run"]
        self._fail(found)
        return elapsed

    def _loop(self, seconds: float, op=None, min_reps: int = MIN_TIMED_REPS) -> list[float]:
        """Closed loop: ``op`` (one timed call) back to back for about ``seconds``.

        An op starts only if a median-length op still ends inside the
        window, so a run lasts ``seconds`` rather than up to one op more.
        """
        op = op or self._timed_op
        times: list[float] = []
        deadline = time.perf_counter() + seconds
        while (len(times) < min_reps
               or time.perf_counter() + statistics.median(times) <= deadline):
            times.append(op())
        return times

    def _setup(self) -> list[float]:
        """COLD_SETUPS cold set-ups, each in a fresh process; all must write the same input."""
        self.dir.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(BENCH / "cold_setup.py"), str(SRC)]
        if self.workload.command == "run":
            self.config.write_text(json.dumps(self.workload.config(self.seed)), encoding="utf-8")
            argv += [str(self.config), str(self.input)]
        samples, digests = [], set()
        for _ in range(COLD_SETUPS):
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                raise RuntimeError(f"cold set-up exited with {proc.returncode}: {proc.stderr}")
            samples.append(float(proc.stdout.split()[-1]))
            if self.workload.command == "run":
                digests.add(hashlib.sha256(self.input.read_bytes()).hexdigest())
        if len(digests) > 1:
            self._fail(["dpcr generate wrote different inputs for one seed"])
        return samples

    def _checked_run(self) -> bool:
        """The untimed check runs; they double as the warm-up calls.

        One writes the exact column (``output.include_exact=true``). On
        rr-hdcr a second one runs at ``release.epsilon=RR_CHECK_EPSILON``,
        where the estimates must equal the true changes.
        """
        runs = [(self.out_checked, "output.include_exact=true")]
        if self.workload.release["kind"] == "rr-hdcr":
            runs.append((self.out_rr_exact, f"release.epsilon={RR_CHECK_EPSILON!r}"))
        ok = True
        for out, setting in runs:
            code, _ = self._call(self._timed_argv(out) + ["--set", setting])
            if code != 0:
                self._fail([f"dpcr run with --set {setting} exited with {code}"])
                ok = False
        return ok

    def _check_outputs(self) -> None:
        """The include-exact output against the references and the timed output."""
        try:
            found = release_problems(self.workload, self.seed, str(self.input),
                                     str(self.out_checked), str(self.out),
                                     str(self.out_rr_exact))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found = [f"output could not be checked: {exc!r}"]
        self._fail(found)

    def run(self) -> dict:
        setup = self._setup()
        checked = False
        if self.workload.command == "run":
            self.sizes["input"] = input_sizes(self.workload, str(self.input))
            checked = self._checked_run()
        record: dict = {"workload": self.workload.name, "seed": self.seed,
                        "default_seed": DEFAULT_SEED, "holdout_seed": HOLDOUT_SEED,
                        "trace": int(self.trace), "seconds": self.seconds}
        if self.trace:
            record.update(self._traced())
        else:
            times = self._loop(self.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            record.update({
                "repetitions": len(times),
                "run_s_samples": times,
                "setup_s_samples": setup,
                "metrics": {
                    "setup_s": {"value": statistics.median(setup), "unit": "s"},
                    "run_s": {"value": statistics.median(times), "unit": "s"},
                    "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
                },
            })
        if checked:
            self._check_outputs()
        self._check_sizes_repeat()
        record.update({
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_ratio": self.failed / self.attempted,
            "problems": self.problems,
            "sizes": self.sizes,
            "environment": environment(),
        })
        return record

    def _traced(self) -> dict:
        """Untraced and traced calls in alternation; per-layer values per traced call.

        Alternating lets both medians of ``trace.overhead_ratio`` see the
        same phase of the machine.
        """
        tracer = Tracer()
        untraced: list[float] = []
        traced: list[float] = []

        def pair() -> float:
            untraced.append(self._timed_op())
            tracer.install()
            try:
                traced.append(self._timed_op())
            finally:
                tracer.uninstall()
            return untraced[-1] + traced[-1]

        self._loop(self.seconds, pair, min_reps=1)
        WORK.mkdir(exist_ok=True)
        tracer.write_spans(WORK / f"spans-{self.workload.name}.csv")
        overhead = statistics.median(traced) / statistics.median(untraced)
        output_bytes = self.out.stat().st_size if self.workload.command == "run" else 0
        values = tracer.metrics(len(traced), output_bytes, overhead)
        return {
            "repetitions": len(untraced),
            "traced_repetitions": len(traced),
            "run_s_samples": untraced,
            "traced_s_samples": traced,
            "functions": tracer.function_table(len(traced)),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
        }

    def _check_sizes_repeat(self) -> None:
        """Input and output sizes of one seed must repeat exactly across runs.

        Sizes are keyed by a digest of the dpcr sources and the workload
        config, so runs of different versions are never compared.
        """
        config = json.dumps(self.workload.config(self.seed), sort_keys=True).encode()
        key = hashlib.sha256(source_digest().encode() + config).hexdigest()[:16]
        path = WORK / f"sizes-{self.workload.name}-{self.seed}-{key}.json"
        if path.is_file():
            before = json.loads(path.read_text(encoding="utf-8"))
            if before != self.sizes:
                self._fail([f"sizes {self.sizes} differ from an earlier run's {before}"])
        else:
            path.write_text(json.dumps(self.sizes), encoding="utf-8")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dpcr").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "threads": {var: os.environ[var] for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


if __name__ == "__main__":
    sys.exit(main())
