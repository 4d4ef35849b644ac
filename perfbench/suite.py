"""Run every workload from one seed and print its end-to-end metrics.

Usage (from the root of a checkout)::

    python3 perfbench/suite.py --seed 1

Each workload runs in its own fresh ``perfbench/run.py`` process with
its default ``--seconds`` and ``--trace 0``, one after the other, so
``peak_rss_mb`` is per workload. The per-layer metrics come from
``run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    status = 0
    for name, workload in WORKLOADS.items():
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: run.py exited with {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {name} (seed {args.seed}, {record['repetitions']} timed repetitions)")
        for key, metric in result["metrics"].items():
            if key == "run_s" and workload.command == "verify":
                key = "verify_s"
            print(f"  {key:<44} {metric['value']:.6g} {metric['unit']}")
        print(f"  {'fail_ratio':<44} {record['fail_ratio']:.6g} "
              f"({result['failed']}/{result['attempted']})")
        print(f"  {'sizes':<44} {json.dumps(record['sizes'])}")
        for problem in record["problems"]:
            print(f"  check failed: {problem}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
