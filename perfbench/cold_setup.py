"""One cold set-up of a workload, in a fresh process; prints its seconds.

Usage (from the root of a checkout)::

    python3 perfbench/cold_setup.py SRC [CONFIG OUT]

The printed time runs from this script's first statement until ``dpcr``
(from the directory SRC) is imported and, when CONFIG and OUT are given,
``dpcr generate`` has written OUT in-process. ``run.py`` starts this
script several times per run and reports the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    import dpcr.cli

    if len(argv) == 3:
        with contextlib.redirect_stdout(sys.stderr):
            code = dpcr.cli.main(["generate", "--config", argv[1], "--out", argv[2]])
        if code:
            return code
    print(time.perf_counter() - START)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
