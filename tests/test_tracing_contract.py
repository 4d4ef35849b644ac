"""The benchmark tracer in ``perfbench/tracing.py`` must resolve every name it wraps.

The tracer patches dpcr functions by name from outside the package, so
renaming or deleting one of them breaks ``perfbench/run.py --trace 1``
without failing any other test.
"""

import importlib.util
from pathlib import Path

import dpcr.accounting

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored():
    tracing = _load_tracing()
    original = dpcr.accounting.dcr_folds
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises AttributeError on a name dpcr no longer has
        assert dpcr.accounting.dcr_folds is not original
    finally:
        tracer.uninstall()
    assert dpcr.accounting.dcr_folds is original
