"""The benchmark tracer in ``perfbench/tracing.py`` must keep working on dpcr.

The tracer patches dpcr functions by name from outside the package, so
renaming or deleting one of them breaks ``perfbench/run.py --trace 1``
without failing any other test. Its counters also read the shapes of
what those functions return (``build_hdcr(...).nodes``, ``.records`` of
a disjoint release, the length of a cover), so a change of shape would
silently skew them.
"""

import importlib.util
from pathlib import Path

import pytest

import dpcr.accounting
from dpcr import engines, randomized_response
from dpcr.accounting import HdcrParams, ReleaseSchedule
from dpcr.changelog import Changelog, insert, modify
from dpcr.mechanisms import LinearQuerySpec, NoiseSpec, sensitivity
from dpcr.randomized_response import ResponseSpace, answer_changelog

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

SPEC = LinearQuerySpec("identity", 0.0, 100.0)
NOISE = NoiseSpec(1.0, sensitivity(SPEC), seed=5)
SCHEDULE = ReleaseSchedule.uniform(2, 3, 6)
PARAMS = HdcrParams(height=4, branching=2, start=0, span=20, interval=2)
LOG = Changelog.from_unsorted(
    [insert("a", 1, 10.0), insert("b", 6, 20.0), modify("a", 9, 10.0, 30.0)]
)
SPACE = ResponseSpace(("yes", "no"))
ANSWERS = answer_changelog([(1, "a", 0.0), (6, "b", 1.0), (9, "a", 1.0), (15, "b", None)])


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


def _prefix_cover_nodes(params: HdcrParams) -> int:
    return sum(
        len(engines.cover_range(0, j, params.branching, params.height))
        for j in range(1, params.grid_size() + 1)
    )


# release, then the expected (engines.nodes, cover_range_calls, cover_nodes,
# aggregate_calls). A hierarchy release finds all its prefix covers in one
# cover_range call, whose length is their total node count, and the Laplace one
# sums them in one aggregate call; the survey hierarchy builds no Laplace tree
# and calls no aggregate, so the tracer counts only its covers
RELEASES = {
    "dcr": (
        lambda: engines.run_dcr(LOG, SCHEDULE, SPEC, NOISE),
        lambda: (len(SCHEDULE.ticks), 0, 0, 0),
    ),
    "hdcr": (
        lambda: engines.run_hdcr(LOG, PARAMS, SPEC, NOISE),
        lambda: (
            sum(PARAMS.layer_size(layer) for layer in range(PARAMS.height)),
            1, _prefix_cover_nodes(PARAMS), 1,
        ),
    ),
    "rr-hdcr": (
        lambda: randomized_response.rr_hdcr(ANSWERS, SPACE, PARAMS, 1.0, 5),
        lambda: (0, 1, _prefix_cover_nodes(PARAMS), 0),
    ),
}


@pytest.mark.parametrize("kind", sorted(RELEASES))
def test_engine_counters_match_the_release_shape(kind):
    release, expected = RELEASES[kind]
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        release()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(calls=1, output_bytes=0, overhead_ratio=0.0)
    got = tuple(metrics[f"engines.{name}"]
                for name in ("nodes", "cover_range_calls", "cover_nodes", "aggregate_calls"))
    assert got == expected()
