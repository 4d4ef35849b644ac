import hypothesis.strategies as st
import numpy as np
from hypothesis import settings

from dpcr.changelog import NEG_INF, Changelog, Mutation
from dpcr.oracles import FAR_PAST, affected_count_oracle

settings.register_profile("ci", max_examples=60, deadline=None)
settings.load_profile("ci")


@st.composite
def changelogs(draw, max_entries: int = 6, horizon: int = 24):
    """Random consistent changelogs: per-entry chains merged and sorted."""
    n_entries = draw(st.integers(0, max_entries))
    muts: list[Mutation] = []
    for i in range(n_entries):
        eid = f"e{i:03d}"
        times = sorted(draw(st.sets(st.integers(0, horizon), min_size=1, max_size=5)))
        values = draw(
            st.lists(
                st.floats(0, 100, allow_nan=False, width=32),
                min_size=len(times),
                max_size=len(times),
            )
        )
        ends_deleted = draw(st.booleans()) and len(times) > 1
        prev = None
        for j, (t, v) in enumerate(zip(times, values)):
            new = None if (ends_deleted and j == len(times) - 1) else float(v)
            muts.append(Mutation(t, eid, prev, new))
            prev = new
    return Changelog.from_unsorted(muts)


def affected_count(windows, mutations) -> int:
    """``affected_count_oracle`` on one instance: windows ``(starts[i], ends[i]]``
    given as one ``(starts, ends)`` pair, and one entry's mutations."""
    starts = np.array([[FAR_PAST if s == NEG_INF else s for s in windows[0]]], dtype=np.int64)
    ends = np.array([list(windows[1])], dtype=np.int64)
    times = np.array([[m.time for m in mutations] or [FAR_PAST]], dtype=np.int64)
    return int(affected_count_oracle(starts, ends, times)[0])


def node_windows(params) -> tuple[list, list]:
    """Every node window of a hierarchy, layer after layer, as one ``(starts, ends)`` pair."""
    layers = [params.windows(layer) for layer in range(params.height)]
    return [s for starts, _ in layers for s in starts], [e for _, ends in layers for e in ends]
