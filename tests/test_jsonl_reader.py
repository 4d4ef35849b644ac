"""The block JSON Lines reader against a per-line ``json.loads`` reference.

``reference_rows`` reads a log the way the loaders did before they
read in blocks: one ``json.loads`` per stripped line, the per-record
checks, and the rows streamed into ``to_columns``. The block reader must
give the same columns, or raise the same exception with the same message
(the first bad line in file order), whatever the block boundaries.
"""

import json
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given

from dpcr.changelog import (
    BLOCK_LINES,
    Changelog,
    ConsistencyError,
    load_changelog,
    mutation_values,
    read_columns,
    to_columns,
)
from dpcr.randomized_response import ResponseSpace, answer_values

SPACE = ResponseSpace(("yes", "no"))


def reference_number(value):
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number or null, got {value!r}")
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"expected a finite number or null, got {value!r}")
    return value


def reference_mutation(rec):
    return reference_number(rec["prev"]), reference_number(rec["new"])


def reference_answer(rec):
    codes = {label: float(i) for i, label in enumerate(SPACE.labels)}
    answer = rec["answer"]
    if answer is not None and answer not in codes:
        raise ValueError(f"answer {answer!r} is not one of the labels {list(SPACE.labels)}")
    return None, codes.get(answer)


def reference_rows(path, what, values):
    """``(t, entry, prev, new)`` of each non-blank line, read one line at a time."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                t = rec["t"]
                if isinstance(t, bool) or not isinstance(t, int):
                    raise ValueError(f"t must be an integer, got {t!r}")
                if not -(2**63) <= t <= 2**63 - 1:
                    raise ValueError(f"t must fit in a signed 64-bit integer, got {t}")
                row = (t, str(rec["entry"]), *values(rec))
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise ConsistencyError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
            yield row


KINDS = {
    "mutation": (reference_mutation, mutation_values),
    "answer": (reference_answer, answer_values(SPACE)),
}


def outcome(read):
    """The columns ``read()`` returns, or the type and message of what it raises."""
    try:
        times, codes, ids, prev, new, has_prev, has_new = read()
    except Exception as exc:
        return type(exc), str(exc)
    # bytes and dtype, so that -0.0 and 0.0 or int64 and float64 differ
    arrays = [(a.dtype.str, a.tobytes()) for a in (times, codes, prev, new, has_prev, has_new)]
    return ids, arrays


def assert_same_as_reference(path, kind):
    reference, values = KINDS[kind]
    expected = outcome(lambda: to_columns(reference_rows(path, kind, reference)))
    assert outcome(lambda: read_columns(path, kind, values)) == expected
    return expected


def filler(kind: str, i: int) -> str:
    if kind == "mutation":
        return f'{{"entry": "f{i}", "t": {i}, "prev": null, "new": {i / 4}}}'
    answer = ('"yes"', '"no"', "null")[i % 3]
    return f'{{"entry": "f{i}", "t": {i}, "answer": {answer}}}'


DEEP = "[" * 100_000 + "]" * 100_000  # deeper than the JSON parser can go
NESTED = "[" * 40 + "]" * 40  # deep, but parses
HUGE = "1" + "0" * 400  # 10**400: beyond int64 and float64
POOLS = {
    "t": ["0", "7", "-3", str(2**63 - 1), str(-(2**63)), str(2**63), str(-(2**63) - 1), HUGE,
          "1e400", "1.5", "3.0", "-0", "true", "false", '"3"', "null", "NaN", "Infinity", "[1]"],
    "entry": ['"e1"', '"e2"', '"\\u00e9"', '""', "7", "null", "true", "1.5", "1e400", "[1, [2]]",
              '{"k": 1}', NESTED],
    "prev": ["null", "1.5", "0", "-2", "-0.0", "1e308", "1e-320", str(2**53 + 1), str(2**63),
             HUGE, "1e400", "-1e400", "NaN", "Infinity", "-Infinity", "true", "false", '"1.5"',
             "[1.5]", "{}", NESTED],
    "answer": ['"yes"', '"no"', "null", '"maybe"', '"1"', "3", "true", "NaN", "[1]",
               '{"a": 1}'],
}
POOLS["new"] = POOLS["prev"]
KEYS = {"mutation": ("entry", "t", "prev", "new"), "answer": ("entry", "t", "answer")}
# ways to lay one record out on a line, valid or not
SHAPES = [
    "{}", "", "   ", "\t\x0c\x1c\xa0", "\ufeff{}", "  {}\t", "{},{}", "{} {}", "{}}", "[{}]",
    '{{"a":"}}', '{{"}}', '{{"x":1}},{{"y":2}}', "1", '"x"', "null",
    '{{"entry": "e", "t": 1, "prev": null, "new": ' + DEEP + ', "answer": null}}',
]


# one line of each kind the reader must treat as the per-line reference does
NAMED_LINES = {
    "blank": "",
    "whitespace": "  \t ",
    "bom": "\ufeff" + filler("mutation", 0),
    "two-records": '{"entry": "e", "t": 1, "prev": null, "new": 1.0}'
                   '{"entry": "e", "t": 2, "prev": 1.0, "new": 2.0}',
    "open-string": '{"a":"}',
    "open-key": '{"}',
    "two-objects": '{"x":1},{"y":2}',
    "nan": '{"entry": "e", "t": 1, "prev": null, "new": NaN}',
    "infinity": '{"entry": "e", "t": 1, "prev": null, "new": -Infinity}',
    "value-1e400": '{"entry": "e", "t": 1, "prev": null, "new": 1e400}',
    "time-1e400": '{"entry": "e", "t": 1e400, "prev": null, "new": 1.0}',
    "time-2**63": f'{{"entry": "e", "t": {2**63}, "prev": null, "new": 1.0}}',
    "time-10**400": f'{{"entry": "e", "t": {HUGE}, "prev": null, "new": 1.0}}',
    "value-10**400": f'{{"entry": "e", "t": 1, "prev": null, "new": {HUGE}}}',
    "bool-time": '{"entry": "e", "t": true, "prev": null, "new": 1.0}',
    "bool-value": '{"entry": "e", "t": 1, "prev": null, "new": false}',
    "string-time": '{"entry": "e", "t": "3", "prev": null, "new": 1.0}',
    "string-value": '{"entry": "e", "t": 1, "prev": null, "new": "1.5"}',
    "list-value": '{"entry": "e", "t": 1, "prev": null, "new": [1.5]}',
    "list-entry": '{"entry": [1, 2], "t": 1, "prev": null, "new": 1.5}',
    "deep": '{"entry": "e", "t": 1, "prev": null, "new": ' + DEEP + "}",
    "missing-key": '{"entry": "e", "t": 1, "prev": null}',
    # two bad fields: the message is the one of the field read first
    "bool-time-string-value": '{"entry": "e", "t": true, "prev": "1.5", "new": 1.0}',
    "time-2**63-no-entry": f'{{"t": {2**63}, "prev": null, "new": 1.0}}',
    "bad-prev-no-new": '{"entry": "e", "t": 1, "prev": "1.5"}',
    "string-time-unknown-answer": '{"entry": "e", "t": "3", "answer": "maybe"}',
}


@st.composite
def records(draw, kind: str) -> str:
    """One JSON object with each field drawn from its pool, or left out."""
    fields = [(key, draw(st.sampled_from([*POOLS[key], None]))) for key in KEYS[kind]]
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields if v is not None) + "}"


@st.composite
def logs(draw, kind: str) -> bytes:
    """Filler lines with 1-4 drawn lines placed in the first block, across a block
    boundary or further on, joined by LF, CRLF or CR line ends."""
    count = draw(st.one_of(st.integers(0, 20), st.integers(BLOCK_LINES - 3, BLOCK_LINES + 3),
                           st.integers(2 * BLOCK_LINES - 3, 2 * BLOCK_LINES + 3)))
    lines = [filler(kind, i) for i in range(count)]
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(SHAPES))
        line = shape.replace("{}", draw(records(kind))) if "{}" in shape else shape.format()
        lines.insert(draw(st.integers(0, len(lines))), line)
    ends = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ends.join(lines) + draw(st.sampled_from([ends, ""]))
    return text.encode("utf-8")


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "log.jsonl"


class TestAgainstReference:
    @given(st.sampled_from(sorted(KEYS)).flatmap(lambda kind: st.tuples(st.just(kind), logs(kind))))
    def test_drawn_logs(self, log_path, drawn):
        kind, data = drawn
        log_path.write_bytes(data)
        assert_same_as_reference(log_path, kind)

    @pytest.mark.parametrize("line", NAMED_LINES.values(), ids=NAMED_LINES.keys())
    @pytest.mark.parametrize("where", [0, BLOCK_LINES - 1, BLOCK_LINES, 2 * BLOCK_LINES + 5])
    def test_named_lines(self, log_path, line, where):
        lines = [filler("mutation", i) for i in range(2 * BLOCK_LINES + 10)]
        lines.insert(where, line)
        log_path.write_text("\n".join(lines))
        assert_same_as_reference(log_path, "mutation")

    @pytest.mark.parametrize("answer", ['"maybe"', "[1]", '{"a": 1}', "true", "NaN"])
    @pytest.mark.parametrize("where", [0, BLOCK_LINES + 1])
    def test_unknown_and_unhashable_answers(self, log_path, answer, where):
        lines = [filler("answer", i) for i in range(BLOCK_LINES + 10)]
        lines.insert(where, f'{{"entry": "e", "t": 1, "answer": {answer}}}')
        log_path.write_text("\n".join(lines))
        reason = assert_same_as_reference(log_path, "answer")[1]
        assert f":{where + 1}: bad answer record:" in reason

    def test_bad_line_before_undecodable_bytes_in_one_block(self, log_path):
        lines = [filler("mutation", i).encode() for i in range(BLOCK_LINES)]
        lines[3] = b'{"entry": "e", "t": 1.5, "prev": null, "new": 1.0}'
        lines[BLOCK_LINES - 2] = b"\xff"
        log_path.write_bytes(b"\n".join(lines))
        reason = assert_same_as_reference(log_path, "mutation")[1]
        assert ":4: bad mutation record: t must be an integer, got 1.5" in reason

    def test_undecodable_bytes(self, log_path):
        lines = [filler("mutation", i).encode() for i in range(3 * BLOCK_LINES)]
        lines[2 * BLOCK_LINES] = b"\xff"
        log_path.write_bytes(b"\n".join(lines))
        assert assert_same_as_reference(log_path, "mutation")[0] is UnicodeDecodeError


def test_peak_memory_stays_near_the_streaming_reader(tmp_path):
    """Reading in blocks holds one block of records at a time, not the file.

    The bound is relative to the per-line streaming reader on the same
    log of 8192 lines: 256-line blocks add about 2% to its peak, while
    parsing every line before building columns (one block of the whole
    file) costs more than five times as much.
    """
    path = tmp_path / "log.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(8192):
            # every entry is inserted and then modified once
            prev = "null" if i % 2 == 0 else f"{(i - 1) % 997 / 7:.6f}"
            fh.write(f'{{"entry": "e{i // 2:06d}", "t": {i}, "prev": {prev}, '
                     f'"new": {i % 997 / 7:.6f}}}\n')

    def peak(load) -> int:
        load()  # once untraced, so that first-call caches are not counted
        tracemalloc.start()
        try:
            load()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streaming = peak(lambda: Changelog.from_columns(
        *to_columns(reference_rows(path, "mutation", reference_mutation))
    ))
    assert peak(lambda: load_changelog(path)) <= 1.25 * streaming
