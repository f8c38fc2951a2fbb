import json
import os
import stat

import hypothesis.strategies as st
import pytest
from hypothesis import given

from popalloc import DocumentError, EventKind, LayerProfile, SimEvent, run_trace
from popalloc.cli import main
from popalloc.formats import (
    dump_json,
    parse_scenario_document,
    parse_trace,
    trace_result_document,
    trace_text,
    write_text_atomic,
)
from test_allocation import census_of

SCENARIO = """
{"capacity_mbps": 30, "beta_max_mbps": 2, "beta_min_mbps": 0.6,
 "sessions": [{"id": "s1", "users": 40}, {"id": "s2", "users": 10}]}
"""


def test_parse_scenario_document():
    params, census = parse_scenario_document(SCENARIO)
    assert params.capacity == 30e6
    assert params.max_session_rate == 2e6
    assert params.min_session_rate == 0.6e6
    assert census.counts() == {"s1": 40, "s2": 10}


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"capacity_mbps": 30}',
        '{"capacity_mbps": 30, "beta_max_mbps": 2, "beta_min_mbps": 0.6, "sessions": []}',
        '{"capacity_mbps": 30, "beta_max_mbps": 2, "beta_min_mbps": 0.6, "sessions": [{"id": "s1"}]}',
        '{"capacity_mbps": 30, "beta_max_mbps": 2, "beta_min_mbps": 0.6, "sessions": [{"id": "s1", "users": 1.5}]}',
        '{"capacity_mbps": -1, "beta_max_mbps": 2, "beta_min_mbps": 0.6, "sessions": [{"id": "s1", "users": 1}]}',
        '{"capacity_mbps": 30, "beta_max_mbps": 0.5, "beta_min_mbps": 0.6, "sessions": [{"id": "s1", "users": 1}]}',
    ],
)
def test_bad_scenario_documents(text):
    with pytest.raises(DocumentError):
        parse_scenario_document(text)


def test_trace_round_trip():
    events = [
        SimEvent(0.5, EventKind.USER_JOIN, "s1"),
        SimEvent(1.0, EventKind.USER_SWITCH, "s1", "s2"),
        SimEvent(2.0, EventKind.SESSION_START, "s3"),
        SimEvent(3.5, EventKind.SESSION_STOP, "s3"),
        SimEvent(4.0, EventKind.USER_LEAVE, "s2"),
    ]
    assert parse_trace(trace_text(events)) == events


def test_trace_text_is_json_lines():
    line = trace_text([SimEvent(1.0, EventKind.USER_SWITCH, "a", "b")]).strip()
    assert json.loads(line) == {"t": 1.0, "ev": "switch", "s": "a", "to": "b"}


def test_parse_trace_skips_blank_lines():
    text = '\n{"t": 1, "ev": "join", "s": "x"}\n\n'
    events = parse_trace(text)
    assert len(events) == 1
    assert events[0].kind is EventKind.USER_JOIN


@pytest.mark.parametrize(
    "line",
    [
        "nope",
        "[]",
        '{"t": 1, "ev": "warp", "s": "x"}',
        '{"t": 1, "ev": "join"}',
        '{"t": -1, "ev": "join", "s": "x"}',
        '{"t": 1, "ev": "switch", "s": "x"}',
        '{"t": 1, "ev": "join", "s": "x", "to": 5}',
    ],
)
def test_bad_trace_lines(line):
    with pytest.raises(DocumentError):
        parse_trace(line)


def test_trace_result_document_shape(reference_params):
    profile = LayerProfile.from_mbps(0.6, 0.25)
    trace = [
        SimEvent(1.0, EventKind.USER_JOIN, "s001"),
        SimEvent(2.0, EventKind.USER_LEAVE, "ghost"),
    ]
    result = run_trace(reference_params, profile, census_of([40, 10] + [5] * 18), trace)
    doc = trace_result_document(result)
    assert len(doc["snapshots"]) == 2
    assert len(doc["rejections"]) == 1
    snap = doc["snapshots"][0]
    assert snap["regime"] == "constrained"
    assert snap["equal_share"]["rate_mbps"] == 1.5
    assert len(snap["popularity"]) == 20
    assert snap["popularity"][0]["rate_mbps"] >= snap["popularity"][-1]["rate_mbps"]
    assert doc["rejections"][0]["error"] == "UnknownSession"


# ---------------------------------------------------------------------------
# dump_json: byte-identical to the stdlib's indented, sorted output
# ---------------------------------------------------------------------------


def stdlib_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class Ratio(float):
    pass


class Count(int):
    pass


# Strings that look like the writer's own separators and row boundaries.
TRICKY_TEXT = ["", '"', "\n", "},\n    {", "},\n  {", ",\n  ", "\\", "}", "{", "é", "雪 ☃", "\u2028"]

texts = st.text() | st.sampled_from(TRICKY_TEXT)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(2**63) - 1, 10**40])
    | st.floats()
    | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 1e308, 5e-324])
    | texts
)
unusual = st.floats().map(Ratio) | st.integers().map(Count)
flat_rows = st.lists(st.dictionaries(texts, scalars, min_size=1, max_size=5), min_size=1, max_size=6)


def containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(texts, children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.lists(st.dictionaries(texts, children, min_size=1, max_size=3), min_size=1, max_size=3)
    )


json_trees = st.recursive(scalars | unusual | flat_rows, containers, max_leaves=40)


@given(json_trees)
def test_dump_json_matches_stdlib(doc):
    assert dump_json(doc) == stdlib_json(doc)


@given(st.lists(st.tuples(texts, flat_rows), max_size=4), st.integers(0, 3))
def test_dump_json_row_lists_match_stdlib(named_rows, depth):
    doc = dict(named_rows)
    for _ in range(depth):
        doc = {"nested": [doc, {}], "empty": []}
    assert dump_json(doc) == stdlib_json(doc)


@pytest.mark.parametrize(
    "doc",
    [[object()], {"a": [1, {"b": {1, 2}}]}, {"a": {1: 2, "b": [3]}}, [{"a": 1, 2: 3}]],
)
def test_dump_json_errors_match_stdlib(doc):
    with pytest.raises(Exception) as ours:
        dump_json(doc)
    with pytest.raises(Exception) as theirs:
        stdlib_json(doc)
    assert (ours.type, str(ours.value)) == (theirs.type, str(theirs.value))


def test_dump_json_trace_document_matches_stdlib(reference_params):
    profile = LayerProfile.from_mbps(0.6, 0.25)
    trace = [
        SimEvent(1.0, EventKind.USER_JOIN, "s001"),
        SimEvent(1.5, EventKind.SESSION_START, "new"),
        SimEvent(2.0, EventKind.USER_LEAVE, "ghost"),
        SimEvent(3.0, EventKind.USER_SWITCH, "s002", "new"),
    ]
    result = run_trace(reference_params, profile, census_of([40, 10] + [5] * 18), trace)
    doc = trace_result_document(result)
    assert dump_json(doc) == stdlib_json(doc)


def test_dump_json_allocation_document_matches_stdlib(capsys):
    argv = ["allocate", "--capacity-mbps", "30", "--beta-max-mbps", "2",
            "--beta-min-mbps", "0.6", "--sessions", "20", "--users", "200"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text == stdlib_json(json.loads(text))


# ---------------------------------------------------------------------------
# write_text_atomic
# ---------------------------------------------------------------------------


def test_write_text_atomic_replaces_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    write_text_atomic(path, "new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_write_text_atomic_creates_missing_parents(tmp_path):
    path = tmp_path / "a" / "b" / "out.json"
    write_text_atomic(path, "new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(path.parent) == ["out.json"]


def test_write_text_atomic_failed_write_keeps_old_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(path, "x" * 100_000 + "\ud800")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_write_text_atomic_follows_symlink(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    write_text_atomic(link, "new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]


def test_write_text_atomic_writes_through_a_pipe(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_text_atomic(fifo, "hi\n")
        assert os.read(reader, 16) == b"hi\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]
