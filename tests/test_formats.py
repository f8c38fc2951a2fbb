import contextlib
import io
import json
import os
import stat
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from popalloc import (
    DocumentError,
    EventKind,
    LayerProfile,
    SimEvent,
    Snapshot,
    SystemParams,
    TraceGenConfig,
    generate_trace,
    random_census,
    run_trace,
    stream_trace,
)
from popalloc.allocation import MAX_TOTAL_USERS
from popalloc.cli import main
from popalloc.formats import (
    _row_template,
    allocation_document,
    dump_json,
    parse_scenario_document,
    parse_trace,
    snapshot_to_dict,
    trace_result_chunks,
    trace_result_document,
    trace_text,
    write_text_atomic,
)
from test_allocation import census_of

PROFILE = LayerProfile.from_mbps(0.6, 0.25)

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


@pytest.mark.parametrize(
    "sessions, message",
    [
        (["s1"], "scenario: sessions[0] must be an object"),
        ([{"id": "s1", "users": 1}, [1]], "scenario: sessions[1] must be an object"),
        ([{"users": 1}], "sessions[0]: missing required field 'id'"),
        ([{"id": 7, "users": 1}], "sessions[0]: field 'id' must be str"),
        ([{"id": "s1"}], "sessions[0]: missing required field 'users'"),
        ([{"id": "s1", "users": 1.5}], "sessions[0]: field 'users' must be int"),
        ([{"id": "s1", "users": True}], "sessions[0]: field 'users' must be int"),
        (
            [{"id": "s1", "users": -1}],
            "user count must be a non-negative integer, got -1 for session 's1'",
        ),
        ([{"id": "s1", "users": 1}, {"id": "s1", "users": 2}], "duplicate session id 's1'"),
        (
            [{"id": "s1", "users": MAX_TOTAL_USERS}, {"id": "s2", "users": 1}],
            "total audience is too large to convert to a float",
        ),
        # Two bad items: the first is named. Every item's types are checked
        # before any count's sign, the ids' uniqueness or the total.
        (
            [{"id": "s1", "users": 1}, {"users": 1}, {"id": 3, "users": 1}],
            "sessions[1]: missing required field 'id'",
        ),
        (
            [{"id": "s1", "users": -2}, {"id": "s2", "users": -3}],
            "user count must be a non-negative integer, got -2 for session 's1'",
        ),
        (
            [{"id": "s1", "users": -1}, {"id": 3, "users": 1}],
            "sessions[1]: field 'id' must be str",
        ),
        (
            [{"id": "s1", "users": -2}, {"id": "s1", "users": 1}],
            "user count must be a non-negative integer, got -2 for session 's1'",
        ),
    ],
)
def test_bad_scenario_sessions_messages(sessions, message):
    doc = {"capacity_mbps": 30, "beta_max_mbps": 2, "beta_min_mbps": 0.6, "sessions": sessions}
    with pytest.raises(DocumentError) as caught:
        parse_scenario_document(json.dumps(doc))
    assert str(caught.value) == message


def test_bad_scenario_params_reported_before_session_values():
    doc = {"capacity_mbps": -1, "beta_max_mbps": 2, "beta_min_mbps": 0.6,
           "sessions": [{"id": "s1", "users": -2}, {"id": "s1", "users": 1}]}
    with pytest.raises(DocumentError, match=r"^capacity must be positive, got -1000000\.0$"):
        parse_scenario_document(json.dumps(doc))


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


# Strings that look like the writer's own separators, row boundaries and
# template placeholders.
TRICKY_TEXT = [
    "", '"', "\n", "},\n    {", "},\n  {", ",\n  ", "\\", "}", "{", "é", "雪 ☃", "\u2028",
    "%", "%s", "%%", "%(a)s", "100%",
]

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


# What one row of a list may hold in a column the other rows share.
column_values = st.sampled_from([
    st.none() | texts,
    st.booleans() | st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers() | st.sampled_from([2**64, 10**40]),
    texts,
])
ODD_VALUES = [-0.0, float("nan"), float("inf"), float("-inf"), Ratio(0.5), Count(3), None, True]


@st.composite
def shaped_rows(draw):
    """Rows that share one key shape, some with a flat nested dict like the
    allocate ``layers``, then at most one row changed at either level: an
    odd value, a key added or dropped, or a dict swapped with a scalar."""
    top = {key: draw(column_values) for key in draw(st.lists(texts, min_size=1, max_size=4))}
    inner = {key: draw(column_values) for key in draw(st.lists(texts, min_size=1, max_size=3))}
    nest_key = draw(st.none() | texts)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = {key: draw(values) for key, values in top.items()}
        if nest_key is not None:
            row[nest_key] = {key: draw(values) for key, values in inner.items()}
        rows.append(row)
    row = draw(st.sampled_from(rows))
    target = row if nest_key is None or draw(st.booleans()) else row[nest_key]
    key = draw(st.sampled_from(sorted(target)))
    change = draw(st.sampled_from(["none", "odd", "add", "drop", "dict"]))
    if change == "odd":
        target[key] = draw(st.sampled_from(ODD_VALUES))
    elif change == "add":
        target[draw(texts)] = draw(scalars)
    elif change == "drop":
        del target[key]
    elif change == "dict":
        target[key] = draw(st.sampled_from([{}, {"x": 1}, {"x": [1]}, 0, "layers"]))
    return rows


@given(shaped_rows(), st.integers(0, 2))
def test_dump_json_shaped_rows_match_stdlib(rows, depth):
    doc = rows
    for _ in range(depth):
        doc = {"rows": doc, "n": len(rows)}
    assert dump_json(doc) == stdlib_json(doc)


LAYERS = {"enhancements": 3, "granted_mbps": 1.75, "residual_mbps": 0.05}


@pytest.mark.parametrize(
    "rows",
    [
        [{"id": "s1", "layers": LAYERS, "rank": 1}, {"id": "s2", "layers": LAYERS, "rank": 2}],
        [{"%": 1, "%s": {"%%": 2.5, "%(a)s": "%"}}, {"%": 2, "%s": {"%%": -0.0, "%(a)s": "%d"}}],
        [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
        [{"a": 1, "n": {"x": 1}}, {"a": 1, "n": {"y": 1}}],
        [{"a": {"x": 1}}, {"a": 2}],
        [{"a": 2}, {"a": {"x": 1}}],
        [{"a": {"x": 1}}, {"a": {}}],
        [{"to": None, "s": "a"}, {"to": "b", "s": "c"}],
        [{"v": True, "n": 1}, {"v": 0, "n": False}],
        [{"r": 1.5}, {"r": -0.0}],
        *([{"r": 1.5}, {"r": odd}] for odd in [float("nan"), float("inf"), float("-inf")]),
        [{"r": {"x": 1.5}}, {"r": {"x": float("nan")}}],
        [{"r": 1.5, "n": 1}, {"r": Ratio(2.5), "n": 2}],
        [{"r": 1.5, "n": 1}, {"r": 2.5, "n": Count(2)}],
        [{"a": 1}, {}],
        [{}, {}],
        [{"a": {}}, {"a": {}}],
        [{"a": 1}, [1]],
    ],
)
def test_dump_json_row_shapes_match_stdlib(rows):
    for doc in (rows, {"rows": rows}, [{"rows": tuple(rows)}]):
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
    assert _row_template(doc["rejections"], 2, [], True) is not None
    assert dump_json(doc) == stdlib_json(doc)


TRACE_IDS = ["s001", "s002", "s003", "s004", "new", "ghost"]


@st.composite
def replays(draw):
    """A census of 1-4 sessions at 3 Mbps (the floor fits 5) and either a
    random trace, mostly rejected, or a generated one that rejects nothing."""
    census = census_of(draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)))
    if draw(st.booleans()):
        weights = {"join": 1.0, "leave": 1.0, "switch": 2.0}
        config = TraceGenConfig(census, draw(st.integers(0, 12)), weights)
        return census, generate_trace(config, draw(st.integers(0, 99)))
    trace, t = [], 0.0
    steps = st.tuples(
        st.sampled_from([0.0, 0.5, 1.25]), st.sampled_from(list(EventKind)),
        st.sampled_from(TRACE_IDS), st.sampled_from(TRACE_IDS),
    )
    for gap, kind, sid, to in draw(st.lists(steps, max_size=12)):
        t += gap
        trace.append(SimEvent(t, kind, sid, to if kind is EventKind.USER_SWITCH else None))
    return census, trace


@given(replays())
def test_streamed_trace_matches_whole_document(replay):
    census, trace = replay
    params = SystemParams.from_mbps(3, 2, 0.6)
    profile = LayerProfile.from_mbps(0.6, 0.25)
    streamed = "".join(trace_result_chunks(*stream_trace(params, profile, census, trace)))
    whole = dump_json(trace_result_document(run_trace(params, profile, census, trace)))
    assert streamed == whole


def test_dump_json_allocation_document_matches_stdlib(capsys):
    argv = ["allocate", "--capacity-mbps", "30", "--beta-max-mbps", "2",
            "--beta-min-mbps", "0.6", "--sessions", "20", "--users", "200"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text == stdlib_json(json.loads(text))


def test_dump_json_allocate_rows_at_scale():
    # 2000 sessions, each with a nested ``layers`` dict: the rows go through
    # one template, and the document still matches the stdlib byte for byte.
    params = SystemParams.from_mbps(2000, 2, 0.6)
    census = random_census(2000, 200_000, "zipf", 11)
    doc = allocation_document(params, Snapshot.from_census(census, params, PROFILE))
    assert _row_template(doc["sessions"], 2, [], True) is not None
    assert dump_json(doc) == stdlib_json(doc)


@st.composite
def scenarios(draw):
    """An allocate scenario at cap 2 and floor 0.6 Mbps: 1-150 sessions (past
    a 64-row block), ids listed in drawn order, some that JSON escapes or
    not ASCII, audiences often tied, and capacity from near the floors' sum
    to past every cap."""
    ids = draw(st.lists(st.text(max_size=4) | st.sampled_from(TRICKY_TEXT),
                        min_size=1, max_size=150, unique=True))
    counts = draw(st.sampled_from([st.integers(0, 3), st.integers(0, 10**6), st.just(0)]))
    share = draw(st.sampled_from([0.65, 1.0, 1.7, 2.0, 2.5]))
    return {
        "capacity_mbps": len(ids) * share, "beta_max_mbps": 2, "beta_min_mbps": 0.6,
        "sessions": [{"id": sid, "users": draw(counts)} for sid in ids],
    }


def scenario_of(counts, share):
    """A scenario of sessions ``s<i>`` listed in reverse id order."""
    sessions = [{"id": f"s{i:03d}", "users": n} for i, n in enumerate(counts)][::-1]
    return {"capacity_mbps": len(counts) * share, "beta_max_mbps": 2, "beta_min_mbps": 0.6,
            "sessions": sessions}


@given(scenarios())
@example(scenario_of([7], 1.0))
@example(scenario_of([5, 5, 3, 3, 3, 0] * 11 + [9], 1.0))
@example(scenario_of([0] * 70, 1.0))
@example(scenario_of([40, 10, 10, 1], 2.5))
def test_allocate_output_matches_whole_document(scenario):
    # The CLI writes the allocate document from the columns; the reference is
    # the whole document through dump_json and through the stdlib.
    text = json.dumps(scenario)
    params, census = parse_scenario_document(text)
    doc = allocation_document(params, Snapshot.from_census(census, params, PROFILE))
    expected = dump_json(doc)
    assert expected == stdlib_json(doc)
    with tempfile.TemporaryDirectory() as tmp:
        scenario_path, out = Path(tmp) / "scenario.json", Path(tmp) / "out.json"
        scenario_path.write_text(text)
        argv = ["allocate", "--input", str(scenario_path)]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        assert stdout.getvalue() == expected


def test_streamed_snapshot_at_scale():
    params = SystemParams.from_mbps(1000, 2, 0.6)
    snapshot = Snapshot.from_census(random_census(1000, 100_000, "zipf", 12), params, PROFILE)
    doc = snapshot_to_dict(snapshot)
    for rows in (doc["census"], doc["popularity"], doc["plans"]):
        assert _row_template(rows, 3, [], True) is not None
    streamed = "".join(trace_result_chunks([], [snapshot]))
    assert streamed == stdlib_json({"rejections": [], "snapshots": [doc]})


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
