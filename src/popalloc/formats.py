"""File formats: scenario documents, trace files, snapshot dumps, sweep CSV.

All documents carry rates in Mbps; conversion to the internal bits/second
happens here and nowhere else. JSON output is exactly
``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline: sorted keys and
shortest round-trip floats, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import functools
import json
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any

from .allocation import MAX_TOTAL_USERS, MBPS, SessionCensus, SystemParams
from .errors import DocumentError
from .satisfaction import Evaluation, SchemeComparison
from .simulation import EventKind, RejectedEvent, SimEvent, Snapshot, TraceResult


def _require(doc: dict, key: str, kind: type, where: str) -> Any:
    if key not in doc:
        raise DocumentError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise DocumentError(f"{where}: field {key!r} is beyond the float range") from None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DocumentError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def parse_scenario_document(text: str) -> tuple[SystemParams, SessionCensus]:
    """Parse the one-shot input document.

    Expected shape::

        {"capacity_mbps": 30, "beta_max_mbps": 2, "beta_min_mbps": 0.6,
         "sessions": [{"id": "s1", "users": 40}, ...]}
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("scenario document must be a JSON object")
    capacity = _require(doc, "capacity_mbps", float, "scenario")
    beta_max = _require(doc, "beta_max_mbps", float, "scenario")
    beta_min = _require(doc, "beta_min_mbps", float, "scenario")
    sessions = _require(doc, "sessions", list, "scenario")
    if not sessions:
        raise DocumentError("scenario: 'sessions' must not be empty")
    census = _census_of(sessions)
    if census is None:
        # Some item is bad: check item by item, which names the first one.
        entries = []
        for i, item in enumerate(sessions):
            if not isinstance(item, dict):
                raise DocumentError(f"scenario: sessions[{i}] must be an object")
            sid = _require(item, "id", str, f"sessions[{i}]")
            users = _require(item, "users", int, f"sessions[{i}]")
            entries.append((sid, users))
    try:
        params = SystemParams.from_mbps(capacity, beta_max, beta_min)
        if census is None:
            census = SessionCensus.from_counts(entries)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    return params, census


def _census_of(sessions: list) -> SessionCensus | None:
    """The census of decoded ``sessions`` if every item is a dict with an
    ``id`` of type ``str`` and ``users`` of type ``int``, none negative, the
    ids are unique and the total is at most ``MAX_TOTAL_USERS``; else None."""
    if not _DICT.issuperset(map(type, sessions)):
        return None
    ids = tuple(item.get("id") for item in sessions)
    users = tuple(item.get("users") for item in sessions)
    if not (_STR.issuperset(map(type, ids)) and _INT.issuperset(map(type, users))):
        return None
    if min(users) < 0 or len(set(ids)) < len(ids) or sum(users) > MAX_TOTAL_USERS:
        return None
    return SessionCensus._of(ids, users)


def _scores(comparison: SchemeComparison) -> dict:
    """The ``average_satisfaction`` and ``comparison`` blocks of both
    output documents."""
    return {
        "average_satisfaction": {
            "popularity": comparison.avg_satisfaction_popularity,
            "equal_share": comparison.avg_satisfaction_equal,
        },
        "comparison": {
            "improved_users": comparison.improved_users,
            "degraded_users": comparison.degraded_users,
            "unchanged_users": comparison.unchanged_users,
        },
    }


def _allocation_head(params: SystemParams, evaluation: Evaluation) -> dict:
    """The one-shot output document without its session rows, rates in Mbps."""
    return {
        "capacity_mbps": params.capacity / MBPS,
        "beta_max_mbps": params.max_session_rate / MBPS,
        "beta_min_mbps": params.min_session_rate / MBPS,
        "regime": evaluation.allocation.regime.value,
        "equal_share_rate_mbps": evaluation.equal_share_rate / MBPS,
        **_scores(evaluation.comparison),
    }


def _ranks(evaluation: Evaluation) -> list[int]:
    """The rank of each census position: the inverse of the rank order."""
    return sorted(range(len(evaluation.order)), key=evaluation.order.__getitem__)


def allocation_document(params: SystemParams, snapshot: Snapshot) -> dict:
    """One-shot output: the input document mirrored, each session annotated
    with its allocated rate, satisfaction, and layer plan, followed by the
    equal-share rate and the comparison of both schemes."""
    evaluation = snapshot.evaluation
    max_rate = evaluation.params.max_session_rate
    fields = {
        rate: (rate / MBPS, rate / max_rate, count, granted / MBPS, residual / MBPS)
        for rate, (count, granted, residual) in snapshot.plans.by_rate.items()
    }
    sessions = []
    census = snapshot.census
    for sid, users, rank in zip(census.session_ids, census.users, _ranks(evaluation)):
        rate_mbps, satisfaction, count, granted_mbps, residual_mbps = fields[
            evaluation.allocation.session_rates[rank]
        ]
        sessions.append(
            {
                "id": sid,
                "users": users,
                "rank": rank + 1,
                "rate_mbps": rate_mbps,
                "satisfaction": satisfaction,
                "layers": {
                    "enhancements": count,
                    "granted_mbps": granted_mbps,
                    "residual_mbps": residual_mbps,
                },
            }
        )
    doc = _allocation_head(params, evaluation)
    doc["sessions"] = sessions
    return doc


def allocation_chunks(params: SystemParams, snapshot: Snapshot) -> list[str]:
    """``dump_json(allocation_document(params, snapshot))`` in pieces, the
    session rows written from the snapshot's columns with no row dicts: the
    text of each distinct rate and each distinct audience is made once."""
    evaluation = snapshot.evaluation
    max_rate = evaluation.params.max_session_rate
    # Rates lie between floor and cap, so every float here is finite.
    text = _TEXT[float]
    layers, scores = {}, {}
    for rate, (count, granted, residual) in snapshot.plans.by_rate.items():
        plan = (_TEXT[int](count), text(granted / MBPS), text(residual / MBPS))
        layers[rate] = _SESSION_ROW[1] % plan
        scores[rate] = _SESSION_ROW[2] % (text(rate / MBPS), text(rate / max_rate))
    ranks = _ranks(evaluation)
    rates = list(map(evaluation.allocation.session_rates.__getitem__, ranks))
    census = snapshot.census
    doc = _allocation_head(params, evaluation)
    doc["sessions"] = _rows(
        1,
        repeat(_SESSION_ROW[0]),
        map(encode_basestring_ascii, census.session_ids),
        map(layers.__getitem__, rates),
        map(_TEXT[int], map((1).__add__, ranks)),
        map(scores.__getitem__, rates),
        map(_Memo(lambda users: _TEXT[int](users) + _SESSION_ROW[3]).__getitem__, census.users),
    )
    return [*_json_chunks(doc, 0), "\n"]


def parse_trace(text: str) -> list[SimEvent]:
    """Parse a trace file: one JSON object per line.

    Line shape: ``{"t": <seconds>, "ev": "join|leave|switch|start|stop",
    "s": "<id>", "to": "<id, switches only>"}``. Blank lines are ignored.
    """
    kinds = {k.value: k for k in EventKind}
    events: list[SimEvent] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DocumentError(f"trace line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DocumentError(f"trace line {lineno}: must be an object")
        where = f"trace line {lineno}"
        t = _require(doc, "t", float, where)
        ev = _require(doc, "ev", str, where)
        sid = _require(doc, "s", str, where)
        if ev not in kinds:
            raise DocumentError(f"{where}: unknown event kind {ev!r}")
        to = doc.get("to")
        if to is not None and not isinstance(to, str):
            raise DocumentError(f"{where}: field 'to' must be a string")
        try:
            events.append(SimEvent(t, kinds[ev], sid, to))
        except ValueError as exc:
            raise DocumentError(f"{where}: {exc}") from exc
    return events


def load_trace(path: Path | str) -> list[SimEvent]:
    return parse_trace(Path(path).read_text())


def trace_text(events: Iterable[SimEvent]) -> str:
    """Serialize events to the one-object-per-line trace format."""
    lines = []
    for event in events:
        doc: dict[str, Any] = {"t": event.time, "ev": event.kind.value, "s": event.session_id}
        if event.to_session is not None:
            doc["to"] = event.to_session
        lines.append(json.dumps(doc, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def _snapshot_head(snapshot: Snapshot) -> dict:
    """A snapshot's document without its three row lists, rates in Mbps."""
    evaluation = snapshot.evaluation
    comparison = evaluation.comparison
    doc = {
        "t": snapshot.time,
        "regime": evaluation.allocation.regime.value,
        "equal_share": {
            "rate_mbps": evaluation.equal_share_rate / MBPS,
            "satisfaction": comparison.avg_satisfaction_equal,
        },
        **_scores(comparison),
    }
    doc["comparison"]["delta_avg"] = comparison.delta_avg
    return doc


def snapshot_to_dict(snapshot: Snapshot) -> dict:
    """Flatten one snapshot for JSON output, rates in Mbps."""
    doc = _snapshot_head(snapshot)
    pop_sat = snapshot.evaluation.per_session
    census = snapshot.census
    doc["census"] = [{"id": sid, "users": users} for sid, users in zip(census.session_ids, census.users)]
    doc["popularity"] = [
        {
            "id": entry.session_id,
            "rate_mbps": entry.rate / MBPS,
            "satisfaction": pop_sat[entry.session_id],
        }
        for entry in snapshot.popularity.entries
    ]
    doc["plans"] = [
        {
            "id": plan.session_id,
            "enhancements": plan.enhancement_count,
            "granted_mbps": plan.granted_rate / MBPS,
            "residual_mbps": plan.residual_rate / MBPS,
        }
        for plan in snapshot.plans
    ]
    return doc


def _rejection_rows(rejections: Iterable[RejectedEvent]) -> list[dict]:
    return [
        {
            "t": r.event.time,
            "ev": r.event.kind.value,
            "s": r.event.session_id,
            "to": r.event.to_session,
            "error": r.error,
            "detail": r.detail,
        }
        for r in rejections
    ]


def trace_result_document(result: TraceResult) -> dict:
    return {
        "snapshots": [snapshot_to_dict(s) for s in result.snapshots],
        "rejections": _rejection_rows(result.rejections),
    }


def trace_result_chunks(
    rejections: Iterable[RejectedEvent], snapshots: Iterable[Snapshot]
) -> Iterator[str]:
    """``dump_json`` of the trace result document in pieces, one snapshot
    at a time; there is at least one, the initial state's. Sorted keys put
    every rejection before the first snapshot."""
    rows = _json_chunks(_rejection_rows(rejections), 1)
    yield '{\n  "rejections": ' + "".join(rows) + ',\n  "snapshots": ['
    write = _SnapshotWriter()
    for i, snapshot in enumerate(snapshots):
        yield ",\n    " if i else "\n    "
        yield from write(snapshot)
    yield "\n  ]\n}\n"


class _Text(tuple):
    """JSON text already written for its place in the document, in pieces."""


class _Memo(dict):
    """``make(key)`` for each key, made once and kept."""

    def __init__(self, make: Callable[[Any], str]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: Any) -> str:
        text = self[key] = self.make(key)
        return text


class _SnapshotWriter:
    """:func:`snapshot_to_dict`'s text at depth 2, unjoined, its three row
    lists written from the snapshot's columns with no row dicts.

    Each row is three pieces of text: the row's text before the session id,
    the id's JSON text, and the rest. Pieces that recur from one snapshot to
    the next (each id, each audience count, each layer stack) are made once
    per writer; those of a rate once per distinct rate in a snapshot.
    """

    def __init__(self) -> None:
        # Rates lie between floor and cap, so every float here is finite.
        self.ids = _Memo(json.dumps)
        self.users = _Memo(lambda users: _CENSUS_ROW[1] % _TEXT[int](users))
        self.stacks = _Memo(
            lambda stack: _PLAN_ROW[0] % (_TEXT[int](stack[0]), _TEXT[float](stack[1] / MBPS))
        )

    def __call__(self, snapshot: Snapshot) -> list[str]:
        evaluation = snapshot.evaluation
        rates = evaluation.allocation.session_rates
        max_rate = evaluation.params.max_session_rate
        text = _TEXT[float]
        popularity, stacks, residuals = {}, {}, {}
        for rate, plan in snapshot.plans.by_rate.items():
            popularity[rate] = _POPULARITY_ROW[1] % (text(rate / MBPS), text(rate / max_rate))
            stacks[rate] = self.stacks[plan[:2]]
            residuals[rate] = _PLAN_ROW[1] % text(plan[2] / MBPS)
        ranked_ids = list(map(self.ids.__getitem__, evaluation.allocation.session_ids))
        census = snapshot.census
        doc = _snapshot_head(snapshot)
        doc["census"] = _rows(
            3,
            repeat(_CENSUS_ROW[0]),
            map(self.ids.__getitem__, census.session_ids),
            map(self.users.__getitem__, census.users),
        )
        doc["popularity"] = _rows(
            3, repeat(_POPULARITY_ROW[0]), ranked_ids, map(popularity.__getitem__, rates)
        )
        doc["plans"] = _rows(
            3, map(stacks.__getitem__, rates), ranked_ids, map(residuals.__getitem__, rates)
        )
        return _json_chunks(doc, 2)


# A snapshot's row lists are joined in blocks of this many rows, a few KB
# each, whose memory the allocator reuses from one block to the next. A list
# joined whole is a string of 50-130 KB made and freed once per snapshot, for
# which the allocator maps fresh pages: at M = 1000 that is ~300 page faults
# per snapshot and a fifth of the simulate run spent in the kernel.
_ROWS_PER_BLOCK = 64


def _rows(depth: int, *columns: Iterable[str]) -> _Text:
    """A row list at ``depth``, written from ``columns`` of text pieces;
    each row's first piece opens with the separator. There is at least one
    row."""
    pieces = list(chain.from_iterable(zip(*columns)))
    pieces[0] = "[" + pieces[0][1:]
    pieces.append("\n" + "  " * depth + "]")
    step = len(columns) * _ROWS_PER_BLOCK
    return _Text("".join(pieces[i : i + step]) for i in range(0, len(pieces), step))


_CONTAINERS = frozenset((dict, list, tuple))
_DICT = frozenset((dict,))
_INT = frozenset((int,))
_STR = frozenset((str,))
# The stdlib's text for each plain type; a float's only when it is finite.
_TEXT: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_PLAIN = frozenset(_TEXT)
_NONFINITE = frozenset(("nan", "inf", "-inf"))


@functools.lru_cache(maxsize=None)  # one entry per indent depth in use
def _chunk_encoder(item_separator: str) -> Callable[[Any, int], Sequence[str]]:
    """A sorted-key encoder with no newlines of its own, returning chunks to
    join: the caller puts the newline and indent of a depth into
    ``item_separator``."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(item_separator, ": "))
    if c_make_encoder is None:
        return lambda o, _level: (encoder.encode(o),)
    # The arguments JSONEncoder.iterencode passes, minus the circular-check
    # markers: callers hand it only plain scalars and flat containers of them.
    return c_make_encoder(
        None, encoder.default, encode_basestring_ascii, None,
        ": ", item_separator, True, False, True,
    )


def _row_template(
    rows: Sequence[Any], depth: int, columns: list[list[str]], nest: bool
) -> str | None:
    """One ``%`` template for ``rows``, dicts at ``depth`` with the same
    string keys, each field's column of text appended to ``columns``; None
    if a row or value does not fit. Values are plain scalars of exact type,
    floats finite; if ``nest``, a column may hold dicts that fit one template."""
    first = rows[0]
    if type(first) is not dict or not first or not _STR.issuperset(map(type, first)):
        return None
    keys = first.keys()
    if not all(type(row) is dict and row.keys() == keys for row in rows):
        return None
    fields = []
    for key in sorted(keys):
        column = [row[key] for row in rows]
        kinds = set(map(type, column))
        if nest and kinds == {dict}:
            field = _row_template(column, depth + 1, columns, False)
        elif _PLAIN.issuperset(kinds):
            encode = _TEXT[next(iter(kinds))] if len(kinds) == 1 else lambda v: _TEXT[type(v)](v)
            columns.append(list(map(encode, column)))
            field = "%s" if float not in kinds or _NONFINITE.isdisjoint(columns[-1]) else None
        else:
            field = None
        if field is None:
            return None
        fields.append(encode_basestring_ascii(key).replace("%", "%%") + ": " + field)
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    return "{" + inner + ("," + inner).join(fields) + outer + "}"


def _id_split(depth: int, row: dict, *at: str) -> list[str]:
    """A row at ``depth`` of ``row``'s keys, whose values are 0 or flat dicts
    of 0, led by the separator, as ``%`` templates cut at the values of
    ``id`` and of the keys ``at``, which come after it: the text before the
    ``id`` value, between it and the next cut value, and so on."""
    pieces = (",\n" + "  " * depth + _row_template([row], depth, [], True)).split("%s")
    # The key whose value fills each slot; a nested dict fills one per field.
    slots = [key for key, value in sorted(row.items()) for _ in (value or (0,))]
    cuts = [slots.index(key) + 1 for key in ("id", *at)]
    return ["%s".join(pieces[i:j]) for i, j in zip([0, *cuts], [*cuts, len(pieces)])]


_CENSUS_ROW = _id_split(4, dict.fromkeys(("id", "users"), 0))
_POPULARITY_ROW = _id_split(4, dict.fromkeys(("id", "rate_mbps", "satisfaction"), 0))
_PLAN_FIELDS = dict.fromkeys(("enhancements", "granted_mbps", "residual_mbps"), 0)
_PLAN_ROW = _id_split(4, {"id": 0, **_PLAN_FIELDS})
# An allocate session row, cut at the rank and the users too: the text of a
# rate fills the layer plan before the rank and the scores after it.
_SESSION_ROW = _id_split(
    2, {**dict.fromkeys(("id", "rank", "rate_mbps", "satisfaction", "users"), 0),
        "layers": _PLAN_FIELDS}, "rank", "users"
)


def dump_json(doc: Any) -> str:
    """Exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\n"``, faster.

    The stdlib encodes with ``indent`` in pure Python. Here a list of dict
    rows that share one key shape, holding plain scalars or flat dicts of
    them, is one ``%`` template filled column by column from ``_TEXT``. Any
    other container of plain scalars is one call to the C encoder with the
    newline and indent of its depth in the item separator. Other containers,
    row lists that fail the template's checks among them, are walked item
    by item; a value of any other type (a subclass, say) and a dict with a
    non-string key are left to the stdlib, errors included.
    """
    out = _json_chunks(doc, 0)
    out.append("\n")
    return "".join(out)


def _json_chunks(doc: Any, depth: int) -> list[str]:
    """:func:`dump_json`'s text for ``doc`` at ``depth``, unjoined, no final
    newline. A :class:`_Text` value is taken as its own text at its place."""
    out: list[str] = []
    _write_json(doc, depth, out)
    return out


def _write_json(o: Any, depth: int, out: list[str]) -> None:
    """Append :func:`_json_chunks`'s text for ``o`` at ``depth`` to ``out``.
    A module-level function, not a closure over ``out``: a recursive closure
    is a reference cycle, which would keep ``out`` and its text alive until
    the cyclic collector runs."""
    kind = type(o)
    if kind is _Text:
        out.extend(o)
        return
    if kind in _PLAIN or (kind in _CONTAINERS and not o):
        out.append("".join(_chunk_encoder(",")(o, 0)))
        return
    outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    if kind not in _CONTAINERS or (kind is dict and not _STR.issuperset(map(type, o))):
        out.append(json.dumps(o, sort_keys=True, indent=2).replace("\n", outer))
        return
    if _PLAIN.issuperset(map(type, o.values() if kind is dict else o)):
        text = "".join(_chunk_encoder("," + inner)(o, 0))
        out.extend((text[0], inner, text[1:-1], outer, text[-1]))
        return
    columns: list[list[str]] = []
    if kind is not dict and (template := _row_template(o, depth + 1, columns, True)):
        rows = map(template.__mod__, zip(*columns))
        out.extend(("[", inner, ("," + inner).join(rows), outer, "]"))
        return
    if kind is dict:
        opener, closer = "{", "}"
        items = [
            (inner + encode_basestring_ascii(key) + ": ", value)
            for key, value in sorted(o.items())
        ]
    else:
        opener, closer = "[", "]"
        items = [(inner, value) for value in o]
    for i, (head, value) in enumerate(items):
        out.append(("," if i else opener) + head)
        _write_json(value, depth + 1, out)
    out.extend((outer, closer))


def write_text_atomic(path: Path | str, text: str | Iterable[str]) -> None:
    """Replace the file at ``path`` with ``text``, a string or string chunks.

    The chunks go one by one to a temporary file beside the target, which
    ``os.replace`` then moves over it, so a crash, or an error raised while
    the chunks are made, leaves the old file or the new one, never a partial
    one. A symlink is followed; a target that is not a regular file (a
    device such as ``/dev/null``, a pipe) is written in place. Missing
    parent directories are created.
    """
    chunks = (text,) if isinstance(text, str) else text
    path = Path(path).resolve()
    if path.exists() and not path.is_file():
        with path.open("w") as file:
            file.writelines(chunks)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w") as file:
            file.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
