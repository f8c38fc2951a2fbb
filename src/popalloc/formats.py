"""File formats: scenario documents, trace files, snapshot dumps, sweep CSV.

All documents carry rates in Mbps; conversion to the internal bits/second
happens here and nowhere else. JSON output is exactly
``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline: sorted keys and
shortest round-trip floats, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Sequence
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any

from .allocation import MBPS, SessionCensus, SystemParams
from .errors import DocumentError
from .satisfaction import SchemeComparison
from .simulation import EventKind, SimEvent, Snapshot, TraceResult


def _require(doc: dict, key: str, kind: type, where: str) -> Any:
    if key not in doc:
        raise DocumentError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
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
    entries = []
    for i, item in enumerate(sessions):
        if not isinstance(item, dict):
            raise DocumentError(f"scenario: sessions[{i}] must be an object")
        sid = _require(item, "id", str, f"sessions[{i}]")
        users = _require(item, "users", int, f"sessions[{i}]")
        entries.append((sid, users))
    try:
        params = SystemParams.from_mbps(capacity, beta_max, beta_min)
        census = SessionCensus.from_counts(entries)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    return params, census


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


def allocation_document(params: SystemParams, snapshot: Snapshot) -> dict:
    """One-shot output: the input document mirrored, each session annotated
    with its allocated rate, satisfaction, and layer plan, followed by the
    equal-share rate and the comparison of both schemes."""
    evaluation = snapshot.evaluation
    allocation = evaluation.allocation
    index = {entry.session_id: i for i, entry in enumerate(allocation.entries)}
    sessions = []
    for entry in snapshot.census.entries:
        i = index[entry.session_id]
        plan = snapshot.plans[i]
        sessions.append(
            {
                "id": entry.session_id,
                "users": entry.users,
                "rank": i + 1,
                "rate_mbps": allocation.entries[i].rate / MBPS,
                "satisfaction": evaluation.per_session[entry.session_id],
                "layers": {
                    "enhancements": plan.enhancement_count,
                    "granted_mbps": plan.granted_rate / MBPS,
                    "residual_mbps": plan.residual_rate / MBPS,
                },
            }
        )
    return {
        "capacity_mbps": params.capacity / MBPS,
        "beta_max_mbps": params.max_session_rate / MBPS,
        "beta_min_mbps": params.min_session_rate / MBPS,
        "regime": allocation.regime.value,
        "sessions": sessions,
        "equal_share_rate_mbps": evaluation.equal_share_rate / MBPS,
        **_scores(evaluation.comparison),
    }


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


def census_to_list(census: SessionCensus) -> list[dict]:
    return [{"id": e.session_id, "users": e.users} for e in census.entries]


def snapshot_to_dict(snapshot: Snapshot) -> dict:
    """Flatten one snapshot for JSON output, rates in Mbps."""
    evaluation = snapshot.evaluation
    pop_sat = evaluation.per_session
    comparison = evaluation.comparison
    doc = {
        "t": snapshot.time,
        "regime": snapshot.popularity.regime.value,
        "census": census_to_list(snapshot.census),
        "popularity": [
            {
                "id": entry.session_id,
                "rate_mbps": entry.rate / MBPS,
                "satisfaction": pop_sat[entry.session_id],
            }
            for entry in snapshot.popularity.entries
        ],
        "equal_share": {
            "rate_mbps": evaluation.equal_share_rate / MBPS,
            "satisfaction": comparison.avg_satisfaction_equal,
        },
        **_scores(comparison),
        "plans": [
            {
                "id": plan.session_id,
                "enhancements": plan.enhancement_count,
                "granted_mbps": plan.granted_rate / MBPS,
                "residual_mbps": plan.residual_rate / MBPS,
            }
            for plan in snapshot.plans
        ],
    }
    doc["comparison"]["delta_avg"] = comparison.delta_avg
    return doc


def trace_result_document(result: TraceResult) -> dict:
    return {
        "snapshots": [snapshot_to_dict(s) for s in result.snapshots],
        "rejections": [
            {
                "t": r.event.time,
                "ev": r.event.kind.value,
                "s": r.event.session_id,
                "to": r.event.to_session,
                "error": r.error,
                "detail": r.detail,
            }
            for r in result.rejections
        ],
    }


_PLAIN = frozenset((str, int, float, bool, type(None)))
_CONTAINERS = frozenset((dict, list, tuple))
_STR = frozenset((str,))


def _chunk_encoder(item_separator: str) -> Callable[[Any, int], Sequence[str]]:
    """A sorted-key encoder with no newlines of its own, returning chunks to
    join: the caller puts the newline and indent of a depth into
    ``item_separator``."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(item_separator, ": "))
    if c_make_encoder is None:
        return lambda o, _level: (encoder.encode(o),)
    # The arguments JSONEncoder.iterencode passes, minus the circular-check
    # markers: callers hand it only scalars and containers at most two deep.
    return c_make_encoder(
        None, encoder.default, encode_basestring_ascii, None,
        ": ", item_separator, True, False, True,
    )


def _is_plain(values: Iterable[Any]) -> bool:
    return _PLAIN.issuperset(map(type, values))


def dump_json(doc: Any) -> str:
    """Exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\n"``, faster.

    The stdlib encodes with ``indent`` in pure Python. Here every container
    of plain scalars, and every list of flat rows, is one call to the C
    encoder with the newline and indent of its depth in the item separator;
    only the brackets are placed by hand. Encoded strings hold no raw
    newline, so ``"},\n" + indent + "{"`` can only be a row boundary. Other
    containers are walked here; a value of any other type (a subclass, say)
    and a dict with a non-string key are left to the stdlib.
    """
    encoders: dict[int, Callable[[Any, int], Sequence[str]]] = {}
    scalar = _chunk_encoder(",")
    out: list[str] = []

    def encode(o: Any, depth: int) -> str:
        if depth not in encoders:
            encoders[depth] = _chunk_encoder(",\n" + "  " * depth)
        return "".join(encoders[depth](o, 0))

    def write(o: Any, depth: int) -> None:
        kind = type(o)
        if kind in _PLAIN or (kind in _CONTAINERS and not o):
            out.append("".join(scalar(o, 0)))
            return
        outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
        if kind not in _CONTAINERS or (kind is dict and not _STR.issuperset(map(type, o))):
            out.append(json.dumps(o, sort_keys=True, indent=2).replace("\n", outer))
            return
        if _is_plain(o.values() if kind is dict else o):
            text = encode(o, depth + 1)
            out.extend((text[0], inner, text[1:-1], outer, text[-1]))
            return
        if kind is not dict and all(
            type(row) is dict and row and _is_plain(row.values()) for row in o
        ):
            innermost = inner + "  "
            text = encode(o, depth + 2).replace(
                "}," + innermost + "{", inner + "}," + inner + "{" + innermost
            )
            out.extend(("[", inner, "{", innermost, text[2:-2], inner, "}", outer, "]"))
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
            head = ("," if i else opener) + head
            if type(value) in _PLAIN:
                out.append(head + "".join(scalar(value, 0)))
            else:
                out.append(head)
                write(value, depth + 1)
        out.extend((outer, closer))

    write(doc, 0)
    out.append("\n")
    return "".join(out)


def write_text_atomic(path: Path | str, text: str) -> None:
    """Replace the file at ``path`` with ``text`` in one step.

    The text goes to a temporary file beside the target, which ``os.replace``
    then moves over it, so a crash leaves either the old file or the new one,
    never a partial one. A symlink is followed; a target that is not a
    regular file (a device such as ``/dev/null``, a pipe) is written in place.
    Missing parent directories are created.
    """
    path = Path(path).resolve()
    if path.exists() and not path.is_file():
        path.write_text(text)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
