"""Event-driven replay of audience churn.

Every accepted event mutates the census and triggers a full recompute:
one :func:`~popalloc.satisfaction.evaluate` of the new census, then its
layers re-quantized. Allocation state is therefore memoryless, a pure
function of the current census.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .allocation import (
    Allocation,
    Regime,
    SessionCensus,
    SessionCount,
    SystemParams,
    classify_regime,
)
from .errors import (
    DuplicateSession,
    EmptySession,
    InfeasibleCapacity,
    TraceOrder,
    UnknownSession,
)
from .layers import LayeredPlan, LayerProfile, quantize_allocation
from .satisfaction import Evaluation, SchemeComparison, evaluate


class EventKind(enum.Enum):
    """Churn event kinds; values double as the trace-file wire names."""

    USER_JOIN = "join"
    USER_LEAVE = "leave"
    USER_SWITCH = "switch"
    SESSION_START = "start"
    SESSION_STOP = "stop"


@dataclass(frozen=True)
class SimEvent:
    """One churn event. ``session_id`` is the (from-)session; ``to_session``
    is set only for switches."""

    time: float
    kind: EventKind
    session_id: str
    to_session: str | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError(f"event time must be finite and >= 0, got {self.time}")
        if self.kind is EventKind.USER_SWITCH:
            if self.to_session is None:
                raise ValueError("switch events need a to_session")
        elif self.to_session is not None:
            raise ValueError(f"{self.kind.value} events take no to_session")


@dataclass(frozen=True)
class SimState:
    """Current census plus everything derived from it: the evaluation of both
    schemes and the layer plans of the popularity allocation."""

    census: SessionCensus
    evaluation: Evaluation
    plans: tuple[LayeredPlan, ...]

    @property
    def popularity(self) -> Allocation:
        return self.evaluation.allocation

    @classmethod
    def from_census(
        cls, census: SessionCensus, params: SystemParams, profile: LayerProfile
    ) -> SimState:
        evaluation = evaluate(params, census)
        plans = tuple(quantize_allocation(evaluation.allocation, profile))
        return cls(census, evaluation, plans)


@dataclass(frozen=True)
class Snapshot:
    """Full post-event record: census, evaluation of both schemes, layer plans."""

    time: float
    census: SessionCensus
    evaluation: Evaluation
    plans: tuple[LayeredPlan, ...]

    @property
    def popularity(self) -> Allocation:
        return self.evaluation.allocation

    @property
    def comparison(self) -> SchemeComparison:
        return self.evaluation.comparison


@dataclass(frozen=True)
class RejectedEvent:
    """An event the simulator refused, with the reason."""

    event: SimEvent
    error: str
    detail: str


@dataclass(frozen=True)
class TraceResult:
    """Snapshots for the initial state and every accepted event, plus the
    events that were rejected along the way."""

    snapshots: tuple[Snapshot, ...]
    rejections: tuple[RejectedEvent, ...]


def _snapshot(time: float, state: SimState) -> Snapshot:
    return Snapshot(time, state.census, state.evaluation, state.plans)


def _updated_census(
    census: SessionCensus, event: SimEvent, params: SystemParams
) -> SessionCensus:
    counts = census.counts()
    kind = event.kind
    sid = event.session_id

    if kind in (EventKind.USER_JOIN, EventKind.USER_LEAVE, EventKind.USER_SWITCH,
                EventKind.SESSION_STOP) and sid not in counts:
        raise UnknownSession(f"session {sid!r} is not active")

    if kind is EventKind.USER_JOIN:
        counts[sid] += 1
    elif kind is EventKind.USER_LEAVE:
        if counts[sid] == 0:
            raise EmptySession(f"session {sid!r} has no users to leave")
        counts[sid] -= 1
    elif kind is EventKind.USER_SWITCH:
        target = event.to_session
        if target not in counts:
            raise UnknownSession(f"session {target!r} is not active")
        if counts[sid] == 0:
            raise EmptySession(f"session {sid!r} has no users to switch away")
        counts[sid] -= 1
        counts[target] += 1
    elif kind is EventKind.SESSION_START:
        if sid in counts:
            raise DuplicateSession(f"session {sid!r} is already active")
        counts[sid] = 0
    elif kind is EventKind.SESSION_STOP:
        if len(counts) == 1:
            # An empty system has no allocation to maintain; refuse rather
            # than model it.
            raise InfeasibleCapacity("stopping the last session leaves nothing to allocate")
        del counts[sid]

    updated = SessionCensus(tuple(SessionCount(s, n) for s, n in counts.items()))
    if classify_regime(params, updated.session_count) is Regime.INFEASIBLE:
        raise InfeasibleCapacity(
            f"event would leave {updated.session_count} sessions, more than the floor supports"
        )
    return updated


def apply_event(
    state: SimState, event: SimEvent, params: SystemParams, profile: LayerProfile
) -> tuple[SimState, Snapshot]:
    """Apply one event and recompute everything downstream of the census.

    Raises without side effects when the event is inapplicable
    (:class:`UnknownSession`, :class:`EmptySession`,
    :class:`DuplicateSession`) or would make the system infeasible
    (:class:`InfeasibleCapacity`); the caller keeps the old state.
    """
    census = _updated_census(state.census, event, params)
    new_state = SimState.from_census(census, params, profile)
    return new_state, _snapshot(event.time, new_state)


def run_trace(
    params: SystemParams,
    profile: LayerProfile,
    initial: SessionCensus,
    trace: Sequence[SimEvent],
) -> TraceResult:
    """Replay a time-ordered trace from an initial census.

    The result holds one snapshot for the initial state (at t=0) plus one per
    accepted event; rejected events are recorded with their error and leave
    the state untouched. Raises :class:`TraceOrder` if timestamps regress.
    """
    previous = None
    for event in trace:
        if previous is not None and event.time < previous:
            raise TraceOrder(
                f"event at t={event.time} follows one at t={previous}"
            )
        previous = event.time

    state = SimState.from_census(initial, params, profile)
    snapshots = [_snapshot(0.0, state)]
    rejections: list[RejectedEvent] = []
    for event in trace:
        try:
            state, snap = apply_event(state, event, params, profile)
        except (UnknownSession, EmptySession, DuplicateSession, InfeasibleCapacity) as exc:
            rejections.append(RejectedEvent(event, type(exc).__name__, str(exc)))
            continue
        snapshots.append(snap)
    return TraceResult(tuple(snapshots), tuple(rejections))


@dataclass(frozen=True)
class TraceGenConfig:
    """Synthetic churn recipe: the starting census, how many events to draw,
    the relative weight of join/leave/switch kinds, and the mean spacing in
    seconds. Switch-only mixes conserve the total user count by construction."""

    census: SessionCensus
    events: int
    weights: Mapping[str, float] = field(
        default_factory=lambda: {"switch": 1.0}
    )
    mean_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.events < 0:
            raise ValueError(f"events must be >= 0, got {self.events}")
        unknown = set(self.weights) - {"join", "leave", "switch"}
        if unknown:
            raise ValueError(f"unknown event kinds in weights: {sorted(unknown)}")
        if any(w < 0 for w in self.weights.values()) or sum(self.weights.values()) <= 0:
            raise ValueError("weights must be non-negative with a positive sum")
        if not self.mean_interval > 0:
            raise ValueError(f"mean_interval must be positive, got {self.mean_interval}")


def generate_trace(config: TraceGenConfig, seed: int) -> list[SimEvent]:
    """Draw a deterministic, always-applicable churn trace.

    Leaves and switches are only drawn against sessions that currently hold
    users (the generator tracks counts as it goes), so replaying the trace
    from ``config.census`` never rejects an event.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    counts = config.census.counts()
    ids = sorted(counts)
    kinds = sorted(k for k, w in config.weights.items() if w > 0)
    events: list[SimEvent] = []
    t = 0.0
    for _ in range(config.events):
        t += float(rng.exponential(config.mean_interval))
        occupied = [sid for sid in ids if counts[sid] > 0]
        usable = [k for k in kinds if k == "join" or occupied]
        if not usable:
            raise ValueError("no applicable event kind: all sessions are empty")
        probs = np.array([config.weights[k] for k in usable], dtype=float)
        kind = usable[int(rng.choice(len(usable), p=probs / probs.sum()))]
        if kind == "join":
            sid = ids[int(rng.integers(len(ids)))]
            counts[sid] += 1
            events.append(SimEvent(t, EventKind.USER_JOIN, sid))
        elif kind == "leave":
            sid = occupied[int(rng.integers(len(occupied)))]
            counts[sid] -= 1
            events.append(SimEvent(t, EventKind.USER_LEAVE, sid))
        else:
            sid = occupied[int(rng.integers(len(occupied)))]
            targets = [other for other in ids if other != sid] or [sid]
            target = targets[int(rng.integers(len(targets)))]
            counts[sid] -= 1
            counts[target] += 1
            events.append(SimEvent(t, EventKind.USER_SWITCH, sid, target))
    return events
