"""Event-driven replay of audience churn.

Every accepted event mutates the census and triggers a full recompute:
one :func:`~popalloc.satisfaction.evaluate` of the new census, then its
layers re-quantized. Allocation state is therefore memoryless, a pure
function of the current census.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from .allocation import (
    MAX_TOTAL_USERS,
    Allocation,
    Regime,
    SessionCensus,
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
from .layers import LayerPlans, LayerProfile, quantize_allocation
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
class Snapshot:
    """The census at one instant plus everything derived from it: the
    evaluation of both schemes and the layer plans of the popularity
    allocation. The simulator's state is its latest snapshot.

    Census, allocation and plans are held as columns (ids, counts, rates,
    one plan per distinct rate); their per-session records are views built
    only when read."""

    time: float
    census: SessionCensus
    evaluation: Evaluation
    plans: LayerPlans

    @property
    def popularity(self) -> Allocation:
        return self.evaluation.allocation

    @property
    def comparison(self) -> SchemeComparison:
        return self.evaluation.comparison

    @classmethod
    def from_census(
        cls,
        census: SessionCensus,
        params: SystemParams,
        profile: LayerProfile,
        time: float = 0.0,
    ) -> Snapshot:
        evaluation = evaluate(params, census)
        return cls(time, census, evaluation, quantize_allocation(evaluation.allocation, profile))


# The older name for the simulator's state; perfbench's layer tracer wraps
# ``SimState.from_census`` by this name.
SimState = Snapshot


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


def _apply_counts(
    counts: dict[str, int], event: SimEvent, params: SystemParams, total: int
) -> int:
    """Apply ``event`` to ``counts`` in place and return the new total
    audience. Raises, before any change, what :func:`apply_event` raises."""
    kind, sid = event.kind, event.session_id
    if kind is not EventKind.SESSION_START and sid not in counts:
        raise UnknownSession(f"session {sid!r} is not active")
    if kind is EventKind.USER_JOIN:
        if total >= MAX_TOTAL_USERS:
            raise InfeasibleCapacity("event would make the total audience too large for a float")
        counts[sid] += 1
        return total + 1
    if kind is EventKind.USER_LEAVE:
        if counts[sid] == 0:
            raise EmptySession(f"session {sid!r} has no users to leave")
        counts[sid] -= 1
        return total - 1
    if kind is EventKind.USER_SWITCH:
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
        if classify_regime(params, len(counts) + 1) is Regime.INFEASIBLE:
            raise InfeasibleCapacity(
                f"event would leave {len(counts) + 1} sessions, more than the floor supports"
            )
        counts[sid] = 0
    elif kind is EventKind.SESSION_STOP:
        if len(counts) == 1:
            # An empty system has no allocation to maintain; refuse rather
            # than model it.
            raise InfeasibleCapacity("stopping the last session leaves nothing to allocate")
        return total - counts.pop(sid)
    return total


def apply_event(
    state: Snapshot, event: SimEvent, params: SystemParams, profile: LayerProfile
) -> Snapshot:
    """Apply one event and return the snapshot of the census it leaves.

    Raises without side effects when the event is inapplicable
    (:class:`UnknownSession`, :class:`EmptySession`,
    :class:`DuplicateSession`) or would make the system infeasible
    (:class:`InfeasibleCapacity`); the caller keeps the old state.
    """
    counts = state.census.counts()
    _apply_counts(counts, event, params, state.census.total_users)
    census = SessionCensus._of(tuple(counts), tuple(counts.values()))
    return Snapshot.from_census(census, params, profile, event.time)


def stream_trace(
    params: SystemParams,
    profile: LayerProfile,
    initial: SessionCensus,
    trace: Sequence[SimEvent],
) -> tuple[tuple[RejectedEvent, ...], Iterator[Snapshot]]:
    """Replay a time-ordered trace: the rejected events, found on audience
    counts alone, and an iterator that evaluates the snapshot of the initial
    state (at t=0) and of each accepted event as it is reached. Input errors
    (:class:`TraceOrder`, an infeasible initial census) raise first."""
    counts, total = initial.counts(), initial.total_users
    rejections: list[RejectedEvent] = []
    accepted: list[SimEvent] = []
    previous = 0.0
    for event in trace:
        if event.time < previous:
            raise TraceOrder(f"event at t={event.time} follows one at t={previous}")
        previous = event.time
        try:
            total = _apply_counts(counts, event, params, total)
        except (UnknownSession, EmptySession, DuplicateSession, InfeasibleCapacity) as exc:
            rejections.append(RejectedEvent(event, type(exc).__name__, str(exc)))
        else:
            accepted.append(event)
    first = Snapshot.from_census(initial, params, profile)
    step = functools.partial(apply_event, params=params, profile=profile)
    return tuple(rejections), itertools.accumulate(accepted, step, initial=first)


def run_trace(
    params: SystemParams,
    profile: LayerProfile,
    initial: SessionCensus,
    trace: Sequence[SimEvent],
) -> TraceResult:
    """:func:`stream_trace` with every snapshot kept."""
    rejections, snapshots = stream_trace(params, profile, initial, trace)
    return TraceResult(tuple(snapshots), rejections)


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
    import numpy as np

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
