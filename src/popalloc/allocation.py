"""Per-session bandwidth allocation over a shared wireless downlink.

Two schemes are implemented for broadcast/multicast video sessions. The
equal-share baseline splits capacity uniformly regardless of who watches
what. The popularity scheme ranks sessions by audience size and hands the
capacity above the guaranteed floor out in proportion to each session's
audience, trimming at a per-session cap and cascading the trimmed excess
down the ranking.

All rates are floats in bits/second; Mbps conversion happens only at I/O
boundaries (see :mod:`popalloc.formats`).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property

from .errors import InfeasibleCapacity, InternalInvariantError, ZeroAudience

MBPS = 1_000_000.0

# Largest cascade overshoot, as a fraction of capacity, put down to float
# rounding rather than to a bug.
ROUNDING_SLACK = 1e-9


class Scheme(enum.Enum):
    """Which allocation rule produced a set of rates."""

    EQUAL_SHARE = "equal_share"
    POPULARITY = "popularity"


class Regime(enum.Enum):
    """Capacity relative to the per-session cap and floor.

    SATURATED: every active session can be given the cap.
    CONSTRAINED: the floor fits for everyone, the cap does not.
    INFEASIBLE: even the floor cannot be met for all sessions.
    """

    SATURATED = "saturated"
    CONSTRAINED = "constrained"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SystemParams:
    """Total downlink capacity plus the per-session rate cap and floor.

    ``max_session_rate`` is the full-quality rate every session would like;
    ``min_session_rate`` guarantees minimum quality. Bits/second.
    """

    capacity: float
    max_session_rate: float
    min_session_rate: float

    def __post_init__(self) -> None:
        for name in ("capacity", "max_session_rate", "min_session_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.capacity > 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if not 0 < self.min_session_rate <= self.max_session_rate:
            raise ValueError(
                "need 0 < min_session_rate <= max_session_rate, got "
                f"min={self.min_session_rate} max={self.max_session_rate}"
            )

    @classmethod
    def from_mbps(
        cls, capacity: float, max_session_rate: float, min_session_rate: float
    ) -> SystemParams:
        return cls(capacity * MBPS, max_session_rate * MBPS, min_session_rate * MBPS)


@dataclass(frozen=True)
class SessionCount:
    """One session id and its current audience size."""

    session_id: str
    users: int

    def __post_init__(self) -> None:
        if not isinstance(self.users, int) or isinstance(self.users, bool) or self.users < 0:
            raise ValueError(
                f"user count must be a non-negative integer, got {self.users!r} "
                f"for session {self.session_id!r}"
            )


@dataclass(frozen=True)
class SessionCensus:
    """Audience snapshot: how many users watch each active session."""

    entries: tuple[SessionCount, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("census needs at least one session")
        seen: set[str] = set()
        for entry in self.entries:
            if entry.session_id in seen:
                raise ValueError(f"duplicate session id {entry.session_id!r}")
            seen.add(entry.session_id)

    @classmethod
    def from_counts(
        cls, counts: Mapping[str, int] | Iterable[tuple[str, int]]
    ) -> SessionCensus:
        items = counts.items() if isinstance(counts, Mapping) else counts
        return cls(tuple(SessionCount(sid, users) for sid, users in items))

    @property
    def session_count(self) -> int:
        return len(self.entries)

    @cached_property
    def total_users(self) -> int:
        return sum(entry.users for entry in self.entries)

    def counts(self) -> dict[str, int]:
        return {entry.session_id: entry.users for entry in self.entries}


@dataclass(frozen=True)
class RankedCensus(SessionCensus):
    """A census ordered most-watched first; list position is the rank."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for prev, cur in zip(self.entries, self.entries[1:]):
            if cur.users > prev.users:
                raise ValueError("ranked census must have non-increasing user counts")


@dataclass(frozen=True)
class SessionRate:
    """One session id and its allocated rate in bits/second."""

    session_id: str
    rate: float


@dataclass(frozen=True)
class Allocation:
    """Per-session rates plus the scheme and regime that produced them.

    Entries keep the order they were built in; popularity allocations are in
    rank order.
    """

    scheme: Scheme
    regime: Regime
    entries: tuple[SessionRate, ...]

    def rates(self) -> dict[str, float]:
        return {entry.session_id: entry.rate for entry in self.entries}

    @property
    def total_rate(self) -> float:
        return sum(entry.rate for entry in self.entries)


@dataclass(frozen=True)
class SurplusLedger:
    """Intermediates of the popularity cascade, kept for diagnostics and tests.

    ``surplus_coefficient`` is the extra bandwidth each watching user pulls
    toward its session (bits/second per user). ``headroom`` is cap minus
    floor. ``carries`` holds the per-remaining-session spill passed down by
    each of the first M-1 ranks, zero where nothing spilled; the last rank
    has nobody left to spill to, so it never defines a carry.
    """

    surplus_coefficient: float
    headroom: float
    carries: tuple[float, ...]


def classify_regime(params: SystemParams, session_count: int) -> Regime:
    """Place a session count on the saturated/constrained/infeasible scale."""
    if session_count < 1:
        raise ValueError(f"session_count must be >= 1, got {session_count}")
    if params.max_session_rate * session_count <= params.capacity:
        return Regime.SATURATED
    if params.min_session_rate * session_count <= params.capacity:
        return Regime.CONSTRAINED
    return Regime.INFEASIBLE


def rank_sessions(census: SessionCensus) -> RankedCensus:
    """Order sessions by audience size, largest first.

    Equal audiences are ordered by ascending session id so the ranking is
    deterministic; equal counts receive equal rates anyway.
    """
    ordered = sorted(census.entries, key=lambda e: (-e.users, e.session_id))
    return RankedCensus(tuple(ordered))


def surplus_coefficients(
    params: SystemParams, census: SessionCensus
) -> tuple[float, float]:
    """Per-user surplus rate and the floor-to-cap headroom.

    The surplus coefficient is the capacity left once every session holds its
    floor, divided by the total audience. Meaningful in the constrained
    regime, where it is non-negative.
    """
    headroom = params.max_session_rate - params.min_session_rate
    total_users = census.total_users
    if total_users == 0:
        raise ZeroAudience("no users in any session; surplus per user is undefined")
    spare = params.capacity - census.session_count * params.min_session_rate
    return spare / total_users, headroom


def equal_share_rate(params: SystemParams, session_count: int) -> float:
    """Uniform per-session rate: the cap when it fits, else a plain split.

    The baseline deliberately applies no floor; with enough sessions the
    equal split drops below ``min_session_rate``.
    """
    if classify_regime(params, session_count) is Regime.SATURATED:
        return params.max_session_rate
    return params.capacity / session_count


def equal_share_allocate(
    params: SystemParams, census: SessionCensus
) -> Allocation:
    """Equal-share allocation keyed by the census's session ids."""
    rate = equal_share_rate(params, census.session_count)
    regime = classify_regime(params, census.session_count)
    entries = tuple(SessionRate(entry.session_id, rate) for entry in census.entries)
    return Allocation(Scheme.EQUAL_SHARE, regime, entries)


def popularity_allocate(
    params: SystemParams, ranked: RankedCensus
) -> tuple[Allocation, SurplusLedger]:
    """Allocate capacity by audience size, respecting floor and cap.

    In the saturated regime every session simply gets the cap. Otherwise
    each session starts at the floor and claims its audience share of the
    spare capacity (surplus coefficient times its user count) plus whatever
    carries spilled down from more popular sessions. A claim that would
    push past the cap is trimmed there, and the excess is split evenly over
    the sessions still waiting; those splits are the carries.

    Returns the allocation (entries in rank order) and the cascade ledger.
    Raises :class:`InfeasibleCapacity` when even the floor does not fit. The
    last rank cannot overflow in exact arithmetic; an overshoot there within
    ``ROUNDING_SLACK`` of capacity is float rounding and is clamped to the
    cap, a larger one raises :class:`InternalInvariantError`. An
    all-empty census in the constrained regime falls back to the equal
    share, which by regime definition lies between floor and cap.
    """
    if not isinstance(ranked, RankedCensus):
        raise TypeError("popularity_allocate needs a RankedCensus; call rank_sessions first")
    regime = classify_regime(params, ranked.session_count)
    headroom = params.max_session_rate - params.min_session_rate
    if regime is Regime.INFEASIBLE:
        raise InfeasibleCapacity(
            f"{ranked.session_count} sessions need at least "
            f"{ranked.session_count * params.min_session_rate / MBPS:g} Mbps of floor, "
            f"capacity is {params.capacity / MBPS:g} Mbps"
        )
    session_count = ranked.session_count
    if regime is Regime.SATURATED or ranked.total_users == 0:
        uniform = equal_share_rate(params, session_count)
        entries = tuple(
            SessionRate(entry.session_id, uniform) for entry in ranked.entries
        )
        return Allocation(Scheme.POPULARITY, regime, entries), SurplusLedger(
            0.0, headroom, ()
        )

    coefficient, _ = surplus_coefficients(params, ranked)
    carry_sum = 0.0
    carries: list[float] = []
    entries_out: list[SessionRate] = []
    for position, entry in enumerate(ranked.entries, start=1):
        claim = coefficient * entry.users + carry_sum
        if claim >= headroom:
            entries_out.append(SessionRate(entry.session_id, params.max_session_rate))
            if position < session_count:
                carry = (claim - headroom) / (session_count - position)
                carries.append(carry)
                carry_sum += carry
            elif claim - headroom > ROUNDING_SLACK * params.capacity:
                # Ranked input provably never overflows at the last rank;
                # beyond float rounding, clamping would silently drop
                # bandwidth.
                raise InternalInvariantError(
                    f"cascade overflow at final rank (claim {claim} > headroom {headroom})"
                )
        else:
            entries_out.append(
                SessionRate(entry.session_id, params.min_session_rate + claim)
            )
            if position < session_count:
                carries.append(0.0)
    allocation = Allocation(Scheme.POPULARITY, regime, tuple(entries_out))
    return allocation, SurplusLedger(coefficient, headroom, tuple(carries))
