"""Per-session bandwidth allocation over a shared wireless downlink.

Two schemes are implemented for broadcast/multicast video sessions. The
equal-share baseline splits capacity uniformly regardless of who watches
what. The popularity scheme ranks sessions by audience size and hands the
capacity above the guaranteed floor out in proportion to each session's
audience, trimming at a per-session cap and cascading the trimmed excess
down the ranking as one common shift.

All rates are floats in bits/second; Mbps conversion happens only at I/O
boundaries (see :mod:`popalloc.formats`).
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import InfeasibleCapacity, InternalInvariantError, ZeroAudience

MBPS = 1_000_000.0

# Largest cascade overshoot, as a fraction of capacity, put down to float
# rounding rather than to a bug.
ROUNDING_SLACK = 1e-9

# Largest total audience a census may hold, because audience-weighted sums
# convert it to a float: the largest integer that rounds to a finite one.
MAX_TOTAL_USERS = 2**1024 - 2**970 - 1


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
        if self.total_users > MAX_TOTAL_USERS:
            raise ValueError("total audience is too large to convert to a float")

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

    @classmethod
    def _from_ranking(cls, census: SessionCensus, ordered: list[SessionCount]) -> RankedCensus:
        """A ranking of ``census``'s validated entries, not checked again."""
        ranked = object.__new__(cls)
        object.__setattr__(ranked, "entries", tuple(ordered))
        object.__setattr__(ranked, "total_users", census.total_users)
        return ranked


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
    """The popularity cascade's shape, kept for diagnostics and tests.

    ``surplus_coefficient`` is the extra bandwidth each watching user pulls
    toward its session (bits/second per user). The first ``capped`` ranks
    hold the cap; every later rank j gets
    ``floor + (surplus_coefficient * u_j + shift)``, where ``shift`` sums the
    even splits of the excess the capped ranks passed down. Saturated
    allocations have ``capped`` equal to M; an all-empty census, which gets
    the even split, has ``capped`` 0 and ``shift`` 0.0.
    """

    surplus_coefficient: float
    capped: int
    shift: float


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
    return RankedCensus._from_ranking(census, ordered)


def _surplus_per_user(params: SystemParams, session_count: int, total_users: int) -> float:
    return (params.capacity - session_count * params.min_session_rate) / total_users


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
    return _surplus_per_user(params, census.session_count, total_users), headroom


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
    params: SystemParams, users: Sequence[int]
) -> tuple[list[float], SurplusLedger]:
    """Allocate capacity by audience size, respecting floor and cap.

    ``users`` holds each session's audience in rank order, most-watched
    first (see :func:`rank_sessions`); the rates come back in the same
    order. Counts that increase anywhere, a negative count, or a total too
    large for a float raise :class:`ValueError`.

    In the saturated regime every session simply gets the cap. Otherwise
    each session starts at the floor and claims its audience share of the
    spare capacity (surplus coefficient times its user count) plus a common
    shift. Ranks whose claim reaches the cap form a prefix of the ranking;
    each is trimmed to the cap and splits its excess evenly over the
    sessions after it, which raises the shift.

    Returns the rates and the cascade ledger.
    Raises :class:`InfeasibleCapacity` when even the floor does not fit. The
    last rank cannot overflow in exact arithmetic; an overshoot there within
    ``ROUNDING_SLACK`` of capacity is float rounding and is clamped to the
    cap, a larger one raises :class:`InternalInvariantError`. An
    all-empty census in the constrained regime falls back to the equal
    share, which by regime definition lies between floor and cap; where
    capacity sits at M times the floor, the split can round an ulp below
    the floor and is raised to it.
    """
    session_count = len(users)
    if any(map(operator.lt, users, users[1:])):
        raise ValueError("user counts must be in rank order (non-increasing)")
    if session_count and users[-1] < 0:
        raise ValueError(f"user counts must be non-negative, got {users[-1]!r}")
    regime = classify_regime(params, session_count)
    if regime is Regime.INFEASIBLE:
        raise InfeasibleCapacity(
            f"{session_count} sessions need at least "
            f"{session_count * params.min_session_rate / MBPS:g} Mbps of floor, "
            f"capacity is {params.capacity / MBPS:g} Mbps"
        )
    total_users = sum(users)
    if total_users > MAX_TOTAL_USERS:
        raise ValueError("total audience is too large to convert to a float")
    if regime is Regime.SATURATED or total_users == 0:
        uniform = max(equal_share_rate(params, session_count), params.min_session_rate)
        ledger = SurplusLedger(0.0, session_count if regime is Regime.SATURATED else 0, 0.0)
        return [uniform] * session_count, ledger

    headroom = params.max_session_rate - params.min_session_rate
    coefficient = _surplus_per_user(params, session_count, total_users)
    capped = 0
    shift = 0.0
    for count in users:
        claim = coefficient * count + shift
        if claim < headroom:
            break
        capped += 1
        if capped < session_count:
            shift += (claim - headroom) / (session_count - capped)
        elif claim - headroom > ROUNDING_SLACK * params.capacity:
            # Ranked input provably never overflows at the last rank;
            # beyond float rounding, clamping would silently drop
            # bandwidth.
            raise InternalInvariantError(
                f"cascade overflow at final rank (claim {claim} > headroom {headroom})"
            )
    floor = params.min_session_rate
    rates = [params.max_session_rate] * capped
    rates += [floor + (coefficient * count + shift) for count in users[capped:]]
    return rates, SurplusLedger(coefficient, capped, shift)
