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


def _check_users(session_id: str, users: int) -> None:
    if not isinstance(users, int) or isinstance(users, bool) or users < 0:
        raise ValueError(
            f"user count must be a non-negative integer, got {users!r} "
            f"for session {session_id!r}"
        )


def _set_fields(obj: object, **fields: object) -> None:
    """Fill a frozen dataclass built without its ``__init__``."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class SessionCount:
    """One session id and its current audience size."""

    session_id: str
    users: int

    def __post_init__(self) -> None:
        _check_users(self.session_id, self.users)


@dataclass(frozen=True, init=False)
class SessionCensus:
    """Audience snapshot: how many users watch each active session.

    Held as two parallel columns, ``session_ids`` and ``users``;
    ``entries`` is a read-only view of them, built on first use.
    """

    session_ids: tuple[str, ...]
    users: tuple[int, ...]

    def __init__(self, entries: Iterable[SessionCount]) -> None:
        entries = tuple(entries)
        _set_fields(
            self,
            session_ids=tuple(entry.session_id for entry in entries),
            users=tuple(entry.users for entry in entries),
        )
        self._validate()

    def _validate(self) -> None:
        if not self.session_ids:
            raise ValueError("census needs at least one session")
        seen: set[str] = set()
        for sid in self.session_ids:
            if sid in seen:
                raise ValueError(f"duplicate session id {sid!r}")
            seen.add(sid)
        if self.total_users > MAX_TOTAL_USERS:
            raise ValueError("total audience is too large to convert to a float")

    @classmethod
    def from_counts(
        cls, counts: Mapping[str, int] | Iterable[tuple[str, int]]
    ) -> SessionCensus:
        pairs = tuple(counts.items() if isinstance(counts, Mapping) else counts)
        for sid, users in pairs:
            _check_users(sid, users)
        census = cls._of(tuple(sid for sid, _ in pairs), tuple(users for _, users in pairs))
        census._validate()
        return census

    @classmethod
    def _of(cls, session_ids: tuple[str, ...], users: tuple[int, ...]) -> SessionCensus:
        """A census of columns already checked, not checked again."""
        census = object.__new__(cls)
        _set_fields(census, session_ids=session_ids, users=users)
        return census

    @cached_property
    def entries(self) -> tuple[SessionCount, ...]:
        return tuple(map(SessionCount, self.session_ids, self.users))

    @property
    def session_count(self) -> int:
        return len(self.session_ids)

    @cached_property
    def total_users(self) -> int:
        return sum(self.users)

    def counts(self) -> dict[str, int]:
        return dict(zip(self.session_ids, self.users))


class RankedCensus(SessionCensus):
    """A census ordered most-watched first; list position is the rank."""

    def _validate(self) -> None:
        super()._validate()
        if any(map(operator.lt, self.users, self.users[1:])):
            raise ValueError("ranked census must have non-increasing user counts")


@dataclass(frozen=True)
class SessionRate:
    """One session id and its allocated rate in bits/second."""

    session_id: str
    rate: float


@dataclass(frozen=True, init=False)
class Allocation:
    """Per-session rates plus the scheme and regime that produced them.

    Held as two parallel columns, ``session_ids`` and ``session_rates``, in
    the order they were built in; popularity allocations are in rank order.
    ``entries`` is a read-only view of them, built on first use.
    """

    scheme: Scheme
    regime: Regime
    session_ids: tuple[str, ...]
    session_rates: tuple[float, ...]

    def __init__(self, scheme: Scheme, regime: Regime, entries: Iterable[SessionRate]) -> None:
        entries = tuple(entries)
        _set_fields(
            self,
            scheme=scheme,
            regime=regime,
            session_ids=tuple(entry.session_id for entry in entries),
            session_rates=tuple(entry.rate for entry in entries),
        )

    @classmethod
    def from_columns(
        cls, scheme: Scheme, regime: Regime, session_ids: Sequence[str], rates: Sequence[float]
    ) -> Allocation:
        allocation = object.__new__(cls)
        _set_fields(
            allocation,
            scheme=scheme,
            regime=regime,
            session_ids=tuple(session_ids),
            session_rates=tuple(rates),
        )
        return allocation

    @cached_property
    def entries(self) -> tuple[SessionRate, ...]:
        return tuple(map(SessionRate, self.session_ids, self.session_rates))

    def rates(self) -> dict[str, float]:
        return dict(zip(self.session_ids, self.session_rates))

    @property
    def total_rate(self) -> float:
        return sum(self.session_rates)


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


def rank_order(census: SessionCensus) -> list[int]:
    """The census's positions, largest audience first.

    Equal audiences are ordered by ascending session id so the ranking is
    deterministic; equal counts receive equal rates anyway. This is the
    order of ``(-users, session_id)``: a sort by id, then a stable one by
    audience.
    """
    order = sorted(range(census.session_count), key=census.session_ids.__getitem__)
    order.sort(key=census.users.__getitem__, reverse=True)
    return order


def rank_sessions(census: SessionCensus) -> RankedCensus:
    """The census in :func:`rank_order`, most-watched first."""
    order = rank_order(census)
    return RankedCensus._of(
        tuple(map(census.session_ids.__getitem__, order)),
        tuple(map(census.users.__getitem__, order)),
    )


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
    return Allocation.from_columns(
        Scheme.EQUAL_SHARE, regime, census.session_ids, (rate,) * census.session_count
    )


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
