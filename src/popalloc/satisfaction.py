"""User satisfaction metrics and the head-to-head scheme comparison.

Satisfaction is the linear rate ratio: a session's allocated rate over the
full-quality rate, 1.0 when the demand is fully met. Averages weight each
session by its audience.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .allocation import (
    MBPS,
    Allocation,
    Regime,
    Scheme,
    SessionCensus,
    SurplusLedger,
    SystemParams,
    classify_regime,
    equal_share_rate,
    popularity_allocate,
    rank_order,
)
from .errors import ZeroAudience

# Rates within this many Mbps count as "unchanged" between schemes: uniform
# censuses make both schemes agree exactly, but float summation order can
# perturb the cascade by a few ulps.
RATE_TIE_TOLERANCE_MBPS = 1e-12


@dataclass(frozen=True)
class SatisfactionReport:
    """Per-session satisfaction plus the audience-weighted average."""

    scheme: Scheme
    per_session: dict[str, float]
    average: float


@dataclass(frozen=True)
class SchemeComparison:
    """Who gains and who loses when popularity allocation replaces equal share."""

    improved_users: int
    degraded_users: int
    unchanged_users: int
    avg_satisfaction_equal: float
    avg_satisfaction_popularity: float

    @property
    def delta_avg(self) -> float:
        return self.avg_satisfaction_popularity - self.avg_satisfaction_equal


@dataclass(frozen=True)
class Evaluation:
    """Both schemes scored on one census under ``params``.

    ``order`` holds the census positions in rank order; ``allocation`` is
    the popularity allocation in that order, with the cascade's ``ledger``;
    ``equal_share_rate`` is the one rate every session gets under equal
    share; ``comparison`` holds both audience-weighted averages and the
    improved/degraded/unchanged tallies. ``per_session``, each session's
    popularity satisfaction in rank order, is built on first use.
    """

    params: SystemParams
    order: tuple[int, ...]
    allocation: Allocation
    ledger: SurplusLedger
    equal_share_rate: float
    comparison: SchemeComparison

    @cached_property
    def per_session(self) -> dict[str, float]:
        max_rate = self.params.max_session_rate
        rates = self.allocation.session_rates
        return {sid: rate / max_rate for sid, rate in zip(self.allocation.session_ids, rates)}


def equal_share_satisfaction(params: SystemParams, session_count: int) -> float:
    """Satisfaction of every user under the equal split: ``C / (β_max·M)``."""
    if classify_regime(params, session_count) is Regime.SATURATED:
        return 1.0
    return params.capacity / (params.max_session_rate * session_count)


def session_satisfaction(
    params: SystemParams, allocation: Allocation
) -> dict[str, float]:
    """Per-session satisfaction: allocated rate over the full-quality rate."""
    return {
        entry.session_id: entry.rate / params.max_session_rate
        for entry in allocation.entries
    }


def average_satisfaction(
    params: SystemParams, allocation: Allocation, census: SessionCensus
) -> float:
    """Audience-weighted mean satisfaction across sessions."""
    total_users = census.total_users
    if total_users == 0:
        raise ZeroAudience("average satisfaction is undefined with no users")
    counts = census.counts()
    per_session = session_satisfaction(params, allocation)
    if set(per_session) != set(counts):
        raise ValueError("allocation and census cover different sessions")
    weighted = sum(per_session[sid] * counts[sid] for sid in per_session)
    return weighted / total_users


def satisfaction_report(
    params: SystemParams, allocation: Allocation, census: SessionCensus
) -> SatisfactionReport:
    """Bundle per-session and average satisfaction for one allocation.

    With an all-empty census the weighted average is undefined; every session
    then counts once, which matches the allocator's uniform fallback.
    """
    per_session = session_satisfaction(params, allocation)
    if census.total_users == 0:
        average = sum(per_session.values()) / len(per_session)
    else:
        average = average_satisfaction(params, allocation, census)
    return SatisfactionReport(allocation.scheme, per_session, average)


def _compare(
    params: SystemParams,
    eq_rate: float,
    users: Sequence[int],
    rates: Sequence[float],
) -> SchemeComparison:
    """Score popularity ``rates`` against the equal share ``eq_rate``, both
    for sessions with ``users`` in rank order."""
    max_rate = params.max_session_rate
    improved = degraded = unchanged = 0
    # Summed left to right in rank order: builtin ``sum`` of floats is
    # compensated from Python 3.12 on, which changes the last digits.
    weighted = 0.0
    for count, rate in zip(users, rates):
        weighted += rate / max_rate * count
        delta_mbps = (rate - eq_rate) / MBPS
        if abs(delta_mbps) <= RATE_TIE_TOLERANCE_MBPS:
            unchanged += count
        elif delta_mbps > 0:
            improved += count
        else:
            degraded += count
    avg_equal = equal_share_satisfaction(params, len(users))
    total_users = improved + degraded + unchanged
    if total_users == 0:
        avg_popularity = avg_equal
    else:
        avg_popularity = weighted / total_users
    return SchemeComparison(improved, degraded, unchanged, avg_equal, avg_popularity)


def evaluate(params: SystemParams, census: SessionCensus) -> Evaluation:
    """Rank once, run the cascade once, and score both schemes.

    Each user is classified by the sign of its session's rate change
    (popularity minus equal share), with ties called at
    ``RATE_TIE_TOLERANCE_MBPS``. The popularity average sums
    ``(rate / β_max) · users`` in rank order over the total audience; the
    equal-share average is ``C / (β_max·M)``. An all-empty census gets the
    equal-share average under both schemes, since the allocator's uniform
    fallback is the even split. Propagates :class:`InfeasibleCapacity` when
    the floor does not fit.
    """
    order = rank_order(census)
    users = list(map(census.users.__getitem__, order))
    rates, ledger = popularity_allocate(params, users)
    ids = map(census.session_ids.__getitem__, order)
    regime = classify_regime(params, len(order))
    allocation = Allocation.from_columns(Scheme.POPULARITY, regime, ids, rates)
    eq_rate = equal_share_rate(params, len(order))
    comparison = _compare(params, eq_rate, users, rates)
    return Evaluation(params, tuple(order), allocation, ledger, eq_rate, comparison)


def compare_schemes(params: SystemParams, census: SessionCensus) -> SchemeComparison:
    """Run both schemes on one census and tally improved/degraded users."""
    return evaluate(params, census).comparison
