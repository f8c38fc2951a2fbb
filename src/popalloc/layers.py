"""Whole-layer quantization of continuous session rates.

Receivers subscribe to complete video layers, never fractions, so a
session's continuous rate is realized as one base layer plus as many
uniform enhancement layers as fit underneath the allocated rate.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .allocation import MBPS, Allocation, SystemParams
from .errors import ProfileInfeasible

# The quantizer steps from a layer count to the next one, and from 2**53 on
# a count and its successor convert to the same float.
MAX_ENHANCEMENT_LAYERS = 2**53 - 1


@dataclass(frozen=True)
class LayerProfile:
    """Layer sizing for a run: base-layer rate and uniform enhancement-layer
    rate. The base rate must not exceed the system's per-session floor, or
    the guaranteed minimum quality could not be delivered."""

    base_rate: float
    enhancement_rate: float

    def __post_init__(self) -> None:
        if not 0 < self.base_rate < math.inf:
            raise ValueError(f"base_rate must be positive and finite, got {self.base_rate}")
        if not 0 < self.enhancement_rate < math.inf:
            raise ValueError(
                f"enhancement_rate must be positive and finite, got {self.enhancement_rate}"
            )

    @classmethod
    def from_mbps(cls, base_rate: float, enhancement_rate: float) -> LayerProfile:
        return cls(base_rate * MBPS, enhancement_rate * MBPS)


@dataclass(frozen=True)
class LayeredPlan:
    """Layer subscription for one session: base plus ``enhancement_count``
    enhancements, granting ``granted_rate`` and leaving ``residual_rate`` of
    the allocation unused."""

    session_id: str
    enhancement_count: int
    granted_rate: float
    residual_rate: float


def check_profile_fits(params: SystemParams, profile: LayerProfile) -> None:
    """Reject profiles whose base layer exceeds the guaranteed floor, or
    whose enhancement layers are so thin that more than
    ``MAX_ENHANCEMENT_LAYERS`` fit under the cap."""
    if profile.base_rate > params.min_session_rate:
        raise ProfileInfeasible(
            f"base layer {profile.base_rate / MBPS:g} Mbps exceeds the session "
            f"floor {params.min_session_rate / MBPS:g} Mbps"
        )
    layers = (params.max_session_rate - profile.base_rate) / profile.enhancement_rate
    if layers > MAX_ENHANCEMENT_LAYERS:
        raise ProfileInfeasible(
            f"enhancement layer {profile.enhancement_rate / MBPS:g} Mbps fits "
            f"{layers:g} times between the base layer and the cap, more than "
            f"the {MAX_ENHANCEMENT_LAYERS} layers the quantizer counts exactly"
        )


class LayerPlans(Sequence[LayeredPlan]):
    """The layer plans of an allocation: ``by_rate`` maps each distinct
    rate to its ``(enhancement_count, granted_rate, residual_rate)``. As a
    sequence it is a read-only view of one :class:`LayeredPlan` per session,
    in the allocation's entry order, each built when it is read."""

    def __init__(
        self, allocation: Allocation, by_rate: dict[float, tuple[int, float, float]]
    ) -> None:
        self.allocation = allocation
        self.by_rate = by_rate

    def __len__(self) -> int:
        return len(self.allocation.session_ids)

    def __getitem__(self, index: int | slice) -> LayeredPlan | tuple[LayeredPlan, ...]:
        if isinstance(index, slice):
            return tuple(self)[index]
        allocation = self.allocation
        plan = self.by_rate[allocation.session_rates[index]]
        return LayeredPlan(allocation.session_ids[index], *plan)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayerPlans):
            return NotImplemented
        return list(self) == list(other)


def quantize_allocation(allocation: Allocation, profile: LayerProfile) -> LayerPlans:
    """Largest whole-layer stack at or below each session's allocated rate,
    found once per distinct rate.

    Plans read in the allocation's entry order (rank order for popularity
    allocations). Raises :class:`ProfileInfeasible`, naming the first such
    session in that order, if the base layer alone exceeds some session's
    rate.
    """
    base, step = profile.base_rate, profile.enhancement_rate
    rates = allocation.session_rates
    by_rate: dict[float, tuple[int, float, float]] = {}
    # Distinct rates in order of first appearance, so the first one that
    # fails belongs to the first session that fails.
    for rate in dict.fromkeys(rates):
        if base > rate:
            sid = allocation.session_ids[rates.index(rate)]
            raise ProfileInfeasible(
                f"base layer {base / MBPS:g} Mbps exceeds the "
                f"{rate / MBPS:g} Mbps allocated to session {sid!r}"
            )
        count = int((rate - base) // step)
        # Division can land one off at exact-fit boundaries; settle on the
        # true maximum under float evaluation.
        while base + (count + 1) * step <= rate:
            count += 1
        while count > 0 and base + count * step > rate:
            count -= 1
        granted = base + count * step
        by_rate[rate] = (count, granted, rate - granted)
    return LayerPlans(allocation, by_rate)


def plan_total_rate(plans: Iterable[LayeredPlan] | Sequence[LayeredPlan]) -> float:
    """Aggregate granted rate, reported against capacity for headroom accounting."""
    return sum(plan.granted_rate for plan in plans)
