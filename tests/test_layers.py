import math

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from popalloc import (
    Allocation,
    LayerProfile,
    ProfileInfeasible,
    Regime,
    Scheme,
    SessionRate,
    SystemParams,
    check_profile_fits,
    equal_share_allocate,
    plan_total_rate,
    popularity_allocate,
    quantize_allocation,
    rank_sessions,
)
from test_allocation import census_of


def allocation_of(rates_mbps, regime=Regime.CONSTRAINED):
    entries = tuple(
        SessionRate(f"s{i:03d}", r * 1e6) for i, r in enumerate(rates_mbps, start=1)
    )
    return Allocation(Scheme.POPULARITY, regime, entries)


def test_profile_validation():
    with pytest.raises(ValueError):
        LayerProfile(0.0, 1.0)
    with pytest.raises(ValueError):
        LayerProfile(1.0, 0.0)


def test_quantize_mid_rate():
    plans = quantize_allocation(
        allocation_of([1.920625]), LayerProfile.from_mbps(0.6, 0.25)
    )
    plan = plans[0]
    assert plan.enhancement_count == 5
    assert plan.granted_rate == pytest.approx(1.85e6, rel=1e-12)
    assert plan.residual_rate == pytest.approx(0.070625e6, rel=1e-9)


def test_quantize_floor_rate_has_no_enhancements():
    plans = quantize_allocation(
        allocation_of([0.6]), LayerProfile.from_mbps(0.6, 0.25)
    )
    assert plans[0].enhancement_count == 0
    assert plans[0].granted_rate == 0.6e6
    assert plans[0].residual_rate == 0.0


def test_quantize_exact_fit():
    plans = quantize_allocation(
        allocation_of([2.0]), LayerProfile.from_mbps(0.6, 0.35)
    )
    assert plans[0].enhancement_count == 4
    assert plans[0].granted_rate == 2.0e6
    assert plans[0].residual_rate == 0.0


def test_quantize_rejects_oversized_base():
    with pytest.raises(ProfileInfeasible):
        quantize_allocation(allocation_of([0.5]), LayerProfile.from_mbps(0.6, 0.25))


def test_quantize_equal_share_below_base_raises(reference_params):
    # 40 sessions push the equal split to 0.75 Mbps; a 0.8 Mbps base cannot fit
    allocation = equal_share_allocate(reference_params, census_of([5] * 40))
    with pytest.raises(ProfileInfeasible):
        quantize_allocation(allocation, LayerProfile.from_mbps(0.8, 0.25))


def test_plans_in_allocation_order(reference_params, worked_census):
    allocation, _ = popularity_allocate(reference_params, rank_sessions(worked_census))
    plans = quantize_allocation(allocation, LayerProfile.from_mbps(0.6, 0.25))
    assert [p.session_id for p in plans] == [e.session_id for e in allocation.entries]


def test_total_rate_empty():
    assert plan_total_rate([]) == 0.0


def test_total_rate_single():
    plans = quantize_allocation(
        allocation_of([1.920625]), LayerProfile.from_mbps(0.6, 0.25)
    )
    assert plan_total_rate(plans) == pytest.approx(1.85e6, rel=1e-12)


def test_worked_allocation_total_under_capacity(reference_params, worked_census):
    allocation, _ = popularity_allocate(reference_params, rank_sessions(worked_census))
    plans = quantize_allocation(allocation, LayerProfile.from_mbps(0.6, 0.25))
    total = plan_total_rate(plans)
    assert total <= 30e6 * (1 + 1e-9)
    assert total <= allocation.total_rate


def test_check_profile_fits(reference_params):
    check_profile_fits(reference_params, LayerProfile.from_mbps(0.6, 0.25))
    with pytest.raises(ProfileInfeasible):
        check_profile_fits(reference_params, LayerProfile.from_mbps(0.601, 0.25))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

rates_mbps = st.lists(
    st.floats(0.6, 4.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=20
)
profiles = st.builds(
    LayerProfile.from_mbps,
    st.floats(0.05, 0.6, allow_nan=False),
    st.floats(0.05, 1.0, allow_nan=False),
)


@given(rates_mbps, profiles)
def test_granted_never_exceeds_allocated(rates, profile):
    ordered = sorted(rates, reverse=True)
    plans = quantize_allocation(allocation_of(ordered), profile)
    for plan, rate in zip(plans, ordered, strict=True):
        assert plan.granted_rate <= rate * 1e6
        assert 0.0 <= plan.residual_rate < profile.enhancement_rate
        assert plan.granted_rate == pytest.approx(
            profile.base_rate + plan.enhancement_count * profile.enhancement_rate
        )


@given(rates_mbps, profiles)
def test_layer_count_monotone_in_rate(rates, profile):
    ordered = sorted(rates, reverse=True)
    plans = quantize_allocation(allocation_of(ordered), profile)
    counts = [p.enhancement_count for p in plans]
    assert counts == sorted(counts, reverse=True)


@given(rates_mbps, profiles)
def test_quantization_idempotent(rates, profile):
    first = quantize_allocation(allocation_of(sorted(rates, reverse=True)), profile)
    aligned = Allocation(
        Scheme.POPULARITY,
        Regime.CONSTRAINED,
        tuple(SessionRate(p.session_id, p.granted_rate) for p in first),
    )
    second = quantize_allocation(aligned, profile)
    for before, after in zip(first, second, strict=True):
        assert after.enhancement_count == before.enhancement_count
        assert after.residual_rate == 0.0


def layer_boundary_case(base_mbps, enh_mbps, layers=12):
    """Rates (Mbps) at base + k·enh for k = 0..layers and 1-4 ulps either
    side, with the profile they straddle; rates below the base are left out."""
    profile = LayerProfile.from_mbps(base_mbps, enh_mbps)
    rates = []
    for k in range(layers + 1):
        below = above = (profile.base_rate + k * profile.enhancement_rate) / 1e6
        rates.append(below)
        for _ in range(4):
            below = math.nextafter(below, 0.0)
            above = math.nextafter(above, math.inf)
            rates += [below, above]
    return [r for r in rates if r * 1e6 >= profile.base_rate], profile


@given(rates_mbps, profiles)
@example(*layer_boundary_case(0.6, 0.35))
# Floor division alone gives one layer too few at k = 7 with the first profile
# below, and one too many an ulp below k = 6 with the second.
@example(*layer_boundary_case(0.53, 0.9439628357401821))
@example(*layer_boundary_case(0.5006777608370384, 0.2))
def test_layer_count_matches_linear_search(rates, profile):
    from oracles import max_whole_layers

    ordered = sorted(rates, reverse=True)
    plans = quantize_allocation(allocation_of(ordered), profile)
    for plan, rate in zip(plans, ordered, strict=True):
        assert plan.enhancement_count == max_whole_layers(
            rate * 1e6, profile.base_rate, profile.enhancement_rate
        )
