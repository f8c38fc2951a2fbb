import math

import pytest
from hypothesis import given

from popalloc import (
    InfeasibleCapacity,
    Regime,
    SessionCensus,
    SystemParams,
    ZeroAudience,
    average_satisfaction,
    compare_schemes,
    equal_share_allocate,
    equal_share_rate,
    equal_share_satisfaction,
    evaluate,
    rank_sessions,
    satisfaction_report,
    session_satisfaction,
)
from popalloc.satisfaction import _compare
from test_allocation import census_of, constrained_setups


def worked_allocation(params, census):
    return evaluate(params, census).allocation


# ---------------------------------------------------------------------------
# equal-share satisfaction
# ---------------------------------------------------------------------------


def test_equal_share_satisfaction_saturated(reference_params):
    assert equal_share_satisfaction(reference_params, 10) == 1.0


def test_equal_share_satisfaction_constrained(reference_params):
    assert equal_share_satisfaction(reference_params, 20) == 0.75


def test_equal_share_satisfaction_many_sessions(reference_params):
    assert equal_share_satisfaction(reference_params, 40) == 0.375


# ---------------------------------------------------------------------------
# per-session and average satisfaction
# ---------------------------------------------------------------------------


def test_session_satisfaction_capped(reference_params, worked_census):
    per = session_satisfaction(
        reference_params, worked_allocation(reference_params, worked_census)
    )
    assert per["s01"] == 1.0
    assert per["s20"] == pytest.approx(0.4653125, abs=1e-12)


def test_session_satisfaction_saturated_is_one(reference_params):
    allocation = worked_allocation(reference_params, census_of([50, 20, 5]))
    per = session_satisfaction(reference_params, allocation)
    assert set(per.values()) == {1.0}


def test_average_satisfaction_worked(reference_params, worked_census):
    average = average_satisfaction(
        reference_params,
        worked_allocation(reference_params, worked_census),
        worked_census,
    )
    assert average == pytest.approx(0.8891234375, abs=1e-12)


def test_average_satisfaction_uniform_counts(reference_params):
    census = census_of([10] * 20)
    average = average_satisfaction(
        reference_params, worked_allocation(reference_params, census), census
    )
    assert average == pytest.approx(0.75, abs=1e-12)
    assert average == pytest.approx(
        equal_share_satisfaction(reference_params, 20), abs=1e-12
    )


def test_average_satisfaction_saturated(reference_params):
    census = census_of([9, 9, 9])
    assert (
        average_satisfaction(
            reference_params, worked_allocation(reference_params, census), census
        )
        == 1.0
    )


def test_average_satisfaction_zero_audience(reference_params):
    census = census_of([0] * 20)
    allocation = worked_allocation(reference_params, census)
    with pytest.raises(ZeroAudience):
        average_satisfaction(reference_params, allocation, census)


def test_average_satisfaction_mismatched_census(reference_params):
    allocation = worked_allocation(reference_params, census_of([10] * 20))
    with pytest.raises(ValueError):
        average_satisfaction(reference_params, allocation, census_of([10] * 19))


def test_report_bundles_per_session_and_average(reference_params, worked_census):
    allocation = worked_allocation(reference_params, worked_census)
    report = satisfaction_report(reference_params, allocation, worked_census)
    assert report.average == pytest.approx(0.8891234375, abs=1e-12)
    assert report.per_session == session_satisfaction(reference_params, allocation)


def test_report_zero_audience_uses_unweighted_mean(reference_params):
    census = census_of([0] * 20)
    report = satisfaction_report(
        reference_params, worked_allocation(reference_params, census), census
    )
    assert report.average == pytest.approx(0.75, abs=1e-12)


# ---------------------------------------------------------------------------
# scheme comparison
# ---------------------------------------------------------------------------


def test_compare_worked_census(reference_params, worked_census):
    result = compare_schemes(reference_params, worked_census)
    assert result.improved_users == 162
    assert result.degraded_users == 38
    assert result.unchanged_users == 0
    assert result.avg_satisfaction_equal == 0.75
    assert result.avg_satisfaction_popularity == pytest.approx(0.8891234375, abs=1e-12)
    assert result.delta_avg > 0


def test_compare_uniform_counts_all_unchanged(reference_params):
    result = compare_schemes(reference_params, census_of([10] * 20))
    assert (result.improved_users, result.degraded_users) == (0, 0)
    assert result.unchanged_users == 200
    assert abs(result.delta_avg) <= 1e-12


def test_compare_saturated(reference_params):
    result = compare_schemes(reference_params, census_of([120, 60, 20]))
    assert result.unchanged_users == 200
    assert result.avg_satisfaction_equal == 1.0
    assert result.avg_satisfaction_popularity == 1.0


def test_compare_zero_audience(reference_params):
    result = compare_schemes(reference_params, census_of([0] * 20))
    assert result.unchanged_users == 0
    assert result.avg_satisfaction_popularity == result.avg_satisfaction_equal == 0.75


def test_compare_propagates_infeasible(reference_params):
    with pytest.raises(InfeasibleCapacity):
        compare_schemes(reference_params, census_of([1] * 51))


def test_compare_sums_left_to_right(reference_params):
    # One huge session then four at half the cap: each half is below half an
    # ulp of the running sum, so plain addition drops it and a compensated
    # sum (builtin ``sum`` of floats from Python 3.12, ``math.fsum``) keeps it.
    users = [10**16, 1, 1, 1, 1]
    rates = [2e6, 1e6, 1e6, 1e6, 1e6]
    terms = [rate / 2e6 * count for count, rate in zip(users, rates)]
    plain = 0.0
    for term in terms:
        plain += term
    assert math.fsum(terms) / sum(users) != plain / sum(users)
    result = _compare(reference_params, 1.5e6, users, rates)
    assert result.avg_satisfaction_popularity == plain / sum(users)


def test_compare_user_totals_add_up(reference_params, worked_census):
    result = compare_schemes(reference_params, worked_census)
    total = result.improved_users + result.degraded_users + result.unchanged_users
    assert total == worked_census.total_users


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(constrained_setups())
def test_popularity_never_loses_on_average(setup):
    params, census = setup
    result = compare_schemes(params, census)
    assert result.delta_avg >= -1e-12
    counts = {e.users for e in census.entries}
    if len(counts) == 1:
        assert abs(result.delta_avg) <= 1e-12
    assert (
        result.improved_users + result.degraded_users + result.unchanged_users
        == census.total_users
    )


@given(constrained_setups())
def test_weighted_sum_identity(setup):
    params, census = setup
    allocation = evaluate(params, census).allocation
    if census.total_users == 0 or allocation.regime is not Regime.CONSTRAINED:
        return
    average = average_satisfaction(params, allocation, census)
    counts = census.counts()
    weighted = sum(e.rate * counts[e.session_id] for e in allocation.entries)
    assert average * params.max_session_rate * census.total_users == pytest.approx(
        weighted, rel=1e-9
    )


@given(constrained_setups())
def test_improved_sessions_form_rank_prefix(setup):
    params, census = setup
    ranked = rank_sessions(census)
    allocation = evaluate(params, census).allocation
    eq_rate = equal_share_rate(params, census.session_count)
    rates = allocation.rates()

    def label(sid):
        delta_mbps = (rates[sid] - eq_rate) / 1e6
        if abs(delta_mbps) <= 1e-12:
            return "unchanged"
        return "improved" if delta_mbps > 0 else "degraded"

    labels = [label(e.session_id) for e in ranked.entries]
    # rank order must read improved*, unchanged*, degraded*
    order = {"improved": 0, "unchanged": 1, "degraded": 2}
    assert [order[x] for x in labels] == sorted(order[x] for x in labels)


@given(constrained_setups())
def test_averages_scale_invariant(setup):
    params, census = setup
    before = compare_schemes(params, census)
    scaled = SessionCensus.from_counts(
        (e.session_id, e.users * 5) for e in census.entries
    )
    after = compare_schemes(params, scaled)
    assert after.avg_satisfaction_equal == before.avg_satisfaction_equal
    assert after.avg_satisfaction_popularity == pytest.approx(
        before.avg_satisfaction_popularity, rel=1e-9, abs=1e-12
    )


def test_strict_dominance_with_skewed_counts(reference_params):
    # skewed audiences and spare capacity above the floor give a strict win
    for counts in ([199, 1] + [0] * 18, [50, 40, 30, 20, 10] + [1] * 15):
        result = compare_schemes(reference_params, census_of(counts))
        assert result.delta_avg > 1e-6


def test_equal_share_allocation_satisfaction_matches_scalar(reference_params):
    census = census_of([40, 30, 20])
    allocation = equal_share_allocate(reference_params, census)
    per = session_satisfaction(reference_params, allocation)
    scalar = equal_share_satisfaction(reference_params, census.session_count)
    assert set(per.values()) == {scalar}
