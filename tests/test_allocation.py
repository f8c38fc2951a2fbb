import math

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from popalloc import (
    MBPS,
    InfeasibleCapacity,
    InternalInvariantError,
    RankedCensus,
    Regime,
    Scheme,
    SessionCensus,
    SessionCount,
    SystemParams,
    ZeroAudience,
    classify_regime,
    equal_share_allocate,
    equal_share_rate,
    evaluate,
    popularity_allocate,
    rank_sessions,
    surplus_coefficients,
)
from popalloc.allocation import MAX_TOTAL_USERS
from checks import assert_allocation_invariants
from conftest import WORKED_RATES_MBPS
from oracles import rational_cascade

KBPS = 1000.0


def census_of(counts, prefix="s"):
    return SessionCensus.from_counts(
        (f"{prefix}{i:03d}", n) for i, n in enumerate(counts, start=1)
    )


def pop_rates(params, counts):
    allocation = evaluate(params, census_of(counts)).allocation
    return [e.rate for e in allocation.entries]


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------


def test_regime_saturated(reference_params):
    assert classify_regime(reference_params, 10) is Regime.SATURATED


def test_regime_constrained(reference_params):
    assert classify_regime(reference_params, 20) is Regime.CONSTRAINED


def test_regime_infeasible(reference_params):
    assert classify_regime(reference_params, 60) is Regime.INFEASIBLE


def test_regime_boundaries(reference_params):
    assert classify_regime(reference_params, 15) is Regime.SATURATED
    assert classify_regime(reference_params, 16) is Regime.CONSTRAINED
    assert classify_regime(reference_params, 50) is Regime.CONSTRAINED
    assert classify_regime(reference_params, 51) is Regime.INFEASIBLE


def test_regime_rejects_zero_sessions(reference_params):
    with pytest.raises(ValueError):
        classify_regime(reference_params, 0)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(-1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        SystemParams(10.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        SystemParams(10.0, 2.0, 0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", [0, 1, 2])
def test_params_reject_non_finite(field, bad):
    values = [30.0, 2.0, 0.6]
    values[field] = bad
    with pytest.raises(ValueError, match="finite"):
        SystemParams.from_mbps(*values)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def test_rank_already_sorted():
    census = SessionCensus.from_counts([("s1", 40), ("s2", 30), ("s3", 20)])
    ranked = rank_sessions(census)
    assert [e.session_id for e in ranked.entries] == ["s1", "s2", "s3"]


def test_rank_tie_broken_by_id():
    census = SessionCensus.from_counts([("s2", 10), ("s1", 10)])
    ranked = rank_sessions(census)
    assert [e.session_id for e in ranked.entries] == ["s1", "s2"]


def test_rank_sorts_by_count():
    census = SessionCensus.from_counts([("s3", 5), ("s1", 7), ("s2", 9)])
    ranked = rank_sessions(census)
    assert [e.session_id for e in ranked.entries] == ["s2", "s1", "s3"]


def test_rank_is_permutation():
    census = SessionCensus.from_counts([("a", 1), ("b", 5), ("c", 3), ("d", 5)])
    ranked = rank_sessions(census)
    assert sorted(e.session_id for e in ranked.entries) == ["a", "b", "c", "d"]
    assert [e.users for e in ranked.entries] == [5, 5, 3, 1]


def test_census_validation():
    with pytest.raises(ValueError):
        SessionCensus(())
    with pytest.raises(ValueError):
        SessionCensus.from_counts([("s1", 1), ("s1", 2)])
    with pytest.raises(ValueError):
        SessionCensus.from_counts([("s1", -1)])
    with pytest.raises(ValueError):
        SessionCensus.from_counts([("s1", 1.5)])


def test_census_total_audience_must_convert_to_a_float():
    assert math.isfinite(float(MAX_TOTAL_USERS))
    with pytest.raises(OverflowError):
        float(MAX_TOTAL_USERS + 1)
    census = SessionCensus.from_counts([("s1", MAX_TOTAL_USERS - 1), ("s2", 1)])
    assert census.total_users == MAX_TOTAL_USERS
    with pytest.raises(ValueError, match="too large to convert to a float"):
        SessionCensus.from_counts([("s1", MAX_TOTAL_USERS), ("s2", 1)])


@pytest.mark.parametrize("users", [True, False])
def test_session_count_rejects_bool(users):
    with pytest.raises(ValueError):
        SessionCount("s1", users)


def test_ranked_census_rejects_increasing_counts():
    with pytest.raises(ValueError):
        RankedCensus(census_of([1, 2]).entries)


# ---------------------------------------------------------------------------
# surplus coefficients
# ---------------------------------------------------------------------------


def test_surplus_coefficient_reference_case(reference_params):
    census = census_of([10] * 20)
    assert census.total_users == 200
    a, headroom = surplus_coefficients(reference_params, census)
    assert a == pytest.approx(90_000.0, rel=1e-12)  # 0.09 Mbps per user
    assert headroom == 1.4e6


def test_surplus_coefficient_zero_at_floor_boundary():
    params = SystemParams.from_mbps(12, 2, 0.6)
    a, _ = surplus_coefficients(params, census_of([7, 3] + [0] * 18))
    assert a == 0.0


def test_surplus_coefficient_zero_audience(reference_params):
    with pytest.raises(ZeroAudience):
        surplus_coefficients(reference_params, census_of([0, 0, 0]))


# ---------------------------------------------------------------------------
# equal share
# ---------------------------------------------------------------------------


def test_equal_share_saturated(reference_params):
    assert equal_share_rate(reference_params, 10) == 2e6


def test_equal_share_split(reference_params):
    assert equal_share_rate(reference_params, 20) == 1.5e6


def test_equal_share_below_floor(reference_params):
    # the baseline never applies the floor
    assert equal_share_rate(reference_params, 40) == 0.75e6


def test_equal_share_allocation_object(reference_params):
    census = census_of([5, 1, 9])
    allocation = equal_share_allocate(reference_params, census)
    assert allocation.scheme is Scheme.EQUAL_SHARE
    assert allocation.regime is Regime.SATURATED
    assert set(allocation.rates()) == {"s001", "s002", "s003"}
    assert set(allocation.rates().values()) == {2e6}


# ---------------------------------------------------------------------------
# popularity cascade
# ---------------------------------------------------------------------------


def test_two_session_cascade():
    params = SystemParams.from_mbps(3, 2, 0.6)
    rates = pop_rates(params, [190, 10])
    assert rates[0] == pytest.approx(2.0e6, rel=1e-12)
    assert rates[1] == pytest.approx(1.0e6, rel=1e-12)


def test_two_session_cascade_ledger():
    params = SystemParams.from_mbps(3, 2, 0.6)
    ledger = evaluate(params, census_of([190, 10])).ledger
    assert ledger.surplus_coefficient == pytest.approx(9_000.0, rel=1e-12)
    assert ledger.capped == 1
    assert ledger.shift == pytest.approx(0.31e6, rel=1e-12)


def test_final_rank_overshoot_within_rounding_is_clamped():
    # Capacity one ulp below M * cap: the shift rounds the final claim up
    # to exactly the headroom, which used to raise InternalInvariantError.
    params = SystemParams.from_mbps(7.999999999999999, 2, 0.6)
    census = census_of([3, 33, 43, 3])
    evaluation = evaluate(params, census)
    allocation, ledger = evaluation.allocation, evaluation.ledger
    assert allocation.regime is Regime.CONSTRAINED
    assert [e.rate for e in allocation.entries] == [params.max_session_rate] * 4
    assert ledger.capped == 4
    assert_allocation_invariants(params, census, allocation)


def test_final_rank_overshoot_beyond_rounding_raises(monkeypatch):
    import popalloc.allocation as allocation_module

    params = SystemParams.from_mbps(3, 2, 0.6)
    # A coefficient far too large overflows every rank, the last one too.
    monkeypatch.setattr(
        allocation_module, "_surplus_per_user", lambda p, m, total: 1e9
    )
    with pytest.raises(InternalInvariantError, match="final rank"):
        evaluate(params, census_of([190, 10]))


def test_uniform_counts_match_even_split(reference_params):
    rates = pop_rates(reference_params, [10] * 20)
    for rate in rates:
        assert rate == pytest.approx(1.5e6, rel=1e-12)


def test_worked_twenty_session_vector(reference_params, worked_census):
    evaluation = evaluate(reference_params, worked_census)
    allocation, ledger = evaluation.allocation, evaluation.ledger
    rates = [e.rate / 1e6 for e in allocation.entries]
    for got, want in zip(rates, WORKED_RATES_MBPS):
        assert got == pytest.approx(want, rel=1e-9)
    assert sum(e.rate for e in allocation.entries) == pytest.approx(30e6, rel=1e-9)
    # The four capped ranks pass down 0.1157895, 0.0786550, 0.0349673 and
    # 0.0112132 Mbps per remaining session.
    assert ledger.capped == 4
    assert ledger.shift == pytest.approx(240625.0, rel=1e-9)


def test_saturated_allocates_cap(reference_params):
    evaluation = evaluate(reference_params, census_of([100, 50, 10, 5, 1, 0, 0, 0, 0, 0]))
    allocation, ledger = evaluation.allocation, evaluation.ledger
    assert allocation.regime is Regime.SATURATED
    assert all(e.rate == 2e6 for e in allocation.entries)
    assert ledger.capped == 10
    assert ledger.shift == 0.0


def test_infeasible_raises(reference_params):
    with pytest.raises(InfeasibleCapacity):
        evaluate(reference_params, census_of([1] * 60))


def test_zero_audience_falls_back_to_even_split(reference_params):
    evaluation = evaluate(reference_params, census_of([0] * 20))
    allocation, ledger = evaluation.allocation, evaluation.ledger
    assert all(e.rate == pytest.approx(1.5e6, rel=1e-12) for e in allocation.entries)
    assert ledger.surplus_coefficient == 0.0


def test_single_constrained_session_gets_capacity():
    params = SystemParams.from_mbps(1.7, 2, 0.6)
    rates = pop_rates(params, [42])
    assert rates == [pytest.approx(1.7e6, rel=1e-12)]


def test_requires_ranked_census(reference_params):
    # The cascade takes audience counts in rank order, most-watched first.
    rates, _ = popularity_allocate(reference_params, [3, 2, 2, 1] + [0] * 16)
    assert rates == pop_rates(reference_params, [3, 2, 2, 1] + [0] * 16)
    for counts in ([1, 2], [3, 2, 1, 2], [0] * 19 + [1]):
        with pytest.raises(ValueError, match="rank order"):
            popularity_allocate(reference_params, counts)
    with pytest.raises(ValueError, match="non-negative"):
        popularity_allocate(reference_params, [3, 2, -1])
    with pytest.raises(ValueError, match="too large"):
        popularity_allocate(reference_params, [MAX_TOTAL_USERS, 1])


def test_zero_user_session_still_gets_floor(reference_params):
    rates = pop_rates(reference_params, [200] + [0] * 19)
    assert rates[0] == 2e6
    assert rates[-1] >= 0.6e6


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@st.composite
def constrained_setups(draw, max_sessions=24, max_count=300):
    m = draw(st.integers(1, max_sessions))
    floor_kbps = draw(st.integers(1, 3000))
    headroom_kbps = draw(st.integers(1, 4000))
    cap_kbps = floor_kbps + headroom_kbps
    capacity_kbps = draw(st.integers(floor_kbps * m, cap_kbps * m - 1))
    counts = draw(st.lists(st.integers(0, max_count), min_size=m, max_size=m))
    params = SystemParams(capacity_kbps * KBPS, cap_kbps * KBPS, floor_kbps * KBPS)
    return params, census_of(counts)


@given(constrained_setups())
def test_constrained_invariants(setup):
    params, census = setup
    evaluation = evaluate(params, census)
    allocation, ledger = evaluation.allocation, evaluation.ledger
    assert_allocation_invariants(params, census, allocation)
    assert ledger.shift >= 0.0
    assert 0 <= ledger.capped <= census.session_count
    if census.total_users == 0:
        return  # the even split, outside the cascade's shape
    floor, cap = params.min_session_rate, params.max_session_rate
    coefficient = ledger.surplus_coefficient
    for position, (counted, granted) in enumerate(
        zip(rank_sessions(census).entries, allocation.entries)
    ):
        if position < ledger.capped:
            assert granted.rate == cap
        else:
            assert granted.rate == floor + (coefficient * counted.users + ledger.shift)


@st.composite
def float_boundary_setups(draw):
    """Capacity a few ulps below M·cap or at/above M·floor, Mbps-scale rates,
    audiences of 0, 1, 2**53 or a handful."""
    m = draw(st.integers(1, 40))
    floor = draw(st.floats(0.05, 3.0)) * MBPS
    cap = floor + draw(st.floats(0.001, 4.0)) * MBPS
    if draw(st.booleans()):
        capacity, steps, toward = m * cap, draw(st.integers(1, 4)), -math.inf
    else:
        capacity, steps, toward = m * floor, draw(st.integers(0, 4)), math.inf
    for _ in range(steps):
        capacity = math.nextafter(capacity, toward)
    small = st.integers(0, 50)
    counts = draw(
        st.lists(
            st.one_of(st.sampled_from([0, 1, 2**53]), small), min_size=m, max_size=m
        )
    )
    return SystemParams(capacity, cap, floor), census_of(counts)


@settings(max_examples=400)
@given(float_boundary_setups())
@example((SystemParams.from_mbps(7.999999999999999, 2, 0.6), census_of([3, 33, 43, 3])))
@example((SystemParams(math.nextafter(2e6, 0.0), 2e6, 0.6e6), census_of([2**53])))
@example((SystemParams(24 * 963797.5019705303, 2e6, 963797.5019705303), census_of([0] * 24)))
def test_guarantees_at_float_boundaries(setup):
    params, census = setup
    try:
        evaluation = evaluate(params, census)
    except InternalInvariantError as exc:
        pytest.fail(f"valid input tripped the cascade invariant: {exc}")
    assert_allocation_invariants(params, census, evaluation.allocation)
    comparison = evaluation.comparison
    assert (
        comparison.avg_satisfaction_popularity
        >= comparison.avg_satisfaction_equal - 1e-12
    )


@given(constrained_setups())
def test_audience_scale_invariance(setup):
    params, census = setup
    base = evaluate(params, census).allocation.rates()
    scaled_census = SessionCensus.from_counts(
        (e.session_id, e.users * 7) for e in census.entries
    )
    scaled = evaluate(params, scaled_census).allocation.rates()
    for sid, rate in base.items():
        assert scaled[sid] == pytest.approx(rate, rel=1e-9)


@given(constrained_setups(), st.randoms(use_true_random=False))
def test_permutation_invariance(setup, rnd):
    params, census = setup
    baseline = evaluate(params, census).allocation.rates()
    shuffled_entries = list(census.entries)
    rnd.shuffle(shuffled_entries)
    shuffled = SessionCensus(tuple(shuffled_entries))
    rates = evaluate(params, shuffled).allocation.rates()
    assert rates == baseline  # bit-exact: identical ranked order, identical ops


@settings(max_examples=200)
@given(constrained_setups(max_sessions=8, max_count=200))
def test_matches_rational_oracle(setup):
    params, census = setup
    ranked = rank_sessions(census)
    allocation = evaluate(params, census).allocation
    expected = rational_cascade(
        int(params.capacity / KBPS),
        int(params.max_session_rate / KBPS),
        int(params.min_session_rate / KBPS),
        [e.users for e in ranked.entries],
    )
    for entry, want in zip(allocation.entries, expected):
        got_kbps = entry.rate / KBPS
        assert math.isclose(got_kbps, float(want), rel_tol=1e-9)


@given(
    st.integers(1, 200),
    st.integers(1, 4000),
    st.integers(0, 5000),
    st.integers(1, 64),
)
def test_regime_partition(capacity_kbps, floor_kbps, extra_kbps, m):
    params = SystemParams(
        capacity_kbps * KBPS, (floor_kbps + extra_kbps) * KBPS, floor_kbps * KBPS
    )
    regime = classify_regime(params, m)
    saturated = params.max_session_rate * m <= params.capacity
    feasible = params.min_session_rate * m <= params.capacity
    if saturated:
        assert regime is Regime.SATURATED
    elif feasible:
        assert regime is Regime.CONSTRAINED
    else:
        assert regime is Regime.INFEASIBLE
