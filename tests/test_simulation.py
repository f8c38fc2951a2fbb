import math

import pytest

from popalloc import (
    DuplicateSession,
    EmptySession,
    EventKind,
    InfeasibleCapacity,
    InternalInvariantError,
    LayerProfile,
    SessionCensus,
    SimEvent,
    SimState,
    SystemParams,
    TraceGenConfig,
    TraceOrder,
    UnknownSession,
    apply_event,
    equal_share_satisfaction,
    generate_trace,
    random_census,
    run_trace,
)
from popalloc.allocation import MAX_TOTAL_USERS
from popalloc.formats import dump_json, snapshot_to_dict, trace_result_document
from checks import assert_allocation_invariants
from test_allocation import census_of

PROFILE = LayerProfile.from_mbps(0.6, 0.25)


def state_of(params, counts):
    return SimState.from_census(census_of(counts), params, PROFILE)


def join(t, sid):
    return SimEvent(t, EventKind.USER_JOIN, sid)


def leave(t, sid):
    return SimEvent(t, EventKind.USER_LEAVE, sid)


def switch(t, src, dst):
    return SimEvent(t, EventKind.USER_SWITCH, src, dst)


def start(t, sid):
    return SimEvent(t, EventKind.SESSION_START, sid)


def stop(t, sid):
    return SimEvent(t, EventKind.SESSION_STOP, sid)


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


def test_event_validation():
    with pytest.raises(ValueError):
        SimEvent(-1.0, EventKind.USER_JOIN, "s1")
    with pytest.raises(ValueError):
        SimEvent(0.0, EventKind.USER_SWITCH, "s1")  # missing target
    with pytest.raises(ValueError):
        SimEvent(0.0, EventKind.USER_JOIN, "s1", "s2")


def test_join_updates_census_and_reorders(reference_params):
    state = state_of(reference_params, [5, 5])
    new_state = apply_event(state, join(1.0, "s001"), reference_params, PROFILE)
    assert new_state.census.counts() == {"s001": 6, "s002": 5}
    rates = new_state.popularity.rates()
    assert rates["s001"] >= rates["s002"]
    assert new_state.time == 1.0


def test_saturated_regime_unmoved_by_churn(reference_params):
    state = state_of(reference_params, [30, 20, 15, 10, 9, 8, 5, 2, 1, 0])
    for event in (join(1.0, "s010"), leave(2.0, "s001"), switch(3.0, "s002", "s009")):
        state = apply_event(state, event, reference_params, PROFILE)
        assert all(e.rate == 2e6 for e in state.popularity.entries)


def test_repeated_switch_reaches_even_split():
    params = SystemParams.from_mbps(3, 2, 0.6)
    state = state_of(params, [190, 10])
    t = 0.0
    for _ in range(90):
        t += 1.0
        state = apply_event(state, switch(t, "s001", "s002"), params, PROFILE)
    assert state.census.counts() == {"s001": 100, "s002": 100}
    for rate in state.popularity.rates().values():
        assert rate == pytest.approx(1.5e6, rel=1e-12)


def test_session_start_and_stop(reference_params):
    state = state_of(reference_params, [5, 5])
    state = apply_event(
        state, SimEvent(1.0, EventKind.SESSION_START, "s003"), reference_params, PROFILE
    )
    assert state.census.counts() == {"s001": 5, "s002": 5, "s003": 0}
    state = apply_event(
        state, SimEvent(2.0, EventKind.SESSION_STOP, "s001"), reference_params, PROFILE
    )
    assert state.census.counts() == {"s002": 5, "s003": 0}


def test_event_errors(reference_params):
    state = state_of(reference_params, [5, 0])
    cases = [
        (leave(1.0, "s002"), EmptySession),
        (switch(1.0, "s002", "s001"), EmptySession),
        (join(1.0, "nope"), UnknownSession),
        (leave(1.0, "nope"), UnknownSession),
        (switch(1.0, "s001", "nope"), UnknownSession),
        (SimEvent(1.0, EventKind.SESSION_STOP, "nope"), UnknownSession),
        (SimEvent(1.0, EventKind.SESSION_START, "s001"), DuplicateSession),
    ]
    for event, error in cases:
        with pytest.raises(error):
            apply_event(state, event, reference_params, PROFILE)


def test_infeasible_start_rejected(reference_params):
    state = state_of(reference_params, [4] * 50)  # at the feasibility edge
    with pytest.raises(InfeasibleCapacity):
        apply_event(
            state,
            SimEvent(1.0, EventKind.SESSION_START, "extra"),
            reference_params,
            PROFILE,
        )
    assert state.census.session_count == 50  # untouched


def test_stopping_last_session_rejected(reference_params):
    state = state_of(reference_params, [5])
    with pytest.raises(InfeasibleCapacity):
        apply_event(
            state, SimEvent(1.0, EventKind.SESSION_STOP, "s001"), reference_params, PROFILE
        )


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def test_empty_trace_yields_initial_snapshot(reference_params):
    result = run_trace(reference_params, PROFILE, census_of([5, 5]), [])
    assert len(result.snapshots) == 1
    assert result.snapshots[0].time == 0.0
    assert result.rejections == ()


def test_join_then_leave_restores_allocation(reference_params, worked_census):
    trace = [join(1.0, "s07"), leave(2.0, "s07")]
    result = run_trace(reference_params, PROFILE, worked_census, trace)
    first, last = result.snapshots[0], result.snapshots[-1]
    assert last.census == first.census
    assert last.popularity.rates() == first.popularity.rates()  # bit-exact
    assert last.plans == first.plans


def test_trace_order_enforced(reference_params):
    with pytest.raises(TraceOrder):
        run_trace(
            reference_params,
            PROFILE,
            census_of([5, 5]),
            [join(2.0, "s001"), join(1.0, "s001")],
        )


def test_equal_timestamps_processed_in_order(reference_params):
    trace = [join(1.0, "s001"), leave(1.0, "s001"), join(1.0, "s002")]
    result = run_trace(reference_params, PROFILE, census_of([5, 5]), trace)
    assert len(result.snapshots) == 4
    assert result.snapshots[-1].census.counts() == {"s001": 5, "s002": 6}


def test_rejected_events_recorded_and_skipped(reference_params):
    trace = [
        join(1.0, "ghost"),
        join(2.0, "s001"),
        leave(3.0, "s002"),  # s002 is empty
    ]
    result = run_trace(reference_params, PROFILE, census_of([5, 0]), trace)
    assert len(result.snapshots) == 2  # initial + one accepted
    assert [r.error for r in result.rejections] == ["UnknownSession", "EmptySession"]
    assert result.snapshots[-1].census.counts() == {"s001": 6, "s002": 0}


def test_join_past_float_range_rejected(reference_params):
    # The census holds the largest total audience a float can take, so a
    # join is refused, a leave then frees room for one.
    census = SessionCensus.from_counts([("s001", MAX_TOTAL_USERS - 3), ("s002", 3)])
    trace = [join(1.0, "s002"), leave(2.0, "s001"), join(3.0, "s002"), join(4.0, "s001")]
    result = run_trace(reference_params, PROFILE, census, trace)
    assert [(r.event.time, r.error) for r in result.rejections] == [
        (1.0, "InfeasibleCapacity"), (4.0, "InfeasibleCapacity")
    ]
    assert result.snapshots[-1].census.counts() == {"s001": MAX_TOTAL_USERS - 4, "s002": 4}
    for snap in result.snapshots:
        assert_allocation_invariants(reference_params, snap.census, snap.popularity)


def test_allocation_is_memoryless(reference_params):
    # two different event histories ending at the same census
    a = run_trace(
        reference_params,
        PROFILE,
        census_of([6, 4]),
        [switch(1.0, "s001", "s002")],
    ).snapshots[-1]
    b = run_trace(
        reference_params,
        PROFILE,
        census_of([5, 5]),
        [],
    ).snapshots[-1]
    assert a.census.counts() == b.census.counts()
    assert a.popularity.rates() == b.popularity.rates()


def test_snapshots_satisfy_invariants(reference_params, worked_census):
    trace = generate_trace(
        TraceGenConfig(
            worked_census,
            events=25,
            weights={"join": 1.0, "leave": 1.0, "switch": 2.0},
        ),
        seed=11,
    )
    result = run_trace(reference_params, PROFILE, worked_census, trace)
    assert not result.rejections
    for snap in result.snapshots:
        assert_allocation_invariants(reference_params, snap.census, snap.popularity)
        comparison = snap.comparison
        assert (
            comparison.improved_users
            + comparison.degraded_users
            + comparison.unchanged_users
            == snap.census.total_users
        )
        for plan, entry in zip(snap.plans, snap.popularity.entries, strict=True):
            assert plan.session_id == entry.session_id
            assert plan.granted_rate <= entry.rate


@pytest.mark.parametrize("ulps", range(5))
@pytest.mark.parametrize(
    "sessions, floor", [(24, 963797.5019705303), (7, 0.6e6), (13, 1e6 / 3)]
)
def test_churn_around_empty_census_at_floor_boundary(sessions, floor, ulps):
    # Capacity exactly M·floor (ulps=0) or a few ulps above it, an all-empty
    # starting census, and a base layer at the floor: every snapshot must
    # keep every rate at or above the floor without tripping the cascade.
    capacity = sessions * floor
    for _ in range(ulps):
        capacity = math.nextafter(capacity, math.inf)
    params = SystemParams(capacity, 2e6, floor)
    profile = LayerProfile(floor, 0.25e6)
    trace = [
        join(1.0, "s001"), join(2.0, "s001"), join(3.0, "s002"), leave(4.0, "s001"),
        start(5.0, "extra"), stop(6.0, "s002"), start(7.0, "extra"),
        leave(8.0, "s001"), join(9.0, "extra"), leave(10.0, "extra"),
    ]
    try:
        result = run_trace(params, profile, census_of([0] * sessions), trace)
    except InternalInvariantError as exc:
        pytest.fail(f"valid churn tripped the cascade invariant: {exc}")
    assert [(r.event.time, r.error) for r in result.rejections] == [(5.0, "InfeasibleCapacity")]
    assert len(result.snapshots) == len(trace)
    assert result.snapshots[-1].census.total_users == 0
    for snap in result.snapshots:
        assert_allocation_invariants(params, snap.census, snap.popularity)


def test_snapshots_report_one_equal_share_satisfaction(reference_params):
    census = random_census(23, 200, "zipf", seed=5)
    trace = generate_trace(
        TraceGenConfig(census, events=20, weights={"join": 1.0, "leave": 1.0, "switch": 2.0}),
        seed=17,
    )
    result = run_trace(reference_params, PROFILE, census, trace)
    assert len(result.snapshots) == 21
    for snap in result.snapshots:
        doc = snapshot_to_dict(snap)
        averages = doc["average_satisfaction"]
        expected = equal_share_satisfaction(reference_params, 23)
        assert averages["equal_share"] == expected
        assert doc["equal_share"]["satisfaction"] == expected
        assert doc["comparison"]["delta_avg"] == averages["popularity"] - averages["equal_share"]


def test_empty_census_popularity_average_is_the_even_split(reference_params):
    (snap,) = run_trace(reference_params, PROFILE, census_of([0] * 23), []).snapshots
    averages = snapshot_to_dict(snap)["average_satisfaction"]
    assert averages["popularity"] == averages["equal_share"]
    assert averages["equal_share"] == equal_share_satisfaction(reference_params, 23)


# ---------------------------------------------------------------------------
# trace generation
# ---------------------------------------------------------------------------


def test_generate_zero_events(worked_census):
    assert generate_trace(TraceGenConfig(worked_census, events=0), seed=3) == []


def test_generate_is_deterministic(worked_census):
    config = TraceGenConfig(
        worked_census, events=40, weights={"join": 1.0, "leave": 1.0, "switch": 1.0}
    )
    assert generate_trace(config, seed=5) == generate_trace(config, seed=5)
    assert generate_trace(config, seed=5) != generate_trace(config, seed=6)


def test_switch_only_conserves_users(worked_census):
    trace = generate_trace(TraceGenConfig(worked_census, events=60), seed=9)
    assert all(e.kind is EventKind.USER_SWITCH for e in trace)
    counts = worked_census.counts()
    for event in trace:
        counts[event.session_id] -= 1
        counts[event.to_session] += 1
        assert all(v >= 0 for v in counts.values())
        assert sum(counts.values()) == worked_census.total_users


def test_generated_trace_replays_without_rejections(reference_params, worked_census):
    config = TraceGenConfig(
        worked_census, events=80, weights={"join": 1.0, "leave": 2.0, "switch": 2.0}
    )
    result = run_trace(
        reference_params, PROFILE, worked_census, generate_trace(config, seed=21)
    )
    assert result.rejections == ()
    assert len(result.snapshots) == 81


def test_generate_config_validation(worked_census):
    with pytest.raises(ValueError):
        TraceGenConfig(worked_census, events=-1)
    with pytest.raises(ValueError):
        TraceGenConfig(worked_census, events=1, weights={"teleport": 1.0})
    with pytest.raises(ValueError):
        TraceGenConfig(worked_census, events=1, weights={"join": 0.0})
    with pytest.raises(ValueError):
        TraceGenConfig(worked_census, events=1, mean_interval=0.0)


def test_trace_replay_serialization_deterministic(reference_params, worked_census):
    config = TraceGenConfig(
        worked_census, events=10, weights={"join": 1.0, "leave": 1.0, "switch": 3.0}
    )

    def run_bytes():
        trace = generate_trace(config, seed=13)
        result = run_trace(reference_params, PROFILE, worked_census, trace)
        return dump_json(trace_result_document(result)).encode()

    assert run_bytes() == run_bytes()
