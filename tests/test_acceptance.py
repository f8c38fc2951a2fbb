"""Release gate: every numbered criterion below must pass at the stated
tolerance. Each test prints one PASS line (visible with ``pytest -s``);
a failure shows up as the usual pytest FAILED line instead.

Run with: pytest tests/test_acceptance.py -v
"""

import itertools
import json
import math
import random
from contextlib import contextmanager

import pytest

from popalloc import (
    InfeasibleCapacity,
    LayerProfile,
    Regime,
    ScenarioConfig,
    SessionCensus,
    SystemParams,
    TraceGenConfig,
    classify_regime,
    compare_schemes,
    equal_share_satisfaction,
    generate_trace,
    plan_total_rate,
    evaluate,
    run_sweep,
    run_trace,
    session_satisfaction,
)
from popalloc.cli import main
from popalloc.formats import dump_json, trace_result_document
from checks import assert_allocation_invariants
from conftest import WORKED_COUNTS, WORKED_RATES_MBPS
from oracles import rational_cascade
from test_allocation import census_of

REFERENCE_PARAMS = SystemParams.from_mbps(30, 2, 0.6)
PROFILE = LayerProfile.from_mbps(0.6, 0.25)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_c1_worked_allocation(worked_census):
    with criterion("criterion 1: worked 20-session allocation and metrics"):
        allocation = evaluate(REFERENCE_PARAMS, worked_census).allocation
        for entry, want_mbps in zip(allocation.entries, WORKED_RATES_MBPS, strict=True):
            assert entry.rate / 1e6 == pytest.approx(want_mbps, rel=1e-9)
        assert allocation.total_rate == pytest.approx(30e6, rel=1e-9)
        result = compare_schemes(REFERENCE_PARAMS, worked_census)
        assert result.avg_satisfaction_popularity == pytest.approx(
            0.8891234375, abs=1e-9
        )
        assert result.avg_satisfaction_equal == 0.75
        assert result.improved_users == 162
        assert result.degraded_users == 38


def test_c2_dominance_property_suite():
    with criterion("criterion 2: 10,000-instance dominance and invariant suite"):
        rng = random.Random(20260811)
        instances = 10_000
        for i in range(instances):
            if i % 2 == 0:
                params = REFERENCE_PARAMS
                m = rng.randint(1, 50)
            else:
                floor_kbps = rng.randint(1, 2000)
                cap_kbps = floor_kbps + rng.randint(0, 3000)
                m = rng.randint(1, 50)
                capacity_kbps = rng.randint(floor_kbps * m, 2 * cap_kbps * m)
                params = SystemParams(
                    capacity_kbps * 1000.0, cap_kbps * 1000.0, floor_kbps * 1000.0
                )
            per_session_max = 1000 // m
            if i % 10 == 3:
                counts = [rng.randint(0, per_session_max)] * m
            else:
                counts = [rng.randint(0, per_session_max) for _ in range(m)]
            census = census_of(counts)

            allocation = evaluate(params, census).allocation
            assert_allocation_invariants(params, census, allocation)

            result = compare_schemes(params, census)
            assert result.delta_avg >= -1e-12
            if len(set(counts)) == 1:
                assert abs(result.delta_avg) <= 1e-12
            assert (
                result.improved_users + result.degraded_users + result.unchanged_users
                == census.total_users
            )

            scaled = SessionCensus.from_counts(
                (e.session_id, e.users * 7) for e in census.entries
            )
            scaled_rates = evaluate(params, scaled).allocation.rates()
            for entry in allocation.entries:
                assert math.isclose(
                    scaled_rates[entry.session_id], entry.rate, rel_tol=1e-9
                )


def test_c3_exact_rational_oracle_grid():
    with criterion("criterion 3: exhaustive exact-arithmetic oracle grid (M <= 6)"):
        count_grid = (0, 1, 2, 5, 10, 100)
        cap_kbps, floor_kbps = 2000, 600
        checked = 0
        for m in range(1, 7):
            # every ranked census over the grid is a multiset of counts
            for combo in itertools.combinations_with_replacement(
                sorted(count_grid, reverse=True), m
            ):
                counts = sorted(combo, reverse=True)
                # 30 Mbps saturates any M <= 6 at a 2 Mbps cap, so add
                # capacities that keep the cascade in play
                for capacity_kbps in (30_000, 600 * m, 1230 * m, 1900 * m):
                    params = SystemParams(
                        capacity_kbps * 1000.0, cap_kbps * 1000.0, floor_kbps * 1000.0
                    )
                    allocation = evaluate(params, census_of(counts)).allocation
                    expected = rational_cascade(
                        capacity_kbps, cap_kbps, floor_kbps, counts
                    )
                    for entry, want in zip(allocation.entries, expected, strict=True):
                        assert math.isclose(
                            entry.rate / 1000.0, float(want), rel_tol=1e-9
                        )
                    checked += 1
        assert checked == 923 * 4


def test_c4_regime_boundaries():
    with criterion("criterion 4: regime boundaries at M<=15 and M>=51"):
        rng = random.Random(7)
        for m in range(1, 16):
            counts = [rng.randint(0, 50) for _ in range(m)]
            census = census_of(counts)
            allocation = evaluate(REFERENCE_PARAMS, census).allocation
            assert all(e.rate == 2e6 for e in allocation.entries)
            assert equal_share_satisfaction(REFERENCE_PARAMS, m) == 1.0
            per = session_satisfaction(REFERENCE_PARAMS, allocation)
            assert set(per.values()) == {1.0}
            result = compare_schemes(REFERENCE_PARAMS, census)
            assert result.avg_satisfaction_popularity == 1.0
            assert result.avg_satisfaction_equal == 1.0

        for m in (51, 55, 60):
            assert classify_regime(REFERENCE_PARAMS, m) is Regime.INFEASIBLE
            with pytest.raises(InfeasibleCapacity):
                evaluate(REFERENCE_PARAMS, census_of([1] * m))

        for m in (51, 60):
            code = main(
                [
                    "allocate",
                    "--capacity-mbps", "30",
                    "--beta-max-mbps", "2",
                    "--beta-min-mbps", "0.6",
                    "--sessions", str(m),
                    "--users", "200",
                ]
            )
            assert code == 2


def test_c5_satisfaction_sweep_shape():
    with criterion("criterion 5: satisfaction sweep M=5..40, both distributions"):
        for dist in ("uniform", "zipf"):
            config = ScenarioConfig(
                params=REFERENCE_PARAMS,
                session_counts=tuple(range(5, 41)),
                total_users=200,
                dist=dist,
                zipf_s=1.0,
                replications=100,
                seed=42,
            )
            rows = run_sweep(config)
            assert [r.session_count for r in rows] == list(range(5, 41))
            for row in rows:
                assert row.avg_sat_prop_mean >= row.avg_sat_equal_mean
                if row.session_count <= 15:
                    assert row.avg_sat_equal_mean == 1.0
                    assert row.avg_sat_prop_mean == 1.0
                else:
                    assert row.avg_sat_equal_mean == 30 / (2 * row.session_count)
            for earlier, later in zip(rows, rows[1:]):
                assert later.avg_sat_equal_mean <= earlier.avg_sat_equal_mean
                assert later.avg_sat_prop_mean <= earlier.avg_sat_prop_mean


def test_c6_improved_vs_degraded_users():
    with criterion("criterion 6: improved users dominate degraded (zipf, M=20)"):
        config = ScenarioConfig(
            params=REFERENCE_PARAMS,
            session_counts=(20,),
            total_users=200,
            dist="zipf",
            zipf_s=1.0,
            replications=100,
            seed=7,
        )
        row = run_sweep(config)[0]
        assert row.improved_mean > row.degraded_mean
        # pinned on first run: regression fixture for this generator/seed
        assert row.improved_mean == pytest.approx(158.46, abs=1e-9)
        assert row.degraded_mean == pytest.approx(41.54, abs=1e-9)
        assert row.avg_sat_prop_mean == pytest.approx(0.9013639940038516, abs=1e-12)


def test_c7_simulator_reversibility_and_determinism(worked_census):
    with criterion("criterion 7: simulator reversibility, determinism, invariants"):
        from popalloc import EventKind, SimEvent

        trace = [
            SimEvent(1.0, EventKind.USER_JOIN, "s13"),
            SimEvent(2.0, EventKind.USER_LEAVE, "s13"),
        ]
        result = run_trace(REFERENCE_PARAMS, PROFILE, worked_census, trace)
        first, last = result.snapshots[0], result.snapshots[-1]
        assert last.census == first.census
        assert last.popularity.rates() == first.popularity.rates()
        assert last.plans == first.plans

        config = TraceGenConfig(
            worked_census,
            events=10,
            weights={"join": 1.0, "leave": 1.0, "switch": 2.0},
        )

        def serialized_run():
            events = generate_trace(config, seed=13)
            outcome = run_trace(REFERENCE_PARAMS, PROFILE, worked_census, events)
            return outcome, dump_json(trace_result_document(outcome)).encode()

        outcome_a, bytes_a = serialized_run()
        _, bytes_b = serialized_run()
        assert bytes_a == bytes_b

        assert not outcome_a.rejections
        for snap in outcome_a.snapshots:
            assert_allocation_invariants(REFERENCE_PARAMS, snap.census, snap.popularity)
            totals = (
                snap.comparison.improved_users
                + snap.comparison.degraded_users
                + snap.comparison.unchanged_users
            )
            assert totals == snap.census.total_users
            assert 0.0 <= snap.comparison.avg_satisfaction_popularity <= 1.0
            assert 0.0 <= snap.comparison.avg_satisfaction_equal <= 1.0
            assert snap.comparison.delta_avg >= -1e-12


def test_c8_layer_quantizer_on_snapshots(worked_census):
    with criterion("criterion 8: layer plans stay consistent across snapshots"):
        config = TraceGenConfig(
            worked_census,
            events=30,
            weights={"join": 1.0, "leave": 1.0, "switch": 2.0},
        )
        events = generate_trace(config, seed=29)
        result = run_trace(REFERENCE_PARAMS, PROFILE, worked_census, events)
        assert len(result.snapshots) == 31
        for snap in result.snapshots:
            allocated = {e.session_id: e.rate for e in snap.popularity.entries}
            counts = [p.enhancement_count for p in snap.plans]
            assert counts == sorted(counts, reverse=True)
            for plan in snap.plans:
                assert plan.granted_rate <= allocated[plan.session_id]
                assert 0.0 <= plan.residual_rate < PROFILE.enhancement_rate
            assert plan_total_rate(snap.plans) <= 30e6 * (1 + 1e-9)
