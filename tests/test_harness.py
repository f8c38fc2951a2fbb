import json
import statistics
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from popalloc import (
    Regime,
    ScenarioConfig,
    SweepRow,
    SystemParams,
    classify_regime,
    compare_schemes,
    emit_sweep_outputs,
    evaluate,
    popularity_allocate,
    random_census,
    run_sweep,
)
from popalloc.cli import main
from popalloc.harness import DISTRIBUTIONS, session_ids, sweep_csv_text, CSV_COLUMNS

DATA = Path(__file__).parent / "data"

# First run under the pinned generator (PCG64, SeedSequence(42)); frozen as
# a portability regression for this generator choice.
UNIFORM_SEED42_COUNTS = [
    12, 9, 13, 11, 6, 16, 12, 12, 6, 9, 8, 14, 10, 11, 8, 7, 9, 5, 9, 13,
]


def reference_config(**overrides):
    base = dict(
        params=SystemParams.from_mbps(30, 2, 0.6),
        session_counts=(20,),
        total_users=200,
        dist="uniform",
        replications=3,
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# random censuses
# ---------------------------------------------------------------------------


def test_single_session_holds_everyone():
    census = random_census(1, 137, "uniform", 0)
    assert census.counts() == {"s1": 137}


@pytest.mark.parametrize("dist", ["uniform", "zipf"])
@pytest.mark.parametrize("seed", [0, 1, 99])
def test_counts_sum_to_total(dist, seed):
    census = random_census(17, 423, dist, seed)
    assert census.total_users == 423
    assert census.session_count == 17


def test_census_deterministic_per_seed():
    a = random_census(10, 100, "zipf", 5)
    b = random_census(10, 100, "zipf", 5)
    c = random_census(10, 100, "zipf", 6)
    assert a == b
    assert a != c


def test_pinned_uniform_census_fixture():
    census = random_census(20, 200, "uniform", 42)
    assert [e.users for e in census.entries] == UNIFORM_SEED42_COUNTS
    assert [e.session_id for e in census.entries][:2] == ["s01", "s02"]


def test_zipf_skews_toward_low_indices():
    census = random_census(20, 2000, "zipf", 3, zipf_s=1.2)
    counts = [e.users for e in census.entries]
    assert counts[0] > counts[-1]
    assert counts[0] > 2000 / 20  # head holds more than the even share


def test_zero_users_allowed():
    census = random_census(5, 0, "uniform", 1)
    assert census.total_users == 0


def test_users_up_to_int64_limit_drawn():
    census = random_census(3, 2**63 - 1, "zipf", 1)
    assert census.total_users == 2**63 - 1
    with pytest.raises(ValueError, match="total_users"):
        random_census(3, 2**63)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        random_census(0, 10)
    with pytest.raises(ValueError):
        random_census(3, -1)
    with pytest.raises(ValueError):
        random_census(3, 10, "normal")
    with pytest.raises(ValueError):
        random_census(3, 10, "zipf", zipf_s=0.0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        reference_config(replications=0)
    with pytest.raises(ValueError):
        reference_config(session_counts=())
    with pytest.raises(ValueError):
        reference_config(session_counts=(0,))
    with pytest.raises(ValueError):
        reference_config(dist="zipf", zipf_s=-1.0)
    with pytest.raises(ValueError):
        reference_config(dist="pareto")


def test_saturated_rows_are_flat():
    rows = run_sweep(reference_config(session_counts=tuple(range(5, 16))))
    for row in rows:
        assert row.avg_sat_equal_mean == 1.0
        assert row.avg_sat_prop_mean == 1.0
        assert row.improved_mean == 0.0
        assert row.degraded_mean == 0.0
        assert row.unchanged_mean == 200.0


def test_rows_ordered_and_dominant():
    rows = run_sweep(reference_config(session_counts=tuple(range(16, 31))))
    assert [r.session_count for r in rows] == list(range(16, 31))
    for row in rows:
        assert row.avg_sat_prop_mean >= row.avg_sat_equal_mean
        # per replication the three counts sum to exactly 200; the three
        # independently rounded means can be an ulp apart
        assert row.improved_mean + row.degraded_mean + row.unchanged_mean == pytest.approx(
            200.0, abs=1e-9
        )


def test_equal_share_mean_is_exact():
    rows = run_sweep(reference_config(session_counts=(17, 23), replications=100))
    for row in rows:
        assert row.avg_sat_equal_mean == 30 / (2 * row.session_count)
        assert row.avg_sat_equal_std == 0.0


def test_infeasible_session_counts_skipped(caplog):
    config = reference_config(session_counts=(49, 50, 51, 52))
    with caplog.at_level("WARNING"):
        rows = run_sweep(config)
    assert [r.session_count for r in rows] == [49, 50]
    assert "skipping M=51" in caplog.text


def test_row_matches_direct_replication():
    config = reference_config(session_counts=(20,), replications=5, seed=31)
    row = run_sweep(config)[0]
    import numpy as np

    values = []
    for replication in range(5):
        seq = np.random.SeedSequence(entropy=31, spawn_key=(20, replication))
        census = random_census(20, 200, "uniform", seq)
        values.append(compare_schemes(config.params, census).avg_satisfaction_popularity)
    assert row.avg_sat_prop_mean == float(statistics.mean(values))


@st.composite
def sweep_configs(draw):
    """Sweeps whose session counts reach the saturated, constrained and
    infeasible regimes, with audiences of 0, 1, a few or 2**63 - 1 users."""
    floor_kbps = draw(st.integers(100, 1000))
    cap_kbps = floor_kbps + draw(st.integers(0, 2000))
    capacity_kbps = draw(st.integers(floor_kbps, 40 * floor_kbps))
    most_feasible = capacity_kbps // floor_kbps
    dist = draw(st.sampled_from(DISTRIBUTIONS))
    return ScenarioConfig(
        params=SystemParams(capacity_kbps * 1e3, cap_kbps * 1e3, floor_kbps * 1e3),
        session_counts=tuple(
            draw(st.lists(st.integers(1, most_feasible + 2), min_size=1, max_size=4))
        ),
        total_users=draw(st.one_of(st.sampled_from([0, 1, 2**63 - 1]), st.integers(2, 500))),
        dist=dist,
        zipf_s=draw(st.floats(0.1, 3.0)) if dist == "zipf" else 1.0,
        replications=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**64)),
    )


@settings(max_examples=60, deadline=None)
@given(sweep_configs())
def test_sweep_rows_equal_per_census_evaluation(config):
    """Each row is the exact aggregate of evaluating every replication's
    census on its own."""
    import numpy as np

    expected = []
    for m in config.session_counts:
        if classify_regime(config.params, m) is Regime.INFEASIBLE:
            continue
        comparisons = []
        for replication in range(config.replications):
            seed = np.random.SeedSequence(config.seed, spawn_key=(m, replication))
            census = random_census(m, config.total_users, config.dist, seed, config.zipf_s)
            comparisons.append(evaluate(config.params, census).comparison)
            ascending = sorted(census.counts().values())
            if ascending[0] != ascending[-1]:
                with pytest.raises(ValueError, match="rank order"):
                    popularity_allocate(config.params, ascending)
        equal = [c.avg_satisfaction_equal for c in comparisons]
        popularity = [c.avg_satisfaction_popularity for c in comparisons]
        expected.append(
            SweepRow(
                m,
                config.dist,
                config.replications,
                config.seed,
                float(statistics.mean(equal)),
                float(statistics.pstdev(equal)),
                float(statistics.mean(popularity)),
                float(statistics.pstdev(popularity)),
                float(statistics.mean([c.improved_users for c in comparisons])),
                float(statistics.mean([c.degraded_users for c in comparisons])),
                float(statistics.mean([c.unchanged_users for c in comparisons])),
            )
        )
    assert run_sweep(config) == expected


# ---------------------------------------------------------------------------
# CSV and manifest
# ---------------------------------------------------------------------------


def test_empty_rows_give_header_only():
    assert sweep_csv_text([]) == ",".join(CSV_COLUMNS) + "\n"


def test_session_ids_are_one_shared_tuple():
    ids = session_ids(12)
    assert ids == tuple(f"s{i:02d}" for i in range(1, 13))
    # Built once per session count and immutable, so sharing it is safe.
    assert session_ids(12) is ids and isinstance(ids, tuple)


def test_single_row_gives_two_lines():
    rows = run_sweep(reference_config(session_counts=(20,), replications=1))
    assert sweep_csv_text(rows).count("\n") == 2


def test_golden_zipf_sweep_csv():
    config = reference_config(
        session_counts=(20,), dist="zipf", zipf_s=1.0, replications=100, seed=7
    )
    text = sweep_csv_text(run_sweep(config))
    assert text == (DATA / "sweep_m20_zipf_seed7.csv").read_text()


def test_golden_allocate_json(tmp_path):
    # The reference 20-session census at C=30, cap=2, floor=0.6 Mbps with
    # the default layer profile.
    out = tmp_path / "allocation.json"
    argv = ["allocate", "--input", str(DATA / "allocate_ref20_scenario.json"), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (DATA / "allocate_ref20.expected.json").read_bytes()


def test_golden_simulate_json(tmp_path):
    # 23 sessions at 30 Mbps; the 20-event trace joins, leaves, switches,
    # starts a 24th session, stops an empty one and has one rejected leave.
    out = tmp_path / "run.json"
    argv = [
        "simulate",
        "--input", str(DATA / "churn_m23_scenario.json"),
        "--trace", str(DATA / "churn_m23_trace.jsonl"),
        "--out", str(out),
    ]
    assert main(argv) == 0
    assert out.read_bytes() == (DATA / "churn_m23.expected.json").read_bytes()


@pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
def test_golden_simulate_rejections_json(tmp_path, capsys, to_stdout):
    # 3 sessions at 2 Mbps, so the floor fits no 4th. The trace hits every
    # rejection: UnknownSession on join, leave, switch from and to, and stop;
    # EmptySession on leave and switch; DuplicateSession; InfeasibleCapacity
    # on a start past the floor and on stopping the last session. The
    # expected file was written by the CLI that still built the whole
    # document before writing it.
    out = tmp_path / "run.json"
    argv = [
        "simulate",
        "--input", str(DATA / "rejections_m3_scenario.json"),
        "--trace", str(DATA / "rejections_m3_trace.jsonl"),
    ]
    assert main(argv if to_stdout else [*argv, "--out", str(out)]) == 0
    text = capsys.readouterr().out.encode() if to_stdout else out.read_bytes()
    assert text == (DATA / "rejections_m3.expected.json").read_bytes()


@pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
def test_golden_simulate_m300_json(tmp_path, capsys, to_stdout):
    # 300 zipf sessions at 300 Mbps, listed out of id order: 14 capped
    # ranks, 35 distinct audiences (38 sessions empty), and ids that JSON
    # escapes. The trace joins and switches between tied sessions, starts an
    # empty session, rejects a leave from it, stops it and lowers the top
    # session. The expected file was written by the CLI that still built a
    # row dict per session.
    out = tmp_path / "run.json"
    argv = [
        "simulate",
        "--input", str(DATA / "churn_m300_zipf_scenario.json"),
        "--trace", str(DATA / "churn_m300_zipf_trace.jsonl"),
    ]
    assert main(argv if to_stdout else [*argv, "--out", str(out)]) == 0
    text = capsys.readouterr().out.encode() if to_stdout else out.read_bytes()
    assert text == (DATA / "churn_m300_zipf.expected.json").read_bytes()


def test_golden_sweep_outputs(tmp_path):
    # C=30, cap=2, floor=0.6 Mbps: M 14-15 saturated, 16-50 constrained,
    # 51-52 skipped as infeasible.
    out = tmp_path / "sweep_m14_52_zipf_seed7.csv"
    argv = [
        "sweep",
        "--capacity-mbps", "30", "--beta-max-mbps", "2", "--beta-min-mbps", "0.6",
        "--sessions", "14..52", "--users", "200", "--dist", "zipf",
        "--replications", "3", "--seed", "7", "--out", str(out),
    ]
    assert main(argv) == 0
    assert out.read_bytes() == (DATA / out.name).read_bytes()
    manifest = out.with_suffix(".manifest.json")
    assert manifest.read_bytes() == (DATA / manifest.name).read_bytes()


def test_emitted_files_are_byte_stable(tmp_path):
    config = reference_config(session_counts=(18, 20), replications=4)
    rows = run_sweep(config)
    first_csv, first_manifest = emit_sweep_outputs(rows, tmp_path / "a" / "sweep.csv", config)
    second_csv, second_manifest = emit_sweep_outputs(rows, tmp_path / "b" / "sweep.csv", config)
    assert first_csv.read_bytes() == second_csv.read_bytes()
    assert first_manifest.read_bytes() == second_manifest.read_bytes()
    assert first_manifest.name == "sweep.manifest.json"


def test_manifest_contents(tmp_path):
    config = reference_config(
        session_counts=(50, 51), dist="zipf", zipf_s=1.3, replications=2, seed=9
    )
    rows = run_sweep(config)
    _, manifest_path = emit_sweep_outputs(rows, tmp_path / "sweep.csv", config)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["generator"] == "numpy-pcg64"
    assert manifest["seed"] == 9
    assert manifest["zipf_s"] == 1.3
    assert manifest["skipped_infeasible_m"] == [51]
    assert manifest["rows_emitted"] == 1
    assert manifest["subseed_scheme"] == "SeedSequence(seed, spawn_key=(M, replication))"
