import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import popalloc
from popalloc.cli import main
from conftest import WORKED_COUNTS, WORKED_RATES_MBPS

PARAM_FLAGS = ["--capacity-mbps", "30", "--beta-max-mbps", "2", "--beta-min-mbps", "0.6"]


def scenario_doc(counts=WORKED_COUNTS, capacity=30, bmax=2, bmin=0.6):
    return {
        "capacity_mbps": capacity,
        "beta_max_mbps": bmax,
        "beta_min_mbps": bmin,
        "sessions": [
            {"id": f"s{i:02d}", "users": n} for i, n in enumerate(counts, start=1)
        ],
    }


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_doc()))
    return path


# ---------------------------------------------------------------------------
# allocate
# ---------------------------------------------------------------------------


def test_allocate_from_document(scenario_path, tmp_path, capsys):
    out = tmp_path / "allocation.json"
    code = main(["allocate", "--input", str(scenario_path), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["regime"] == "constrained"
    assert doc["equal_share_rate_mbps"] == 1.5
    assert doc["average_satisfaction"]["popularity"] == pytest.approx(
        0.8891234375, abs=1e-9
    )
    assert doc["comparison"] == {
        "improved_users": 162,
        "degraded_users": 38,
        "unchanged_users": 0,
    }
    by_rank = sorted(doc["sessions"], key=lambda s: s["rank"])
    for session, want in zip(by_rank, WORKED_RATES_MBPS, strict=True):
        assert session["rate_mbps"] == pytest.approx(want, rel=1e-9)
        assert session["satisfaction"] == pytest.approx(want / 2, rel=1e-9)
        assert session["layers"]["granted_mbps"] <= session["rate_mbps"]
    # sessions mirror the input document's order
    assert [s["id"] for s in doc["sessions"]] == [f"s{i:02d}" for i in range(1, 21)]


def test_allocate_stdout_default(scenario_path, capsys):
    assert main(["allocate", "--input", str(scenario_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["sessions"]) == 20


def test_allocate_flag_overrides_document(scenario_path, capsys):
    code = main(
        ["allocate", "--input", str(scenario_path), "--capacity-mbps", "40"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["capacity_mbps"] == 40.0
    assert doc["regime"] == "saturated"


def test_allocate_random_census(capsys):
    code = main(
        ["allocate", *PARAM_FLAGS, "--sessions", "20", "--users", "200", "--seed", "42"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert sum(s["users"] for s in doc["sessions"]) == 200


def test_allocate_infeasible_exits_2(capsys):
    code = main(["allocate", *PARAM_FLAGS, "--sessions", "51", "--users", "200"])
    assert code == 2


def test_allocate_bad_json_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["allocate", "--input", str(bad)]) == 3


DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_allocate_deeply_nested_json_exits_3(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    assert main(["allocate", "--input", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: invalid JSON: ")


# An exact JSON integer beyond the float range, and two counts that fit one
# by one but not in sum.
HUGE_COUNTS = [[10**400, 1], [2**1023, 2**1023]]


@pytest.mark.parametrize("counts", HUGE_COUNTS, ids=["one", "sum"])
@pytest.mark.parametrize("capacity", [3, 30], ids=["constrained", "saturated"])
def test_allocate_audience_beyond_float_range_exits_3(tmp_path, capsys, counts, capacity):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_doc(counts, capacity=capacity)))
    assert main(["allocate", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: total audience is too large to convert to a float\n"
    assert captured.out == ""


# A JSON integer of 401 digits, which no float holds.
HUGE_NUMBER = 10**400


@pytest.mark.parametrize("field", ["capacity_mbps", "beta_max_mbps", "beta_min_mbps"])
@pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
def test_allocate_float_field_beyond_float_range_exits_3(tmp_path, capsys, field, to_stdout):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**scenario_doc(), field: HUGE_NUMBER}))
    out = tmp_path / "allocation.json"
    out.write_text("previous run\n")
    argv = ["allocate", "--input", str(path)]
    assert main(argv if to_stdout else [*argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: scenario: field {field!r} is beyond the float range\n"
    assert captured.out == ""
    assert out.read_text() == "previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["allocation.json", "scenario.json"]


@pytest.mark.parametrize("command", ["allocate", "sweep"])
def test_users_beyond_int64_exits_3(tmp_path, capsys, command):
    # numpy's multinomial, which draws the census, takes a C int64 count.
    out = tmp_path / "out.csv"
    argv = [command, *PARAM_FLAGS, "--sessions", "3", "--users", str(2**63), "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: total_users must be between 0 and {2**63 - 1}, got {2**63}\n"
    )
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


def test_allocate_missing_file_exits_4(tmp_path):
    assert main(["allocate", "--input", str(tmp_path / "absent.json")]) == 4


def test_allocate_missing_params_exits_3():
    assert main(["allocate", "--sessions", "20", "--users", "200"]) == 3


def test_allocate_base_layer_above_floor_exits_2(scenario_path):
    code = main(
        ["allocate", "--input", str(scenario_path), "--base-layer-mbps", "0.7"]
    )
    assert code == 2


def test_allocate_at_float_boundary_succeeds(tmp_path, capsys):
    # Capacity one ulp below M * cap used to crash the cascade's final rank.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_doc([3, 33, 43, 3], capacity=7.999999999999999)))
    assert main(["allocate", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["rate_mbps"] for s in doc["sessions"]] == [2.0] * 4


def test_internal_error_exits_5_without_traceback(scenario_path, monkeypatch, capsys):
    import popalloc.satisfaction as satisfaction_module
    from popalloc import InternalInvariantError

    def broken(params, ranked):
        raise InternalInvariantError("cascade overflow at final rank")

    monkeypatch.setattr(satisfaction_module, "popularity_allocate", broken)
    assert main(["allocate", "--input", str(scenario_path)]) == 5
    err = capsys.readouterr().err
    assert err == "error: internal: cascade overflow at final rank\n"


@pytest.mark.parametrize("field", ["capacity_mbps", "beta_max_mbps", "beta_min_mbps"])
@pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN"])
def test_allocate_non_finite_document_exits_3(tmp_path, capsys, field, bad):
    path = tmp_path / "scenario.json"
    text = json.dumps(scenario_doc()).replace(f'"{field}": ', f'"{field}": {bad}, "x": ', 1)
    path.write_text(text)
    assert main(["allocate", "--input", str(path)]) == 3
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    ["--capacity-mbps", "--beta-max-mbps", "--beta-min-mbps", "--base-layer-mbps", "--enh-layer-mbps"],
)
@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_allocate_non_finite_flag_exits_3(scenario_path, capsys, flag, bad):
    assert main(["allocate", "--input", str(scenario_path), f"{flag}={bad}"]) == 3
    assert "finite" in capsys.readouterr().err


def test_failed_write_keeps_existing_output(scenario_path, tmp_path, monkeypatch):
    out = tmp_path / "allocation.json"
    out.write_text("previous run\n")

    def no_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("popalloc.formats.os.replace", no_replace)
    assert main(["allocate", "--input", str(scenario_path), "--out", str(out)]) == 4
    assert out.read_text() == "previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["allocation.json", "scenario.json"]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_trace(scenario_path, tmp_path):
    trace_path = tmp_path / "events.jsonl"
    trace_path.write_text(
        '{"t": 1.0, "ev": "join", "s": "s20"}\n'
        '{"t": 2.0, "ev": "switch", "s": "s01", "to": "s20"}\n'
        '{"t": 3.0, "ev": "leave", "s": "ghost"}\n'
        '{"t": 4.0, "ev": "start", "s": "s21"}\n'
        '{"t": 5.0, "ev": "stop", "s": "s21"}\n'
    )
    out = tmp_path / "run.json"
    code = main(
        ["simulate", "--input", str(scenario_path), "--trace", str(trace_path),
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["snapshots"]) == 5  # initial + 4 accepted
    assert len(doc["rejections"]) == 1
    assert doc["rejections"][0]["s"] == "ghost"
    times = [snap["t"] for snap in doc["snapshots"]]
    assert times == [0.0, 1.0, 2.0, 4.0, 5.0]


def test_simulate_is_byte_deterministic(scenario_path, tmp_path):
    trace_path = tmp_path / "events.jsonl"
    trace_path.write_text('{"t": 1.0, "ev": "join", "s": "s05"}\n')
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["simulate", "--input", str(scenario_path), "--trace", str(trace_path)]
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_unordered_trace_exits_3(scenario_path, tmp_path):
    trace_path = tmp_path / "events.jsonl"
    trace_path.write_text(
        '{"t": 2.0, "ev": "join", "s": "s01"}\n{"t": 1.0, "ev": "join", "s": "s01"}\n'
    )
    assert main(
        ["simulate", "--input", str(scenario_path), "--trace", str(trace_path)]
    ) == 3


def test_simulate_deeply_nested_trace_line_exits_3(scenario_path, tmp_path, capsys):
    trace_path = tmp_path / "events.jsonl"
    trace_path.write_text('{"t": 1.0, "ev": "join", "s": "s01"}\n' + DEEP_JSON + "\n")
    assert main(
        ["simulate", "--input", str(scenario_path), "--trace", str(trace_path)]
    ) == 3
    assert capsys.readouterr().err.startswith("error: trace line 2: invalid JSON: ")


def test_simulate_infeasible_initial_census_exits_2(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_doc(counts=[1] * 60)))
    trace_path = tmp_path / "events.jsonl"
    trace_path.write_text("")
    assert main(["simulate", "--input", str(path), "--trace", str(trace_path)]) == 2


JOIN_AT_1 = '{"t": 1.0, "ev": "join", "s": "s01"}\n'
JOIN_AT_2 = '{"t": 2.0, "ev": "join", "s": "s02"}\n'
SIMULATE_FILES = ["events.jsonl", "run.json", "scenario.json"]


def simulate_inputs(tmp_path, counts=(5, 3), trace="", capacity=30):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(scenario_doc(list(counts), capacity=capacity)))
    trace_path = tmp_path / "events.jsonl"
    trace_path.write_text(trace)
    return ["simulate", "--input", str(scenario), "--trace", str(trace_path)]


@pytest.mark.parametrize(
    "case, code",
    [
        ({"counts": [1] * 60}, 2),
        ({"trace": JOIN_AT_2 + JOIN_AT_1}, 3),
        ({"trace": JOIN_AT_1 + '{"t": 2.0, "ev": "hop", "s": "s01"}\n'}, 3),
        *(({"counts": counts}, 3) for counts in HUGE_COUNTS),
        ({"capacity": HUGE_NUMBER}, 3),
        ({"trace": JOIN_AT_1 + f'{{"t": {HUGE_NUMBER}, "ev": "join", "s": "s01"}}\n'}, 3),
    ],
    ids=[
        "infeasible", "trace-order", "bad-trace-line", "huge-audience", "huge-audience-sum",
        "huge-capacity", "huge-time",
    ],
)
@pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
def test_simulate_input_error_writes_nothing(tmp_path, capsys, case, code, to_stdout):
    # Every input error is found before the first byte of the document.
    argv = simulate_inputs(tmp_path, **case)
    out = tmp_path / "run.json"
    out.write_text("previous run\n")
    assert main(argv if to_stdout else [*argv, "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert out.read_text() == "previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == SIMULATE_FILES


@pytest.mark.parametrize(
    "case, message",
    [
        ({"capacity": HUGE_NUMBER}, "scenario: field 'capacity_mbps'"),
        ({"trace": JOIN_AT_1 + f'{{"t": {HUGE_NUMBER}, "ev": "join", "s": "s01"}}\n'},
         "trace line 2: field 't'"),
    ],
    ids=["scenario", "trace"],
)
def test_simulate_number_beyond_float_range_exits_3(tmp_path, capsys, case, message):
    assert main(simulate_inputs(tmp_path, **case)) == 3
    assert capsys.readouterr().err == f"error: {message} is beyond the float range\n"


def test_failed_simulate_keeps_existing_output(tmp_path, monkeypatch, capsys):
    # The cascade breaks on the third snapshot, after two have been written
    # to the temporary file.
    import popalloc.satisfaction as satisfaction_module
    from popalloc import InternalInvariantError

    real = satisfaction_module.popularity_allocate
    calls = []

    def breaks_third(params, ranked):
        calls.append(ranked)
        if len(calls) == 3:
            raise InternalInvariantError("cascade overflow at final rank")
        return real(params, ranked)

    monkeypatch.setattr(satisfaction_module, "popularity_allocate", breaks_third)
    argv = simulate_inputs(tmp_path, trace=JOIN_AT_1 + JOIN_AT_2)
    out = tmp_path / "run.json"
    out.write_text("previous run\n")
    assert main([*argv, "--out", str(out)]) == 5
    assert capsys.readouterr().err == "error: internal: cascade overflow at final rank\n"
    assert out.read_text() == "previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == SIMULATE_FILES


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", *PARAM_FLAGS, "--sessions", "18..20", "--users", "200",
         "--replications", "2", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("M,dist,replications,seed,")
    assert len(lines) == 4
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert manifest["session_counts"] == [18, 19, 20]


def test_sweep_failed_write_keeps_existing_outputs(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    args = ["sweep", *PARAM_FLAGS, "--sessions", "20", "--users", "200", "--out", str(out)]
    assert main(args) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def no_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("popalloc.formats.os.replace", no_replace)
    assert main([*args, "--seed", "1"]) == 4
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_sweep_single_m(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", *PARAM_FLAGS, "--sessions", "20", "--users", "200", "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 2


def test_sweep_all_infeasible_exits_2(tmp_path):
    code = main(
        ["sweep", *PARAM_FLAGS, "--sessions", "51..55", "--users", "200",
         "--out", str(tmp_path / "sweep.csv")]
    )
    assert code == 2


def test_sweep_bad_range_exits_3(tmp_path):
    code = main(
        ["sweep", *PARAM_FLAGS, "--sessions", "20..5", "--users", "200",
         "--out", str(tmp_path / "sweep.csv")]
    )
    assert code == 3


def test_sweep_zipf_matches_library(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", *PARAM_FLAGS, "--sessions", "20", "--users", "200",
         "--dist", "zipf", "--zipf-s", "1", "--replications", "100", "--seed", "7",
         "--out", str(out)]
    )
    assert code == 0
    from pathlib import Path

    golden = Path(__file__).parent / "data" / "sweep_m20_zipf_seed7.csv"
    assert out.read_text() == golden.read_text()


# ---------------------------------------------------------------------------
# module execution
# ---------------------------------------------------------------------------


# Runs ``simulate`` and prints the child's own peak RSS in KiB to stderr.
PEAK_RSS_CHILD = """\
import resource, sys
from popalloc.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def test_simulate_memory_does_not_grow_with_the_trace(tmp_path):
    # Only the parsed trace (~0.35 KB per event) may grow with the events;
    # a run that kept every snapshot grew by ~90 MB between these two.
    argv = simulate_inputs(tmp_path, counts=(5, 3, 0))
    env = dict(os.environ, PYTHONPATH=str(Path(popalloc.__file__).parents[1]))
    peaks = []
    for events in (1_000, 10_000):
        trace = tmp_path / f"events_{events}.jsonl"
        trace.write_text("".join(
            f'{{"t": {i}.0, "ev": "switch", "s": "s0{1 + i % 2}", "to": "s0{2 - i % 2}"}}\n'
            for i in range(events)
        ))
        argv[-1] = str(trace)
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_CHILD, *argv, "--out", str(tmp_path / "run.json")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stderr.split()[-1]))
        text = (tmp_path / "run.json").read_text()
        assert text.count('\n    {\n      "average_satisfaction"') == events + 1
    assert peaks[1] - peaks[0] < 10 * 1024


def test_module_invocation_smoke(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_doc(counts=[5, 5])))
    proc = subprocess.run(
        [sys.executable, "-m", "popalloc", "allocate", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["regime"] == "saturated"


def run_python(*args):
    """Run a fresh interpreter on ``args``; a hang fails the test at the
    timeout instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(popalloc.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=30,
    )


NUMPY_LOADED_CHILD = """\
import sys
import popalloc.cli
print("numpy" in sys.modules, file=sys.stderr)
code = popalloc.cli.main(sys.argv[1:])
print("numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("command, draws", [("allocate", False), ("simulate", False), ("random", True)])
def test_numpy_loaded_only_for_random_draws(tmp_path, scenario_path, command, draws):
    if command == "allocate":
        argv = ["allocate", "--input", str(scenario_path)]
    elif command == "simulate":
        argv = simulate_inputs(tmp_path, trace=JOIN_AT_1)
    else:
        argv = ["allocate", *PARAM_FLAGS, "--sessions", "20", "--users", "200"]
    proc = run_python("-c", NUMPY_LOADED_CHILD, *argv, "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["False", str(draws)]


@pytest.mark.parametrize(
    "enh_mbps, code",
    # 1.4 Mbps of headroom holds 8.75e15 layers of 1.6e-16 Mbps, under 2**53,
    # and 9.3e15 of 1.5e-16 Mbps, over it; 1e-25 Mbps once hung the quantizer.
    [("1.6e-16", 0), ("1.5e-16", 2), ("1e-25", 2)],
)
def test_enhancement_layer_count_bound(tmp_path, enh_mbps, code):
    argv = ["allocate", *PARAM_FLAGS, "--sessions", "20", "--users", "200"]
    out = tmp_path / "allocation.json"
    proc = run_python("-m", "popalloc", *argv, "--enh-layer-mbps", enh_mbps, "--out", str(out))
    assert proc.returncode == code, proc.stderr
    if code == 0:
        layers = [s["layers"] for s in json.loads(out.read_text())["sessions"]]
        assert max(plan["enhancements"] for plan in layers) > 2**52
    else:
        assert proc.stderr.startswith("error: enhancement layer ")
        assert "Traceback" not in proc.stderr and not out.exists()
