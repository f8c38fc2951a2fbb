"""The benchmark's three workloads: inputs drawn from the seed, the CLI call
that is one op, and the checks that read the op's written output.

Checks never recompute with popalloc's own code. They test the properties
the allocator guarantees (conservation, floor <= rate <= cap, rates
non-increasing by rank, equal rates for equal audiences, popularity average
no lower than equal share) on the numbers in the written files, replay the
churn census with a plain dict, and compare one census per run against the
exact-rational oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CAP_MBPS = 2.0
FLOOR_MBPS = 0.6
ZIPF_S = 1.0
CONSERVATION_REL = 1e-9
ORACLE_REL = 1e-9
PARAM_FLAGS = ["--beta-max-mbps", "2", "--beta-min-mbps", "0.6"]

SWEEP_CAPACITY_MBPS = 30
SWEEP_SESSIONS = (5, 40)
SWEEP_USERS = 200
SWEEP_REPLICATIONS = 300

CHURN_SESSIONS = 1000
CHURN_USERS = 10**5
CHURN_CAPACITY_MBPS = 1000
CHURN_EVENTS = 100
CHURN_WEIGHTS = {"join": 1.0, "leave": 1.0, "switch": 3.0}

ALLOCATE_SESSIONS = 10**4
ALLOCATE_USERS = 10**6
ALLOCATE_CAPACITY_MBPS = 10_000

GOLDEN_SWEEP_CSV = Path("tests/data/sweep_m20_zipf_seed7.csv")
ORACLE_FILE = Path("tests/oracles.py")


@dataclass
class Workload:
    """One op (a CLI argv), the files it writes, how many censuses it
    evaluates, and the checks on its output bytes.

    ``check(outputs)`` returns a list of problems for the bytes of
    ``outputs`` (one entry per path in ``out_paths``). ``extra_checks(run_cli)``,
    when set, runs once per run, outside the timed phase, and may call the
    CLI itself.
    """

    argv: list[str]
    out_paths: list[Path]
    censuses_per_op: int
    check: Callable[[list[bytes]], list[str]]
    extra_checks: Callable[[Callable[[list[str]], int]], list[str]] | None = None


def load_oracle(root: Path) -> Callable:
    """``rational_cascade`` from the test suite, imported read-only by path."""
    spec = importlib.util.spec_from_file_location("popalloc_test_oracles", root / ORACLE_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.rational_cascade


def scenario_text(capacity_mbps: float, census) -> str:
    doc = {
        "capacity_mbps": capacity_mbps,
        "beta_max_mbps": CAP_MBPS,
        "beta_min_mbps": FLOOR_MBPS,
        "sessions": [{"id": e.session_id, "users": e.users} for e in census.entries],
    }
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# shared property checks
# ---------------------------------------------------------------------------


def ranked_problems(
    where: str,
    capacity_mbps: float,
    regime: str,
    ranked: list[tuple[int, float, float]],
    averages: dict,
    comparison: dict,
) -> list[str]:
    """Allocator guarantees for one census.

    ``ranked`` holds (users, rate_mbps, granted_mbps) in the document's rank
    order.
    """
    problems = []
    saturated = CAP_MBPS * len(ranked) <= capacity_mbps
    want_regime = "saturated" if saturated else "constrained"
    if regime != want_regime:
        problems.append(f"{where}: regime {regime!r}, expected {want_regime!r}")
    rates = [rate for _, rate, _ in ranked]
    if saturated:
        if any(rate != CAP_MBPS for rate in rates):
            problems.append(f"{where}: saturated regime but a rate is below the cap")
    else:
        total = math.fsum(rates)
        if abs(total - capacity_mbps) > CONSERVATION_REL * capacity_mbps:
            problems.append(f"{where}: rates sum to {total!r}, capacity {capacity_mbps!r}")
    if not all(FLOOR_MBPS <= rate <= CAP_MBPS for rate in rates):
        problems.append(f"{where}: a rate lies outside [floor, cap]")
    for (u0, r0, _), (u1, r1, _) in zip(ranked, ranked[1:]):
        if u1 > u0 or r1 > r0:
            problems.append(f"{where}: users or rates increase along the ranking")
            break
    by_users: dict[int, float] = {}
    for users, rate, _ in ranked:
        if by_users.setdefault(users, rate) != rate:
            problems.append(f"{where}: equal audiences of {users} get different rates")
            break
    if any(granted > rate for _, rate, granted in ranked):
        problems.append(f"{where}: a layer plan grants more than the allocated rate")
    if not averages["popularity"] >= averages["equal_share"]:
        problems.append(f"{where}: popularity average below equal share")
    tally = comparison["improved_users"] + comparison["degraded_users"] + comparison["unchanged_users"]
    if tally != sum(users for users, _, _ in ranked):
        problems.append(f"{where}: comparison tallies {tally} users")
    return problems


def oracle_problems(
    where: str, rational_cascade: Callable, capacity_mbps: float, ranked: list[tuple[int, float, float]]
) -> list[str]:
    """Compare written rates with the exact cascade in integer kbps."""
    counts = [users for users, _, _ in ranked]
    want = rational_cascade(
        round(capacity_mbps * 1000), round(CAP_MBPS * 1000), round(FLOOR_MBPS * 1000), counts
    )
    for (_, rate, _), exact in zip(ranked, want):
        if not math.isclose(rate * 1000, float(exact), rel_tol=ORACLE_REL):
            return [f"{where}: rate {rate * 1000!r} kbps, oracle {float(exact)!r}"]
    return []


def allocation_doc_ranked(doc: dict) -> tuple[list[tuple[int, float, float]], list[str]]:
    sessions = sorted(doc["sessions"], key=lambda s: s["rank"])
    problems = []
    if [s["rank"] for s in sessions] != list(range(1, len(sessions) + 1)):
        problems.append("allocate: ranks are not 1..M")
    ranked = [(s["users"], s["rate_mbps"], s["layers"]["granted_mbps"]) for s in sessions]
    return ranked, problems


# ---------------------------------------------------------------------------
# sweep_zipf
# ---------------------------------------------------------------------------


def sweep_csv_problems(text: str, seed: int) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    lo, hi = SWEEP_SESSIONS
    problems = []
    if [int(r["M"]) for r in rows] != list(range(lo, hi + 1)):
        return [f"sweep: rows cover M={[r['M'] for r in rows]}"]
    for row in rows:
        m = int(row["M"])
        where = f"sweep M={m}"
        if (row["dist"], int(row["replications"]), int(row["seed"])) != ("zipf", SWEEP_REPLICATIONS, seed):
            problems.append(f"{where}: row echoes the wrong configuration")
        users = float(row["improved_mean"]) + float(row["degraded_mean"]) + float(row["unchanged_mean"])
        if abs(users - SWEEP_USERS) > CONSERVATION_REL * SWEEP_USERS:
            problems.append(f"{where}: improved + degraded + unchanged = {users!r}")
        eq, prop = float(row["avg_sat_equal_mean"]), float(row["avg_sat_prop_mean"])
        if not prop >= eq:
            problems.append(f"{where}: avg_sat_prop_mean {prop!r} < avg_sat_equal_mean {eq!r}")
        if m * CAP_MBPS <= SWEEP_CAPACITY_MBPS and (eq, prop) != (1.0, 1.0):
            problems.append(f"{where}: saturated but satisfaction is below 1")
    return problems


def sweep_zipf(seed: int, work: Path, root: Path) -> Workload:
    """``popalloc sweep`` at the paper's operating point; the seed is the sweep seed."""
    csv_path = work / "sweep.csv"
    manifest_path = work / "sweep.manifest.json"
    lo, hi = SWEEP_SESSIONS
    argv = [
        "sweep", "--capacity-mbps", str(SWEEP_CAPACITY_MBPS), *PARAM_FLAGS,
        "--sessions", f"{lo}..{hi}", "--users", str(SWEEP_USERS),
        "--dist", "zipf", "--zipf-s", str(ZIPF_S),
        "--replications", str(SWEEP_REPLICATIONS), "--seed", str(seed),
        "--out", str(csv_path),
    ]

    def check(outputs: list[bytes]) -> list[str]:
        problems = sweep_csv_problems(outputs[0].decode(), seed)
        manifest = json.loads(outputs[1])
        if manifest["rows_emitted"] != hi - lo + 1 or manifest["skipped_infeasible_m"]:
            problems.append("sweep: manifest reports skipped or missing rows")
        return problems

    def extra_checks(run_cli: Callable[[list[str]], int]) -> list[str]:
        problems = []
        # The golden CSV pins the sweep's byte-stable output.
        golden = work / "golden" / "sweep.csv"
        code = run_cli([
            "sweep", "--capacity-mbps", "30", *PARAM_FLAGS, "--sessions", "20",
            "--users", "200", "--dist", "zipf", "--zipf-s", "1",
            "--replications", "100", "--seed", "7", "--out", str(golden),
        ])
        if code != 0 or golden.read_bytes() != (root / GOLDEN_SWEEP_CSV).read_bytes():
            problems.append(f"sweep: M=20 seed 7 does not reproduce {GOLDEN_SWEEP_CSV}")
        # Sweep output holds only aggregates, so the oracle census is one
        # allocation at the sweep's largest M, drawn from the same seed.
        out = work / "oracle_allocate.json"
        code = run_cli([
            "allocate", "--capacity-mbps", str(SWEEP_CAPACITY_MBPS), *PARAM_FLAGS,
            "--sessions", str(hi), "--users", str(SWEEP_USERS), "--dist", "zipf",
            "--zipf-s", str(ZIPF_S), "--seed", str(seed), "--out", str(out),
        ])
        if code != 0:
            return problems + [f"sweep: oracle allocate exited {code}"]
        doc = json.loads(out.read_bytes())
        ranked, rank_problems = allocation_doc_ranked(doc)
        problems += rank_problems
        problems += ranked_problems(
            "sweep oracle census", doc["capacity_mbps"], doc["regime"], ranked,
            doc["average_satisfaction"], doc["comparison"],
        )
        problems += oracle_problems("sweep oracle census", load_oracle(root), doc["capacity_mbps"], ranked)
        return problems

    censuses = SWEEP_REPLICATIONS * (hi - lo + 1)
    return Workload(argv, [csv_path, manifest_path], censuses, check, extra_checks)


# ---------------------------------------------------------------------------
# churn_m1000
# ---------------------------------------------------------------------------


def churn_trace(census, seed: int) -> tuple[list[dict], list[dict]]:
    """Generated join/leave/switch trace with two start/stop pairs of fresh
    empty sessions spliced in, plus one leave from an empty session and one
    duplicate start, which the simulator must reject.

    Returns the trace lines and the rejections the simulator must report.
    """
    from popalloc import TraceGenConfig, generate_trace

    events = generate_trace(TraceGenConfig(census, CHURN_EVENTS, CHURN_WEIGHTS), seed)
    lines = []
    for event in events:
        line = {"t": event.time, "ev": event.kind.value, "s": event.session_id}
        if event.to_session is not None:
            line["to"] = event.to_session
        lines.append(line)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1,))))
    spots = sorted(rng.choice(np.arange(1, CHURN_EVENTS), size=6, replace=False).tolist())
    spliced = [
        ("start", "new01", None),
        ("leave", "new01", "EmptySession"),
        ("stop", "new01", None),
        ("start", "new02", None),
        ("start", "new02", "DuplicateSession"),
        ("stop", "new02", None),
    ]
    rejections = []
    # Insert from the back so earlier positions stay valid; each spliced
    # event takes the time of the generated event before it.
    for spot, (ev, sid, error) in reversed(list(zip(spots, spliced))):
        t = lines[spot - 1]["t"]
        lines.insert(spot, {"t": t, "ev": ev, "s": sid})
        if error is not None:
            rejections.append({"t": t, "ev": ev, "s": sid, "to": None, "error": error})
    rejections.reverse()
    return lines, rejections


def replay_censuses(initial: dict[str, int], lines: list[dict]) -> list[tuple[float, dict[str, int]]]:
    """Census after each accepted event, by plain dict arithmetic."""
    counts = dict(initial)
    states = [(0.0, dict(counts))]
    for line in lines:
        ev, sid = line["ev"], line["s"]
        if ev == "join":
            counts[sid] += 1
        elif ev == "leave":
            if counts[sid] == 0:
                continue
            counts[sid] -= 1
        elif ev == "switch":
            counts[sid] -= 1
            counts[line["to"]] += 1
        elif ev == "start":
            if sid in counts:
                continue
            counts[sid] = 0
        elif ev == "stop":
            del counts[sid]
        states.append((line["t"], dict(counts)))
    return states


def snapshot_ranked(snap: dict) -> tuple[list[tuple[int, float, float]], list[str]]:
    users = {c["id"]: c["users"] for c in snap["census"]}
    granted = {p["id"]: p["granted_mbps"] for p in snap["plans"]}
    ids = [p["id"] for p in snap["popularity"]]
    if set(ids) != set(users) or set(granted) != set(users) or len(ids) != len(users):
        return [], [f"snapshot t={snap['t']}: census, popularity and plans cover different sessions"]
    return [(users[p["id"]], p["rate_mbps"], granted[p["id"]]) for p in snap["popularity"]], []


def churn_m1000(seed: int, work: Path, root: Path) -> Workload:
    """``popalloc simulate`` over a seeded 1000-session census and a 106-line trace."""
    from popalloc import random_census

    census = random_census(CHURN_SESSIONS, CHURN_USERS, "zipf", seed, ZIPF_S)
    lines, rejections = churn_trace(census, seed)
    states = replay_censuses(census.counts(), lines)
    scenario = work / "churn_scenario.json"
    trace = work / "churn_trace.jsonl"
    out = work / "churn_run.json"
    scenario.write_text(scenario_text(CHURN_CAPACITY_MBPS, census))
    trace.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
    argv = ["simulate", "--input", str(scenario), "--trace", str(trace), "--out", str(out)]
    rational_cascade = load_oracle(root)

    def check(outputs: list[bytes]) -> list[str]:
        doc = json.loads(outputs[0])
        problems = []
        snapshots = doc["snapshots"]
        if len(snapshots) != len(states):
            problems.append(f"churn: {len(snapshots)} snapshots, expected {len(states)}")
        reported = [{k: r[k] for k in ("t", "ev", "s", "to", "error")} for r in doc["rejections"]]
        if reported != rejections:
            problems.append("churn: rejections differ from the generator's prediction")
        for snap, (t, counts) in zip(snapshots, states):
            where = f"churn snapshot t={snap['t']}"
            if snap["t"] != t or {c["id"]: c["users"] for c in snap["census"]} != counts:
                problems.append(f"{where}: census differs from the replayed trace")
            ranked, shape_problems = snapshot_ranked(snap)
            problems += shape_problems
            if ranked:
                problems += ranked_problems(
                    where, CHURN_CAPACITY_MBPS, snap["regime"], ranked,
                    snap["average_satisfaction"], snap["comparison"],
                )
        if snapshots:
            ranked, _ = snapshot_ranked(snapshots[0])
            problems += oracle_problems("churn initial census", rational_cascade, CHURN_CAPACITY_MBPS, ranked)
        return problems

    return Workload(argv, [out], len(states), check)


# ---------------------------------------------------------------------------
# allocate_m10k
# ---------------------------------------------------------------------------


def allocate_m10k(seed: int, work: Path, root: Path) -> Workload:
    """``popalloc allocate`` on a seeded 10^4-session document."""
    from popalloc import random_census

    census = random_census(ALLOCATE_SESSIONS, ALLOCATE_USERS, "zipf", seed, ZIPF_S)
    expected = [(e.session_id, e.users) for e in census.entries]
    scenario = work / "allocate_scenario.json"
    out = work / "allocation.json"
    scenario.write_text(scenario_text(ALLOCATE_CAPACITY_MBPS, census))
    argv = ["allocate", "--input", str(scenario), "--out", str(out)]
    rational_cascade = load_oracle(root)

    def check(outputs: list[bytes]) -> list[str]:
        doc = json.loads(outputs[0])
        problems = []
        if [(s["id"], s["users"]) for s in doc["sessions"]] != expected:
            problems.append("allocate: sessions do not mirror the input document")
        ranked, rank_problems = allocation_doc_ranked(doc)
        problems += rank_problems
        problems += ranked_problems(
            "allocate", doc["capacity_mbps"], doc["regime"], ranked,
            doc["average_satisfaction"], doc["comparison"],
        )
        problems += oracle_problems("allocate", rational_cascade, ALLOCATE_CAPACITY_MBPS, ranked)
        return problems

    return Workload(argv, [out], 1, check)


WORKLOADS = {
    "sweep_zipf": sweep_zipf,
    "churn_m1000": churn_m1000,
    "allocate_m10k": allocate_m10k,
}
