#!/usr/bin/env python3
"""Replay synthetic churn over a skewed 20-session system and show how the
popularity allocation, satisfaction, and layer plans track the audience.

The generated trace is switch-heavy so the total audience stays near 200,
mirroring a steady viewer population that hops between programs.
"""

import argparse

from popalloc import (
    LayerProfile,
    SessionCensus,
    SystemParams,
    TraceGenConfig,
    generate_trace,
    plan_total_rate,
    run_trace,
)

INITIAL_COUNTS = [40, 30, 20, 15, 12, 10, 10, 9, 8, 8, 7, 6, 5, 5, 4, 3, 3, 2, 2, 1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=30)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args()

    params = SystemParams.from_mbps(30, 2, 0.6)
    profile = LayerProfile.from_mbps(0.6, 0.25)
    census = SessionCensus.from_counts(
        (f"s{i:02d}", n) for i, n in enumerate(INITIAL_COUNTS, start=1)
    )
    config = TraceGenConfig(
        census,
        events=args.events,
        weights={"join": 1.0, "leave": 1.0, "switch": 3.0},
    )
    trace = generate_trace(config, seed=args.seed)
    result = run_trace(params, profile, census, trace)

    print(f"{'t':>8} {'event':>22} {'users':>6} {'top rate':>9} {'sat_prop':>9} "
          f"{'sat_eq':>7} {'granted':>8}")
    events = [None] + trace
    for event, snap in zip(events, result.snapshots, strict=True):
        label = "initial" if event is None else (
            f"{event.kind.value} {event.session_id}"
            + (f"->{event.to_session}" if event.to_session else "")
        )
        top_rate = snap.popularity.entries[0].rate / 1e6
        print(
            f"{snap.time:>8.2f} {label:>22} {snap.census.total_users:>6} "
            f"{top_rate:>9.3f} {snap.comparison.avg_satisfaction_popularity:>9.4f} "
            f"{snap.comparison.avg_satisfaction_equal:>7.4f} "
            f"{plan_total_rate(snap.plans) / 1e6:>8.3f}"
        )
    if result.rejections:
        print(f"\nrejected events: {len(result.rejections)}")
        for rejection in result.rejections:
            print(f"  t={rejection.event.time:.2f} {rejection.error}: {rejection.detail}")


if __name__ == "__main__":
    main()
