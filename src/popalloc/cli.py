"""Command-line front end: one-shot allocation, trace replay, and sweeps.

Exit codes: 0 success, 2 infeasible configuration, 3 input parse error,
4 I/O error, 5 internal error (a bug, reported without a traceback).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from pathlib import Path

from .allocation import MBPS, SystemParams
from .errors import (
    DocumentError,
    InfeasibleCapacity,
    InternalInvariantError,
    ProfileInfeasible,
    TraceOrder,
)
from .formats import (
    allocation_chunks,
    load_trace,
    parse_scenario_document,
    trace_result_chunks,
    write_text_atomic,
)
from .harness import ScenarioConfig, emit_sweep_outputs, random_census, run_sweep
from .layers import LayerProfile, check_profile_fits
from .simulation import Snapshot, stream_trace

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--capacity-mbps", type=float, help="total system capacity")
    parser.add_argument("--beta-max-mbps", type=float, help="per-session rate cap")
    parser.add_argument("--beta-min-mbps", type=float, help="per-session rate floor")


def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--base-layer-mbps",
        type=float,
        default=None,
        help="base layer rate (default: the session floor)",
    )
    parser.add_argument(
        "--enh-layer-mbps",
        type=float,
        default=0.25,
        help="uniform enhancement layer rate (default 0.25)",
    )


def _add_census_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, help="total users to distribute")
    parser.add_argument("--dist", choices=["uniform", "zipf"], default="uniform")
    parser.add_argument("--zipf-s", type=float, default=1.0, help="zipf exponent")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popalloc",
        description="Popularity-weighted bandwidth allocation for multicast video sessions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    allocate = sub.add_parser(
        "allocate", help="allocate once, from a scenario document or random census"
    )
    allocate.add_argument(
        "--input", help="scenario JSON document; '-' reads stdin"
    )
    _add_param_flags(allocate)
    allocate.add_argument("--sessions", type=int, help="session count for a random census")
    _add_census_flags(allocate)
    _add_profile_flags(allocate)
    allocate.add_argument("--out", help="output path (default stdout)")
    allocate.set_defaults(func=cmd_allocate)

    simulate = sub.add_parser("simulate", help="replay a churn trace")
    simulate.add_argument("--input", required=True, help="initial scenario JSON document")
    simulate.add_argument("--trace", required=True, help="trace file, one event per line")
    _add_param_flags(simulate)
    _add_profile_flags(simulate)
    simulate.add_argument("--out", help="output path (default stdout)")
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="sweep session counts with random censuses")
    _add_param_flags(sweep)
    sweep.add_argument(
        "--sessions",
        required=True,
        help="session count or inclusive range, e.g. 20 or 5..40",
    )
    _add_census_flags(sweep)
    sweep.add_argument("--replications", type=int, default=1)
    sweep.add_argument("--out", required=True, help="CSV path; manifest lands beside it")
    sweep.set_defaults(func=cmd_sweep)

    return parser


def _resolve_params(args: argparse.Namespace, doc_params: SystemParams | None) -> SystemParams:
    """Document values are defaults; explicitly passed flags win."""
    values = {
        "capacity": args.capacity_mbps,
        "max": args.beta_max_mbps,
        "min": args.beta_min_mbps,
    }
    if doc_params is not None:
        if values["capacity"] is None:
            values["capacity"] = doc_params.capacity / MBPS
        if values["max"] is None:
            values["max"] = doc_params.max_session_rate / MBPS
        if values["min"] is None:
            values["min"] = doc_params.min_session_rate / MBPS
    missing = [k for k, v in values.items() if v is None]
    if missing:
        raise DocumentError(
            "missing system parameters: "
            + ", ".join(f"--beta-{k}-mbps" if k != "capacity" else "--capacity-mbps" for k in missing)
        )
    try:
        return SystemParams.from_mbps(values["capacity"], values["max"], values["min"])
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _resolve_profile(args: argparse.Namespace, params: SystemParams) -> LayerProfile:
    base = (
        args.base_layer_mbps
        if args.base_layer_mbps is not None
        else params.min_session_rate / MBPS
    )
    try:
        profile = LayerProfile.from_mbps(base, args.enh_layer_mbps)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    check_profile_fits(params, profile)
    return profile


def _read_input(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    return Path(source).read_text()


def _write_output(chunks: Iterable[str], out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.writelines(chunks)
        return
    write_text_atomic(out, chunks)


def _parse_session_range(text: str) -> tuple[int, ...]:
    raw = text.strip()
    try:
        if ".." in raw:
            lo_text, hi_text = raw.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo < 1 or hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        value = int(raw)
        if value < 1:
            raise ValueError
        return (value,)
    except ValueError:
        raise DocumentError(
            f"--sessions must be a positive count or LO..HI range, got {text!r}"
        ) from None


def cmd_allocate(args: argparse.Namespace) -> int:
    if args.input:
        doc_params, census = parse_scenario_document(_read_input(args.input))
        params = _resolve_params(args, doc_params)
    else:
        params = _resolve_params(args, None)
        if args.sessions is None or args.users is None:
            raise DocumentError("allocate needs --input, or --sessions and --users")
        census = random_census(
            args.sessions, args.users, args.dist, args.seed, args.zipf_s
        )
    profile = _resolve_profile(args, params)

    snapshot = Snapshot.from_census(census, params, profile)
    _write_output(allocation_chunks(params, snapshot), args.out)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    doc_params, census = parse_scenario_document(_read_input(args.input))
    params = _resolve_params(args, doc_params)
    profile = _resolve_profile(args, params)
    trace = load_trace(args.trace)
    # Every input error is raised here, before the first byte is written.
    rejections, snapshots = stream_trace(params, profile, census, trace)
    _write_output(trace_result_chunks(rejections, snapshots), args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    params = _resolve_params(args, None)
    if args.users is None:
        raise DocumentError("sweep needs --users")
    session_counts = _parse_session_range(args.sessions)
    try:
        config = ScenarioConfig(
            params=params,
            session_counts=session_counts,
            total_users=args.users,
            dist=args.dist,
            zipf_s=args.zipf_s,
            replications=args.replications,
            seed=args.seed,
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    rows = run_sweep(config)
    if not rows:
        raise InfeasibleCapacity(
            "every session count in the sweep exceeds what the floor supports"
        )
    csv_path, manifest_path = emit_sweep_outputs(rows, args.out, config)
    print(f"wrote {csv_path} and {manifest_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, TraceOrder) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InfeasibleCapacity, ProfileInfeasible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InternalInvariantError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
