#!/usr/bin/env python3
"""popalloc benchmark: one workload, one closed-loop client, in process.

Run from the root of a popalloc checkout:

    python3 perfbench/run.py --workload churn_m1000 --seed 1 --seconds 35 --trace 0

Each op is one ``popalloc.cli.main(argv)`` call on inputs drawn from
``--seed``; the next op starts when the previous one returns. Every op's
written output is checked (see ``workloads.py``). Every reported time is
scaled to a reference host speed, measured by a probe between ops (see
``HostProbe``); the unscaled figures are printed and recorded beside.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; the
lines above it also give ``latency_tail_ms`` where the run has enough ops
for a tail, and ``failed_frac``. With ``--trace 1`` every other op runs
with the layer wrappers of ``layertrace.py`` installed and the last line
carries the per-layer metrics. A full record, with the
environment, goes to ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# The load model runs no threads. numpy's OpenBLAS would start a worker
# thread per extra CPU when numpy is imported; popalloc makes no BLAS call,
# and how long that start takes depends on when the host schedules the other
# vCPU (up to 0.07 s more on a 2-vCPU VM), which would only add host noise
# to setup_s. Set before numpy is first imported, here and in every child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from workloads import GOLDEN_SWEEP_CSV, ORACLE_FILE, WORKLOADS  # noqa: E402

# The tail is the highest percentile with at least this many samples
# beyond it. It is reported only where it lies above the median, that is
# where the run made at least TAIL_MIN_OPS ops.
TAIL_BEYOND = 10
TAIL_MIN_OPS = 2 * (TAIL_BEYOND + 1)
MIN_OPS = 5  # untraced ops per run at least, for the median
MIN_TRACE_OPS = 2  # of each kind, traced and untraced
# Stop making ops after this long whatever the op count, so that a much
# slower program still ends inside the 180 s a run may take.
MAX_LOOP_S = 110.0
SETUP_REPEATS = 15
# One probe per this much op time, at least one after every op, so the
# probes sample the host over the whole run in proportion to op time.
PROBE_EVERY_S = 0.5
PROBE_LOOPS = 200_000
# The probe's median time on the 2-vCPU Xeon VM on which the bounds were
# set. It fixes the unit: scaled times read as that host's at its usual speed.
REFERENCE_PROBE_S = 0.017
OUT_DIR = Path(".perfbench_run")

SETUP_CODE = """\
import time
start = time.perf_counter()
import popalloc.cli
popalloc.cli.build_parser()
print(time.perf_counter() - start)
"""


class HostProbe:
    """How fast the host runs this process, from a fixed pure-Python loop.

    On a shared 2-vCPU VM the loop's time varied by up to 2x within
    minutes, and the median op time over 30 s moved with it by up to 1.7x.
    Dividing by the median probe time of the same 30 s cut the spread of
    those medians (IQR over median) from 0.11-0.19 to 0.03-0.13 on
    allocate_m10k, sweep_zipf and setup; churn_m1000, whose ops move more
    memory than the loop does, stayed at about 0.1-0.14. The loop runs no
    popalloc code, so a change to popalloc moves the scaled times exactly as
    much as the unscaled ones.
    """

    def __init__(self) -> None:
        self.times: list[float] = []

    def measure(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            total = 0
            for i in range(PROBE_LOOPS):
                total += i * i
            self.times.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor from this run's seconds to reference-host seconds."""
        return REFERENCE_PROBE_S / statistics.median(self.times)


def environment() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


class SetupTimer:
    """Seconds for a fresh interpreter to import popalloc.cli and build the
    parser. Children are spread over the run. Each is scaled by the mean of
    a probe just before and one just after it, because set-up times jump
    between two levels a few seconds apart that the run's median probe does
    not follow, and the run reports the median scaled time."""

    def __init__(self, src: Path, probe: HostProbe) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), self.env.get("PYTHONPATH")]))
        self.probe = probe
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.child()  # compiles bytecode; not counted

    def child(self) -> float:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=self.env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        return float(proc.stdout)

    def measure(self) -> None:
        self.probe.measure()
        elapsed = self.child()
        self.probe.measure()
        around = (self.probe.times[-1] + self.probe.times[-2]) / 2
        self.times.append(elapsed)
        self.scaled.append(elapsed * REFERENCE_PROBE_S / around)


def run_cli(cli, argv: list[str]) -> tuple[int | None, float, bytes]:
    """One op: exit code (None on an exception), wall seconds, stdout bytes."""
    captured = io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
    elapsed = time.perf_counter() - start
    return code, elapsed, captured.getvalue().encode()


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest percentile with TAIL_BEYOND samples beyond it, as (value,
    percentile), or None where that percentile would not exceed the median."""
    n = len(latencies)
    if n < TAIL_MIN_OPS:
        return None
    index = n - TAIL_BEYOND - 1
    return sorted(latencies)[index], 100.0 * (index + 1) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    needed = [src / "popalloc" / "cli.py", root / ORACLE_FILE, root / GOLDEN_SWEEP_CSV]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from a popalloc checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import popalloc.cli as cli
    from layertrace import LAYERS, LayerTracer, reduce_spans

    env = environment()
    probe = HostProbe()
    setup = None if args.trace else SetupTimer(src, probe)

    work = root / OUT_DIR / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work, root)
    tracer = LayerTracer() if args.trace else None

    latencies: list[float] = []
    traced: list[dict] = []  # per traced op: elapsed, calls, self_s, covered
    untraced_s = 0.0
    bytes_out: list[int] = []
    verdicts: dict[str, list[str]] = {}
    first_digest = None
    failed = failed_untraced = 0
    problems_seen: list[str] = []
    first_spans: list[tuple] = []
    peak_rss_kb = 0
    loop_start = time.perf_counter()
    op = 0
    while True:
        for path in workload.out_paths:
            path.unlink(missing_ok=True)
        gc.collect()
        trace_op = tracer is not None and op % 2 == 1
        if trace_op:
            tracer.install(op)
        code, elapsed, stdout = run_cli(cli, workload.argv)
        if trace_op:
            tracer.remove()
        probe.measure(max(1, round(elapsed / PROBE_EVERY_S)))
        if op == 0:
            # Read before any check parses the output, so the figure is the op's.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        problems = []
        if code != 0:
            problems.append(f"op {op}: exit code {code}")
        else:
            try:
                outputs = [path.read_bytes() for path in workload.out_paths]
            except OSError as exc:
                outputs = None
                problems.append(f"op {op}: {exc}")
            if outputs is not None:
                bytes_out.append(sum(map(len, outputs)) + len(stdout))
                digest = hashlib.sha256()
                for blob in outputs:
                    digest.update(len(blob).to_bytes(8, "little"))
                    digest.update(blob)
                digest = digest.hexdigest()
                if digest not in verdicts:
                    # Outputs are compared byte for byte, so one content
                    # check per distinct output covers every op.
                    try:
                        verdicts[digest] = workload.check(outputs)
                    except (AttributeError, LookupError, TypeError, ValueError) as exc:
                        verdicts[digest] = [f"malformed output: {exc!r}"]
                problems += verdicts[digest]
                if first_digest is None:
                    first_digest = digest
                elif digest != first_digest:
                    problems.append(f"op {op}: output differs from op 0 (sha256 {digest[:12]})")
        if problems:
            failed += 1
            failed_untraced += not trace_op
            problems_seen += problems[:5]
            for line in problems[:5]:
                print(f"check failed: {line}", file=sys.stderr)

        if trace_op:
            spans = list(tracer.spans)
            if not first_spans:
                first_spans = spans
            calls, self_s, covered = reduce_spans(spans)
            traced.append({"elapsed": elapsed, "calls": calls, "self_s": self_s, "covered": covered})
        else:
            latencies.append(elapsed)
            untraced_s += elapsed
        op += 1

        loop_s = time.perf_counter() - loop_start
        while (
            setup is not None and len(setup.times) < SETUP_REPEATS
            and loop_s * SETUP_REPEATS >= args.seconds * len(setup.times)
        ):
            setup.measure()
        if loop_s > MAX_LOOP_S:
            break
        if tracer is None:
            if untraced_s >= args.seconds and len(latencies) >= MIN_OPS:
                break
        elif untraced_s + sum(t["elapsed"] for t in traced) >= args.seconds and min(
            len(latencies), len(traced)
        ) >= MIN_TRACE_OPS:
            break

    attempted = op
    if workload.extra_checks is not None:
        # The run-level checks count as one more, untimed op.
        attempted += 1
        extra = workload.extra_checks(lambda argv: run_cli(cli, argv)[0])
        if extra:
            failed += 1
            problems_seen += extra
        for line in extra:
            print(f"check failed: {line}", file=sys.stderr)
    correct = not problems_seen

    while setup is not None and len(setup.times) < SETUP_REPEATS:
        setup.measure()
    env["loadavg_end"] = list(os.getloadavg())
    scale = probe.scale()
    env["probe_ms_median"] = statistics.median(probe.times) * 1000
    env["probes"] = len(probe.times)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "attempted": attempted, "failed": failed, "problems": problems_seen[:20],
        "scale": scale, "latencies_s": latencies, "probe_times_s": probe.times,
    }
    metrics: dict[str, dict] = {}
    if tracer is None:
        timed_censuses = workload.censuses_per_op * (len(latencies) - failed_untraced)
        unscaled = {
            "setup_s": statistics.median(setup.times),
            "censuses_per_s": timed_censuses / untraced_s,
            "latency_p50_ms": statistics.median(latencies) * 1000,
        }
        metrics = {
            "setup_s": metric(statistics.median(setup.scaled), "s"),
            "censuses_per_s": metric(unscaled["censuses_per_s"] / scale, "1/s"),
            "latency_p50_ms": metric(unscaled["latency_p50_ms"] * scale, "ms"),
            "peak_rss_mb": metric(peak_rss_kb / 1024, "MB"),
        }
        record["setup_times_s"] = setup.times
        record["unscaled"] = unscaled
        extra_lines = [f"unscaled {name} = {value!r}" for name, value in unscaled.items()]
        found = tail(latencies)
        if found is None:
            extra_lines.append(
                f"latency_tail_ms = n/a ({len(latencies)} ops; a tail above the median "
                f"with {TAIL_BEYOND} samples beyond it needs {TAIL_MIN_OPS})"
            )
        else:
            tail_s, tail_pct = found
            record.update(latency_tail_ms=tail_s * scale * 1000, latency_tail_pct=tail_pct)
            extra_lines.append(
                f"latency_tail_ms = {tail_s * scale * 1000!r} ms "
                f"(p{tail_pct:.1f} of {len(latencies)} ops; unscaled {tail_s * 1000!r})"
            )
    else:
        n = len(traced)
        for module, fns in LAYERS.items():
            for fn in fns:
                name = f"{module}.{fn}"
                calls = sum(t["calls"].get(name, 0) for t in traced) / n
                self_ms = statistics.median(t["self_s"].get(name, 0.0) for t in traced) * scale * 1000
                metrics[f"{name}.calls_per_op"] = metric(calls, "count")
                metrics[f"{name}.self_ms_per_op"] = metric(self_ms, "ms")
            module_ms = statistics.median(
                sum(t["self_s"].get(f"{module}.{fn}", 0.0) for fn in fns) for t in traced
            ) * scale * 1000
            metrics[f"{module}.self_ms_per_op"] = metric(module_ms, "ms")
        cascades = metrics["allocation.popularity_allocate.calls_per_op"]["value"]
        metrics["allocation.cascades_per_census"] = metric(
            cascades / workload.censuses_per_op, "ratio"
        )
        metrics["formats.bytes_out_per_op"] = metric(
            statistics.median_low(bytes_out) if bytes_out else 0, "bytes"
        )
        traced_s = sum(t["elapsed"] for t in traced)
        # Same work per op on both sides, so the throughput ratio is the
        # ratio of mean op times.
        metrics["trace.overhead_frac"] = metric(
            (traced_s / n) / (untraced_s / len(latencies)) - 1, "frac"
        )
        metrics["trace.uncovered_frac"] = metric(
            statistics.median((t["elapsed"] - t["covered"]) / t["elapsed"] for t in traced), "frac"
        )
        spans_path = root / OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with spans_path.open("w") as fh:
            for span in first_spans:
                fh.write(json.dumps(span) + "\n")
        extra_lines = [f"spans of the first traced op: {spans_path.relative_to(root)}"]
        record["traced_latencies_s"] = [t["elapsed"] for t in traced]
    record["metrics"] = metrics
    (root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    shutil.rmtree(work, ignore_errors=True)

    print(f"env: {json.dumps(env)}")
    print(f"host scale = {scale!r} (reference probe {REFERENCE_PROBE_S * 1000!r} ms)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for line in extra_lines:
        print(line)
    print(f"failed_frac = {failed / attempted!r} frac ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
