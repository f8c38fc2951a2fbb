"""Experiment harness: random censuses, multi-M sweeps, CSV and manifest output.

Randomness is numpy's PCG64. Every replication seeds its own generator from
``SeedSequence(seed, spawn_key=(M, replication))``, so rows are reproducible
independently of execution order and the whole sweep is reproducible from
the one seed recorded in the manifest.
"""

from __future__ import annotations

import functools
import logging
import statistics
from collections.abc import Iterator
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .allocation import (
    MBPS,
    Regime,
    SessionCensus,
    SystemParams,
    classify_regime,
    equal_share_rate,
    popularity_allocate,
)
from .formats import dump_json, write_text_atomic
from .satisfaction import _compare

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

GENERATOR_NAME = "numpy-pcg64"
SUBSEED_SCHEME = "SeedSequence(seed, spawn_key=(M, replication))"

CSV_COLUMNS = (
    "M",
    "dist",
    "replications",
    "seed",
    "avg_sat_equal_mean",
    "avg_sat_equal_std",
    "avg_sat_prop_mean",
    "avg_sat_prop_std",
    "improved_mean",
    "degraded_mean",
    "unchanged_mean",
)

DISTRIBUTIONS = ("uniform", "zipf")
# numpy's multinomial draws a census from a C int64 count.
MAX_DRAWN_USERS = 2**63 - 1


def _check_total_users(total_users: int) -> None:
    if not 0 <= total_users <= MAX_DRAWN_USERS:
        raise ValueError(
            f"total_users must be between 0 and {MAX_DRAWN_USERS}, got {total_users}"
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a sweep needs: system parameters, the session counts to
    visit, audience size, popularity distribution, replication count and
    seed."""

    params: SystemParams
    session_counts: tuple[int, ...]
    total_users: int
    dist: str = "uniform"
    zipf_s: float = 1.0
    replications: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.session_counts:
            raise ValueError("session_counts must not be empty")
        if any(m < 1 for m in self.session_counts):
            raise ValueError("every session count must be >= 1")
        _check_total_users(self.total_users)
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(f"dist must be one of {DISTRIBUTIONS}, got {self.dist!r}")
        if self.dist == "zipf" and not self.zipf_s > 0:
            raise ValueError(f"zipf exponent must be positive, got {self.zipf_s}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")


@dataclass(frozen=True)
class SweepRow:
    """Aggregated comparison results for one session count."""

    session_count: int
    dist: str
    replications: int
    seed: int
    avg_sat_equal_mean: float
    avg_sat_equal_std: float
    avg_sat_prop_mean: float
    avg_sat_prop_std: float
    improved_mean: float
    degraded_mean: float
    unchanged_mean: float


# Callers that draw many censuses draw them at one session count in a row.
@functools.lru_cache(maxsize=1)
def session_ids(session_count: int) -> tuple[str, ...]:
    """Zero-padded ids ("s01".."sM") so lexical order matches index order."""
    width = len(str(session_count))
    return tuple(f"s{i:0{width}d}" for i in range(1, session_count + 1))


def _probabilities(session_count: int, dist: str, zipf_s: float):
    """Each session's chance of drawing a user, as the multinomial takes it."""
    import numpy as np

    if dist == "uniform":
        return np.full(session_count, 1.0 / session_count)
    if dist == "zipf":
        if not zipf_s > 0:
            raise ValueError(f"zipf exponent must be positive, got {zipf_s}")
        weights = np.arange(1, session_count + 1, dtype=float) ** -zipf_s
        return weights / weights.sum()
    raise ValueError(f"dist must be one of {DISTRIBUTIONS}, got {dist!r}")


def random_census(
    session_count: int,
    total_users: int,
    dist: str = "uniform",
    seed: int | np.random.SeedSequence = 0,
    zipf_s: float = 1.0,
) -> SessionCensus:
    """Draw a census of ``total_users`` spread over ``session_count`` sessions.

    ``uniform`` sends each user to an independently, uniformly chosen
    session. ``zipf`` weights the session at index m (1-based) by m**-s
    before the same multinomial assignment. Counts always sum exactly to
    ``total_users``. The seed may be a spawned ``SeedSequence``: with
    ``SeedSequence(seed, spawn_key=(M, replication))`` this is the census
    that replication of a sweep draws.
    """
    import numpy as np

    if session_count < 1:
        raise ValueError(f"session_count must be >= 1, got {session_count}")
    _check_total_users(total_users)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    probs = _probabilities(session_count, dist, zipf_s)
    counts = np.random.Generator(np.random.PCG64(seed)).multinomial(total_users, probs)
    return SessionCensus.from_counts(zip(session_ids(session_count), counts.tolist()))


def _replication_counts(config: ScenarioConfig, session_count: int) -> Iterator[list[int]]:
    """Each replication's audience counts at ``session_count``, in session
    index order, drawn exactly as :func:`random_census` draws them."""
    import numpy as np

    probs = _probabilities(session_count, config.dist, config.zipf_s)
    for replication in range(config.replications):
        seed = np.random.SeedSequence(config.seed, spawn_key=(session_count, replication))
        rng = np.random.Generator(np.random.PCG64(seed))
        yield rng.multinomial(config.total_users, probs).tolist()


def infeasible_session_counts(config: ScenarioConfig) -> list[int]:
    return [
        m
        for m in config.session_counts
        if classify_regime(config.params, m) is Regime.INFEASIBLE
    ]


def run_sweep(config: ScenarioConfig) -> list[SweepRow]:
    """Sweep session counts, replicating each with fresh random censuses.

    Session counts the floor cannot support are skipped with a warning (they
    also land in the manifest); rows come back ordered as configured.
    """
    infeasible = infeasible_session_counts(config)
    rows: list[SweepRow] = []
    for m in config.session_counts:
        if m in infeasible:
            logger.warning(
                "skipping M=%d: floor %g Mbps x %d exceeds capacity %g Mbps",
                m,
                config.params.min_session_rate / MBPS,
                m,
                config.params.capacity / MBPS,
            )
            continue
        # Only the counts in rank order matter to the cascade and the
        # scores, and equal counts are interchangeable, so each replication
        # is scored on its sorted draw without building a census.
        eq_rate = equal_share_rate(config.params, m)
        comparisons = []
        for counts in _replication_counts(config, m):
            counts.sort(reverse=True)
            rates, _ = popularity_allocate(config.params, counts)
            comparisons.append(_compare(config.params, eq_rate, counts, rates))
        equal = [c.avg_satisfaction_equal for c in comparisons]
        popularity = [c.avg_satisfaction_popularity for c in comparisons]
        # statistics.mean/pstdev aggregate exactly (rational arithmetic), so
        # a constant series averages to precisely its value.
        rows.append(
            SweepRow(
                session_count=m,
                dist=config.dist,
                replications=config.replications,
                seed=config.seed,
                avg_sat_equal_mean=float(statistics.mean(equal)),
                avg_sat_equal_std=float(statistics.pstdev(equal)),
                avg_sat_prop_mean=float(statistics.mean(popularity)),
                avg_sat_prop_std=float(statistics.pstdev(popularity)),
                improved_mean=float(statistics.mean([c.improved_users for c in comparisons])),
                degraded_mean=float(statistics.mean([c.degraded_users for c in comparisons])),
                unchanged_mean=float(statistics.mean([c.unchanged_users for c in comparisons])),
            )
        )
    return rows


def sweep_csv_text(rows: list[SweepRow]) -> str:
    """Render sweep rows as CSV, one ``str`` per field in ``CSV_COLUMNS``
    order; ``str`` of a float is its shortest round-trip form."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(map(str, astuple(row))) for row in rows)
    return "\n".join(lines) + "\n"


def run_manifest(config: ScenarioConfig, rows: list[SweepRow]) -> dict:
    """Everything needed to reproduce a sweep byte for byte."""
    manifest = {
        "generator": GENERATOR_NAME,
        "subseed_scheme": SUBSEED_SCHEME,
        "seed": config.seed,
        "capacity_mbps": config.params.capacity / MBPS,
        "beta_max_mbps": config.params.max_session_rate / MBPS,
        "beta_min_mbps": config.params.min_session_rate / MBPS,
        "session_counts": list(config.session_counts),
        "total_users": config.total_users,
        "dist": config.dist,
        "replications": config.replications,
        "skipped_infeasible_m": infeasible_session_counts(config),
        "rows_emitted": len(rows),
    }
    if config.dist == "zipf":
        manifest["zipf_s"] = config.zipf_s
    return manifest


def emit_sweep_outputs(
    rows: list[SweepRow], destination: Path | str, config: ScenarioConfig
) -> tuple[Path, Path]:
    """Write the sweep CSV and its run manifest next to it.

    For ``out/sweep.csv`` the manifest lands at ``out/sweep.manifest.json``.
    Returns both paths. Each file is replaced in one step, so a crash never
    leaves a partial one. I/O errors surface with the path attached.
    """
    csv_path = Path(destination)
    manifest_path = csv_path.with_suffix(".manifest.json")
    write_text_atomic(csv_path, sweep_csv_text(rows))
    write_text_atomic(manifest_path, dump_json(run_manifest(config, rows)))
    return csv_path, manifest_path
