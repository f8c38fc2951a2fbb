"""Popularity-weighted bandwidth allocation for multicast video sessions.

The core idea: when capacity cannot give every broadcast/multicast video
session its full-quality rate, split the spare capacity above a guaranteed
floor in proportion to each session's audience instead of equally, capping
at the full-quality rate and cascading trimmed excess down the popularity
ranking. The package computes both that scheme and the equal-share
baseline, scores user satisfaction, quantizes rates into whole video
layers, replays audience churn, and runs seeded experiment sweeps.
"""

from .allocation import (
    MBPS,
    Allocation,
    RankedCensus,
    Regime,
    Scheme,
    SessionCensus,
    SessionCount,
    SessionRate,
    SurplusLedger,
    SystemParams,
    classify_regime,
    equal_share_allocate,
    equal_share_rate,
    popularity_allocate,
    rank_sessions,
    surplus_coefficients,
)
from .errors import (
    DocumentError,
    DuplicateSession,
    EmptySession,
    InfeasibleCapacity,
    InternalInvariantError,
    PopallocError,
    ProfileInfeasible,
    TraceOrder,
    UnknownSession,
    ZeroAudience,
)
from .harness import (
    ScenarioConfig,
    SweepRow,
    emit_sweep_outputs,
    random_census,
    run_sweep,
)
from .layers import (
    LayeredPlan,
    LayerPlans,
    LayerProfile,
    check_profile_fits,
    plan_total_rate,
    quantize_allocation,
)
from .satisfaction import (
    Evaluation,
    SatisfactionReport,
    SchemeComparison,
    average_satisfaction,
    compare_schemes,
    equal_share_satisfaction,
    evaluate,
    satisfaction_report,
    session_satisfaction,
)
from .simulation import (
    EventKind,
    RejectedEvent,
    SimEvent,
    SimState,
    Snapshot,
    TraceGenConfig,
    TraceResult,
    apply_event,
    generate_trace,
    run_trace,
    stream_trace,
)

__version__ = "0.1.0"

__all__ = [
    "MBPS",
    "Allocation",
    "DocumentError",
    "DuplicateSession",
    "EmptySession",
    "Evaluation",
    "EventKind",
    "InfeasibleCapacity",
    "InternalInvariantError",
    "LayerProfile",
    "LayeredPlan",
    "LayerPlans",
    "PopallocError",
    "ProfileInfeasible",
    "RankedCensus",
    "Regime",
    "RejectedEvent",
    "SatisfactionReport",
    "ScenarioConfig",
    "Scheme",
    "SchemeComparison",
    "SessionCensus",
    "SessionCount",
    "SessionRate",
    "SimEvent",
    "SimState",
    "Snapshot",
    "SurplusLedger",
    "SweepRow",
    "SystemParams",
    "TraceGenConfig",
    "TraceOrder",
    "TraceResult",
    "UnknownSession",
    "ZeroAudience",
    "apply_event",
    "average_satisfaction",
    "check_profile_fits",
    "classify_regime",
    "compare_schemes",
    "emit_sweep_outputs",
    "equal_share_allocate",
    "equal_share_rate",
    "equal_share_satisfaction",
    "evaluate",
    "generate_trace",
    "plan_total_rate",
    "popularity_allocate",
    "quantize_allocation",
    "random_census",
    "rank_sessions",
    "run_sweep",
    "run_trace",
    "stream_trace",
    "satisfaction_report",
    "session_satisfaction",
    "surplus_coefficients",
]
