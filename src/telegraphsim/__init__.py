"""Stochastic collapse-flow simulator of a driven 3-level atom.

Probability mass flows through a chain of decoherent components; ready
states stall competing decays by blocking flow, and current-driven
stochastic hits collapse the chain. The result is fluorescent telegraph
pulsing whose dark periods end (V, cascade with the weak level up) or
begin (Lambda, cascade with the weak level down) with the emission of
the weak photon.
"""

from .analysis import (
    DarkTimingEntry,
    Interval,
    IntervalStats,
    Phase,
    TelegraphSegmentation,
    TimingReport,
    WeakTiming,
    classify_weak_timing,
    interval_stats,
    segment_telegraph,
)
from .config import RunConfig, parse_config, with_overrides
from .configurations import (
    ConfigKind,
    Configuration,
    EpochGraph,
    LaserDrive,
    WeakEdgePosition,
    build_epoch,
    chain_from_graph,
    extend_frontier,
    weak_edge_position,
)
from .epochs import CompiledEpoch, EpochTemplate
from .errors import (
    ConfigError,
    DuplicateLabel,
    EmptyLog,
    IllegalHit,
    InvalidDepth,
    InvalidLabel,
    InvalidStep,
    InvariantBreach,
    NoWeakBranch,
    NotExtensible,
    OracleUnsupported,
    TelegraphError,
)
from .eventlog import (
    EventKind,
    EventLog,
    EventRecord,
    crossings,
    hits,
    parse_log,
    read_log,
    serialize_log,
    validate_log,
)
from .flow import (
    CurrentReport,
    FlowSystem,
    RateSet,
    integrate_exact_oracle,
    step,
)
from .rules import (
    HitEvent,
    active_edges,
    blocked_edges,
    collapse,
    is_decoherent,
    mark_ready,
    ready_indices,
    trigger,
)
from .runner import (
    TrajectoryResult,
    analyze_log,
    derive_rng,
    run,
    run_trajectory,
    run_trajectory_flow,
    run_trajectory_renewal,
    run_trajectory_steps,
)
from .state import (
    BOTH_MARKS,
    NO_MARKS,
    AtomLevel,
    ChainState,
    ComponentLabel,
    EdgeKind,
    FlowEdge,
    Mode,
    ReadyMarks,
    make_label,
)

__version__ = "0.1.0"
