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
    relative_shape,
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
    NotCollapsed,
    NotExtensible,
    OracleUnsupported,
    TelegraphError,
    UnknownComponent,
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
    write_log,
)
from .flow import (
    CurrentReport,
    FlowSystem,
    RateSet,
    currents_into,
    integrate_exact_oracle,
    step,
)
from .rules import (
    FULL_RULES,
    HitEvent,
    PhantomRecord,
    RuleProfile,
    active_edges,
    apply_mode,
    blocked_edges,
    collapse,
    is_decoherent,
    mark_ready,
    phantom_records,
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
    Component,
    ComponentLabel,
    EdgeKind,
    FlowEdge,
    Mode,
    ReadyMarks,
    label_of_realized,
    make_label,
    total_mass,
)

__version__ = "0.1.0"
