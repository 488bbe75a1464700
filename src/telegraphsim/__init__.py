"""Stochastic collapse-flow simulator of a driven 3-level atom.

Probability mass flows through a chain of decoherent components; ready
states stall competing decays by blocking flow, and current-driven
stochastic hits collapse the chain. The result is fluorescent telegraph
pulsing whose dark periods end (V, cascade with the weak level up) or
begin (Lambda, cascade with the weak level down) with the emission of
the weak photon.
"""

from .analysis import (
    IntervalStats,
    LogFold,
    TelegraphSegmentation,
    TimingReport,
    WeakTiming,
    classify_weak_timing,
    interval_stats,
    segment_telegraph,
)
from .config import RunConfig, parse_config
from .configurations import (
    ConfigKind,
    Configuration,
    EpochGraph,
    LaserDrive,
    build_epoch,
    extend_frontier,
)
from .epochs import CompiledEpoch, EpochTemplate
from .errors import (
    ConfigError,
    DuplicateLabel,
    EmptyLog,
    InvalidDepth,
    InvalidLabel,
    InvalidStep,
    InvariantBreach,
    NoWeakBranch,
    NotExtensible,
    TelegraphError,
)
from .eventlog import (
    EventKind,
    EventLog,
    EventRecord,
    append_records,
    hits,
    iter_log,
    open_log,
    parse_log,
    read_log,
    serialize_log,
    validate_log,
)
from .flow import (
    CurrentReport,
    FlowSystem,
    RateSet,
    step,
)
from .rules import (
    HitEvent,
    active_edges,
    is_decoherent,
    trigger,
)
from .runner import (
    TrajectoryResult,
    analyze_log,
    derive_rng,
    run,
    run_trajectory,
)
from .state import (
    AtomLevel,
    ChainState,
    ComponentLabel,
    EdgeKind,
    FlowEdge,
    Mode,
    make_label,
)

__version__ = "0.1.0"
