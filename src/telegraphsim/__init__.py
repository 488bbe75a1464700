"""Stochastic collapse-flow simulator of a driven 3-level atom.

Probability mass flows through a chain of decoherent components; ready
states stall competing decays by blocking flow, and current-driven
stochastic hits collapse the chain. The result is fluorescent telegraph
pulsing whose dark periods end (V, cascade with the weak level up) or
begin (Lambda, cascade with the weak level down) with the emission of
the weak photon.

The public names resolve on first use (PEP 562), so importing the
package, as ``python -m telegraphsim`` does, loads none of its modules:
``analyze`` then loads only what the analysis runs.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it holds
_EXPORTS = {
    "analysis": (
        "IntervalStats",
        "LogFold",
        "TelegraphSegmentation",
        "TimingReport",
        "WeakTiming",
        "classify_weak_timing",
        "interval_stats",
        "segment_telegraph",
    ),
    "cli": ("analyze_log",),
    "config": (
        "ConfigKind",
        "Configuration",
        "LaserDrive",
        "Mode",
        "RateSet",
        "RunConfig",
        "parse_config",
    ),
    "configurations": ("EpochGraph", "build_epoch", "extend_frontier"),
    "epochs": ("CompiledEpoch", "EpochTemplate"),
    "errors": (
        "ConfigError",
        "DuplicateLabel",
        "EmptyLog",
        "InvalidDepth",
        "InvalidLabel",
        "InvalidStep",
        "InvariantBreach",
        "NoWeakBranch",
        "NotExtensible",
        "TelegraphError",
    ),
    "eventlog": (
        "EventKind",
        "EventLog",
        "EventRecord",
        "append_records",
        "hits",
        "iter_log",
        "open_log",
        "parse_log",
        "read_log",
        "serialize_log",
        "validate_log",
    ),
    "flow": ("CurrentReport", "FlowSystem", "step"),
    "rules": ("HitEvent", "active_edges", "is_decoherent", "trigger"),
    "runner": ("TrajectoryResult", "derive_rng", "run", "run_trajectory"),
    "state": (
        "AtomLevel",
        "ChainState",
        "ComponentLabel",
        "EdgeKind",
        "FlowEdge",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the module that defines ``name`` and bind the name here."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
