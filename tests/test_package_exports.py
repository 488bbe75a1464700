"""The package's public names, which ``telegraphsim/__init__.py`` resolves on first use."""

from __future__ import annotations

import importlib

import pytest

import telegraphsim

#: every name the package exports
PUBLIC = (
    "AtomLevel", "ChainState", "CompiledEpoch", "ComponentLabel", "ConfigError", "ConfigKind",
    "Configuration", "CurrentReport", "DuplicateLabel", "EdgeKind", "EmptyLog", "EpochGraph",
    "EpochTemplate", "EventKind", "EventLog", "EventRecord", "FlowEdge", "FlowSystem",
    "HitEvent", "IntervalStats", "InvalidDepth", "InvalidLabel", "InvalidStep",
    "InvariantBreach", "LaserDrive", "LogFold", "Mode", "NoWeakBranch", "NotExtensible",
    "RateSet", "RunConfig", "TelegraphError", "TelegraphSegmentation", "TimingReport",
    "TrajectoryResult", "WeakTiming", "active_edges", "analyze_log", "append_records",
    "build_epoch", "classify_weak_timing", "derive_rng", "extend_frontier", "hits",
    "interval_stats", "is_decoherent", "iter_log", "open_log", "parse_config",
    "parse_log", "read_log", "run", "run_trajectory", "segment_telegraph", "serialize_log",
    "step", "trigger", "validate_log",
)


def test_all_lists_the_public_names():
    assert sorted(telegraphsim.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_its_defining_modules_object(name):
    value = getattr(telegraphsim, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("telegraphsim.")
    assert getattr(home, name) is value


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from telegraphsim import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(telegraphsim, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'telegraphsim' has no attribute 'no_such_name'"):
        getattr(telegraphsim, "no_such_name")
    assert not hasattr(telegraphsim, "no_such_name")

