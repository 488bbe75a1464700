"""Compiled epochs shared by the trajectories of one run.

``run`` compiles each (root atom, depth) epoch once and hands the same
``_CompiledEpochs`` to every trajectory. Everything cached in it is a pure
function of the config, so a trajectory run on shared epochs must give the
same log bytes and the same result fields as one that compiles its own.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from telegraphsim import runner
from telegraphsim.config import RunConfig
from telegraphsim.epochs import EpochTemplate
from telegraphsim.eventlog import crossings, serialize_log
from telegraphsim.state import AtomLevel

FAST_WEAK = dict(k_weak_absorb=0.1, k_weak_emit=0.1, threshold_gap=15.0, master_seed=17)
KINDS = ("v", "lambda", "cascade_weak_up", "cascade_weak_down")


def _scalars(result: runner.TrajectoryResult) -> dict:
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "records"
    }


def _shared_equals_fresh(cfg: RunConfig) -> tuple[runner._CompiledEpochs, list]:
    """Trajectories 0..2 on one shared set of epochs against each on its own."""
    shared = runner._CompiledEpochs(cfg)
    results = []
    for i in range(3):
        fresh = runner.run_trajectory(cfg, i)
        reused = runner.run_trajectory(cfg, i, epochs=shared)
        assert serialize_log(reused.records) == serialize_log(fresh.records), f"trajectory {i}"
        assert _scalars(reused) == _scalars(fresh), f"trajectory {i}"
        results.append(reused)
    return shared, results


@pytest.mark.parametrize("kind", KINDS)
def test_renewal_on_shared_epochs(kind):
    cfg = RunConfig(kind=kind, engine="renewal", duration=2000.0, **FAST_WEAK)
    _, results = _shared_equals_fresh(cfg)
    # the later trajectories reuse templates whose crossing stages are cached
    assert all(len(crossings(r.records)) > 0 for r in results)


def test_steps_reuse_deeper_epochs():
    cfg = RunConfig(kind="v", engine="steps", duration=30.0, **FAST_WEAK)
    shared, results = _shared_equals_fresh(cfg)
    # a trajectory after the first that extends walks the deeper epochs the first grew
    assert sum(r.extensions > 0 for r in results) >= 2
    assert shared[AtomLevel.GROUND].deeper is not None


def test_flow_driver_on_shared_epochs():
    cfg = RunConfig(kind="v", mode="original_no_observer", duration=100.0, **FAST_WEAK)
    _, results = _shared_equals_fresh(cfg)
    assert all(r.stationarity_residual is not None for r in results)


@pytest.mark.parametrize("kind", KINDS)
def test_run_compiles_each_root_atom_once(kind, monkeypatch, tmp_path):
    graphs: Counter = Counter()
    templates: Counter = Counter()
    real_build = runner.build_epoch
    real_init = EpochTemplate.__init__

    def build(kind_, root, *args):
        graphs[root.atom] += 1
        return real_build(kind_, root, *args)

    def init(self, system, *args):
        templates[system.labels[0].atom] += 1
        real_init(self, system, *args)

    monkeypatch.setattr(runner, "build_epoch", build)
    monkeypatch.setattr(EpochTemplate, "__init__", init)
    cfg = RunConfig(
        kind=kind, engine="renewal", duration=2000.0, trajectories=4,
        out=str(tmp_path / "out"), **FAST_WEAK,
    )
    assert runner.run(cfg) == 0
    assert graphs and set(graphs.values()) == {1}
    assert templates == graphs


@pytest.mark.parametrize(
    "other, mode",
    [
        (dict(kind="lambda"), None),
        (dict(lasers="strong_only"), None),
        (dict(k_weak_emit=0.2), None),
        (dict(depth=3), None),
        ({}, "original_no_observer"),
    ],
)
def test_mismatched_epochs_rejected(other, mode):
    cfg = RunConfig(kind="v", engine="renewal", duration=10.0, **FAST_WEAK)
    built_for = dataclasses.replace(cfg, mode=mode or cfg.mode, **other)
    epochs = runner._CompiledEpochs(built_for)
    with pytest.raises(ValueError):
        runner.run_trajectory(cfg, 0, epochs)
