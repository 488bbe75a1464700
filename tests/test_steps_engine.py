"""The ``steps`` engine against the per-substep loop it replaced.

``run_trajectory`` on the ``steps`` engine decides every step on a table
of per-substep hazards. ``_oracle_steps`` below is the loop that stepped
every step with ``flow.step`` and drew every uniform inside the trigger,
with that trigger's arithmetic written out. It realizes each hit and logs it with its
own label bookkeeping (``_shift_to`` and ``_record``), apart from the
engine's column writer, and places each weak epoch's crossings itself from
the template's ``crossing_times``: clamped into the epoch, in time order. The two must give byte-identical logs and equal
result fields, and raise the same breach, after logging the same epochs.
The engine's draw hands over a block of epochs per call; the ``draws``
fixture records what each call returned.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest

from telegraphsim import runner
from telegraphsim.config import RunConfig
from telegraphsim.errors import InvariantBreach
from telegraphsim.eventlog import (
    HIT, WEAK_EDGE_CROSSING, EventKind, EventLog, EventRecord, read_log, serialize_log,
)
from telegraphsim.flow import step
from telegraphsim.rules import HitEvent, hazards, substep_hit
from telegraphsim.runner import (
    TrajectoryResult,
    _CompiledEpochs,
    _stepped,
    derive_rng,
    run_trajectory,
)
from telegraphsim.state import AtomLevel, ChainState, ComponentLabel

_TINY = np.finfo(float).tiny
KINDS = ("v", "lambda", "cascade_weak_up", "cascade_weak_down")
LASERS = ("both", "strong_only", "weak_only")
FAST_WEAK = dict(k_weak_absorb=0.1, k_weak_emit=0.1)
FIELDS = ("epochs", "steps_taken", "max_mass_residual", "stationarity_residual", "final_time")


def _shift_to(label: ComponentLabel, root: ComponentLabel) -> ComponentLabel:
    return replace(
        label,
        clicks=label.clicks + root.clicks,
        strong=label.strong + root.strong,
        weak=label.weak + root.weak,
    )


def _record(time, kind: EventKind, epoch: int, label: ComponentLabel) -> EventRecord:
    return EventRecord(
        float(time), kind, epoch, label.atom.value, label.clicks, label.strong, label.weak
    )


def _oracle_trigger(report, ready_idx, rng) -> Optional[HitEvent]:
    for sub in report.substeps:
        m_start, m_end = sub.m_start, sub.m_end
        held = 0.0
        total = 0.0
        deltas = []
        for i in ready_idx:
            a = m_start[i]
            held += a
            d = m_end[i] - a
            if d < 0.0:
                d = 0.0
            deltas.append(d)
            total += d
        survival = 1.0 - held
        if survival <= 0.0:
            survival = max(total, _TINY)
        u = rng.random()
        if u < total / survival:
            acc = 0.0
            j = len(ready_idx) - 1
            for k, d in enumerate(deltas):
                acc += d / survival
                if u < acc:
                    j = k
                    break
            return HitEvent(
                time=0.5 * (sub.t_start + sub.t_end),
                target=report.labels[ready_idx[j]],
                epoch=report.epoch,
                delivered_mass_at_hit=float(m_end[ready_idx[j]]),
            )
    return None


def _oracle_steps(cfg, rng, epochs=None) -> TrajectoryResult:
    """One ``flow.step`` and one trigger call per step, one scalar draw per substep.

    A breach carries the records of the epochs completed before it, as
    ``records``.
    """
    epochs = _CompiledEpochs(cfg) if epochs is None else epochs
    records: list[EventRecord] = []
    res = TrajectoryResult(records=EventLog.of(()), epochs=0)
    root = ComponentLabel(AtomLevel.GROUND, 0, 0, 0)
    t = 0.0
    epoch = 0
    while t < cfg.duration:
        ep = epochs[root.atom]
        state = ChainState(
            ep.system.labels, ep.root_masses, ep.system.edges, time=t, epoch=epoch
        )
        t_epoch = t
        hit = None
        while t < cfg.duration:
            dt = min(cfg.dt_max, cfg.duration - t)
            state, report = step(state, ep.system.edges, dt, ep.system)
            res.steps_taken += 1
            t = state.time
            drift = abs(float(state.masses.sum()) - 1.0)
            if drift > runner.MASS_ABORT_TOL:
                breach = InvariantBreach(f"mass conservation broke at t={t}: residual {drift:.3e}")
                breach.records = EventLog.of(records)
                raise breach
            res.max_mass_residual = max(res.max_mass_residual, drift)
            if ep.ready_idx:
                hit = _oracle_trigger(report, ep.ready_idx, rng)
                if hit is not None:
                    break
        if hit is None:
            break
        # a clean hit: its target holds mass, and no more than all of it
        assert 0.0 < hit.delivered_mass_at_hit <= 1.0, hit
        if hit.target.weak > 0:
            tau = hit.time - t_epoch
            # each crossing clamped into the epoch, in time order
            crossed = sorted(
                [
                    (min(max(t_epoch + c, t_epoch), t_epoch + tau), ep.system.labels[i])
                    for i, c in ep.template.crossing_times(hit.target, tau)
                ],
                key=lambda crossing: crossing[0],
            )
            for t_cross, target in crossed:
                records.append(
                    _record(t_cross, EventKind.WEAK_EDGE_CROSSING, epoch, _shift_to(target, root))
                )
        # the hit realizes its target, without its ready marks, as the next root
        root = _shift_to(hit.target.without_marks(), root)
        records.append(_record(hit.time, EventKind.HIT, epoch, root))
        t = hit.time
        epoch += 1
    res.records = EventLog.of(records)
    res.epochs = epoch
    res.final_time = t
    return res


@pytest.fixture
def per_step_calls(monkeypatch):
    """Calls of ``flow.step`` and ``rules.trigger`` through the names ``runner`` keeps."""
    calls = []
    for name in ("step", "trigger"):

        def counted(*args, _name=name, _real=getattr(runner, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(runner, name, counted)
    return calls


@pytest.fixture
def draws(monkeypatch):
    """What each ``steps`` draw returned: its epochs, its final time and whether it moved the root.

    One list per trajectory, in call order.
    """
    calls = []

    def counted(cfg, uniforms, res):
        real = _stepped(cfg, uniforms, res)
        calls.append([])

        def draw(ep, t, epoch):
            sinks, tau, times, end = real(ep, t, epoch)
            moved = len(sinks) > 0 and ep.sink_atoms[sinks[-1]] != ep.graph.root.atom.value
            calls[-1].append((len(sinks), end, bool(moved)))
            return sinks, tau, times, end

        return draw

    monkeypatch.setattr(runner, "_stepped", counted)
    return calls


def _assert_same(cfg, index, epochs=None) -> TrajectoryResult:
    got = run_trajectory(cfg, index, epochs)
    want = _oracle_steps(cfg, derive_rng(cfg.master_seed, index), epochs)
    assert serialize_log(got.records) == serialize_log(want.records)
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    return got


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_laser_and_step_matches_the_loop(kind, per_step_calls):
    hits = moves = 0
    for lasers in LASERS:
        epochs = _CompiledEpochs(RunConfig(kind=kind, lasers=lasers, **FAST_WEAK))
        for dt_max in (0.01, 0.037, 0.2):
            cfg = RunConfig(
                kind=kind, lasers=lasers, engine="steps", duration=30.3, dt_max=dt_max,
                master_seed=5, **FAST_WEAK,
            )
            for i in range(2):
                res = _assert_same(cfg, i, epochs=epochs)
                hits += res.epochs
                moves += int((res.records.atom[res.records.kind == 0] != 0).any())
        renewal = replace(cfg, engine="renewal")
        run_trajectory(renewal, 0, epochs)
    assert hits > 0
    if kind == "lambda":
        assert moves > 0  # some lambda hit moves the root off the ground atom
    # neither engine steps or triggers per step; the oracle calls its own
    assert per_step_calls == []


@pytest.mark.parametrize(
    "kind, seed, duration",
    [("v", 1, 11.9663), ("v", 3, 11.2243), ("lambda", 41, 10.3339), ("lambda", 110, 10.2968)],
)
def test_a_hit_inside_the_final_short_step(kind, seed, duration, per_step_calls):
    """The last hit lands in a step shorter than ``dt_max`` (a full step has 4 substeps)."""
    cfg = RunConfig(
        kind=kind, engine="steps", duration=duration, dt_max=0.2, master_seed=seed, **FAST_WEAK
    )
    res = _assert_same(cfg, 0)
    hit = res.records[res.records.kind == HIT]
    # the last epoch's full steps end at t, summed one dt_max at a time
    t = float(hit.time[-2]) if len(hit) > 1 else 0.0
    while duration - t >= cfg.dt_max:
        t += cfg.dt_max
    assert t < hit.time[-1] < duration
    if kind == "lambda":
        # the hit moves the root to another atom, after a weak crossing
        root_atom = hit.atom[-2] if len(hit) > 1 else AtomLevel.GROUND.value
        assert hit.atom[-1] != root_atom
        assert res.records.kind[-2] == WEAK_EDGE_CROSSING
    assert per_step_calls == []


@pytest.mark.parametrize("steps", [1, 700, 1024, 2500, 3 * 1024 + 17, 300.5])
def test_duration_cuts_mid_epoch_and_mid_block(steps):
    """A run of ``steps`` steps ends in its first epoch, inside a table chunk or at its edge.

    A full step of ``dt_max`` 0.2 has 4 substeps, so a table chunk holds 256
    steps. Strong emission is slow, so the first epoch outlasts the run. The
    duration is ``int(steps)`` steps of ``dt_max`` summed as successive steps
    sum them, plus the fraction of a step that ``steps`` has: with one, the
    steps shorter than ``dt_max`` start from masses re-stepped inside chunk 1.
    """
    duration = float(np.cumsum(np.full(int(steps), 0.2))[-1]) + steps % 1 * 0.2
    cfg = RunConfig(
        kind="v", engine="steps", duration=duration, dt_max=0.2, master_seed=3,
        k_strong_emit=1e-5,
    )
    epochs = _CompiledEpochs(cfg)
    res = _assert_same(cfg, 0, epochs=epochs)
    assert epochs[AtomLevel.GROUND].hazards(cfg.dt_max).steps == 256
    assert res.steps_taken == int(np.ceil(steps))
    assert res.epochs == 0 and res.final_time == duration  # mid-epoch


def test_a_table_chunk_holds_about_1024_substeps():
    """A table chunk's rows do not grow with ``dt_max``.

    At ``dt_max`` 40 a step has 800 substeps, so each chunk holds one step:
    1024 steps would hold 819,201 ready rows, about 40,960 time units of
    epochs a few units long.
    """
    cfg = RunConfig(kind="v", engine="steps", duration=200.0, dt_max=40.0, master_seed=3)
    epochs = _CompiledEpochs(cfg)
    res = _assert_same(cfg, 0, epochs=epochs)
    assert res.epochs > 0
    tables = [t for ep in epochs.values() for t in ep._hazards.values()]
    assert tables
    for table in tables:
        n_sub = table._system.substeps(cfg.dt_max)
        assert n_sub == 800
        for chunk in table._chunks:
            assert len(chunk.ready) <= max(1024, n_sub) + 1


@pytest.mark.parametrize("duration", [0.005, 1e-9, 0.01, 0.0199])
def test_durations_at_and_below_one_step(duration):
    cfg = RunConfig(kind="v", engine="steps", duration=duration, master_seed=3)
    epochs = _CompiledEpochs(cfg)
    res = _assert_same(cfg, 0, epochs=epochs)
    assert res.final_time == pytest.approx(duration)
    if duration < cfg.dt_max:
        # no full step: the engine tabulates nothing
        assert epochs[AtomLevel.GROUND]._hazards == {}


def test_default_rates_match_the_loop():
    cfg = RunConfig(kind="v", engine="steps", duration=125.0, master_seed=4242)
    epochs = _CompiledEpochs(cfg)
    for i in range(2):
        _assert_same(cfg, i, epochs=epochs)


@pytest.mark.parametrize("tol", [0.0, 2e-15])
def test_breach_matches_the_loop(tol, monkeypatch, tmp_path):
    monkeypatch.setattr(runner, "MASS_ABORT_TOL", tol)
    cfg = RunConfig(kind="v", engine="steps", duration=200.0, master_seed=4242)
    with pytest.raises(InvariantBreach) as got:
        run_trajectory(cfg, 0)
    with pytest.raises(InvariantBreach) as want:
        _oracle_steps(cfg, derive_rng(cfg.master_seed, 0))
    assert str(got.value) == str(want.value)
    out = tmp_path / "out"
    assert runner.run(replace(cfg, out=str(out))) == 2
    diagnostic = json.loads((out / "diagnostic.json").read_text(encoding="utf-8"))
    assert diagnostic["error"] == str(want.value)


def test_tabulated_hazards_decide_as_the_scalar_trigger():
    """``rules.hazards`` against ``rules.substep_hit`` at and around each hazard."""
    rng = np.random.default_rng(0)
    ready = rng.random((300, 3)) * 0.45  # falling masses give negative deltas
    ready[100:120] = ready[99]  # no delivery: a zero hazard
    ready[200:] += 0.4  # held mass above 1: survival <= 0
    h = hazards(ready)
    assert (h == 0).any() and (1.0 - ready[:-1].sum(axis=1) <= 0).any()
    for k, hazard in enumerate(h):
        for u in (0.0, hazard, np.nextafter(hazard, 0.0), 0.5, 0.999):
            hit = substep_hit(ready[k], ready[k + 1], range(3), float(u))
            assert (hit is not None) == (u < hazard)


def test_a_breach_after_completed_epochs_keeps_them(monkeypatch, tmp_path):
    """The draw that meets the breach hands over the two epochs it completed before it."""
    monkeypatch.setattr(runner, "MASS_ABORT_TOL", 1.2e-14)
    cfg = RunConfig(kind="v", engine="steps", duration=200.0, master_seed=4242)
    with pytest.raises(InvariantBreach) as want:
        _oracle_steps(cfg, derive_rng(cfg.master_seed, 0))
    error = "mass conservation broke at t=4.849999999999941: residual 1.210e-14"
    assert str(want.value) == error
    out = tmp_path / "out"
    assert runner.run(replace(cfg, out=str(out))) == 2
    diagnostic = json.loads((out / "diagnostic.json").read_text(encoding="utf-8"))
    assert diagnostic["error"] == error
    assert diagnostic["epochs_logged"] == 2
    log = read_log(out / diagnostic["partial_log"])
    assert log.time.tolist() == [2.0450000000000004, 2.5599999999999894]
    assert serialize_log(log) == serialize_log(want.value.records)


@pytest.mark.parametrize("kind", KINDS)
def test_blocks_cut_at_the_cap_match_the_loop(kind, monkeypatch, draws):
    """With at most 3 epochs a draw, blocks end by the cap, an atom move and the duration.

    Some lambda hit moves the root off the ground atom.
    """
    monkeypatch.setattr(runner, "UNIFORM_BLOCK", 3)
    epochs = _CompiledEpochs(RunConfig(kind=kind, **FAST_WEAK))
    for dt_max in (0.01, 0.2):
        cfg = RunConfig(
            kind=kind, engine="steps", duration=30.3, dt_max=dt_max, master_seed=5, **FAST_WEAK
        )
        for i in range(2):
            _assert_same(cfg, i, epochs=epochs)
    blocks = [block for trajectory in draws for block in trajectory]
    assert all(n <= 3 for n, _, _ in blocks)
    ends = {
        "cap" if n == 3 and end is None and not moved else
        "move" if moved else
        "duration" if end is not None else "other"
        for n, end, moved in blocks
    }
    assert {"cap", "duration"} <= ends <= {"cap", "duration", "move"}
    if kind == "lambda":
        assert "move" in ends


def test_draws_are_blocks(draws):
    """A draw returns every epoch up to the first atom move, the end of the run or the cap.

    Every V hit returns the root to the ground atom, so a trajectory of
    about 60 epochs takes one or two draws, not one per epoch.
    """
    cfg = RunConfig(kind="v", engine="steps", duration=125.0, master_seed=4242)
    epochs = _CompiledEpochs(cfg)
    for i in range(2):
        res = run_trajectory(cfg, i, epochs)
        hits = res.records.atom[res.records.kind == HIT]
        moves = int((hits != np.concatenate(([AtomLevel.GROUND.value], hits[:-1]))).sum())
        assert res.epochs > 40
        assert len(draws[i]) <= moves + res.epochs // runner.UNIFORM_BLOCK + 2
        assert sum(n for n, _, _ in draws[i]) == res.epochs
