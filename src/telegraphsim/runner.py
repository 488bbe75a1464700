"""Trajectory drivers, report generation, and the top-level run.

Two drivers implement the same stochastic law:

* ``steps``   -- honest per-step integration: exact propagator steps,
                 per-substep trigger sampling, lazy frontier extension.
                 Cost grows with duration / dt.
* ``renewal`` -- event-driven: each epoch's hit (target, time) is drawn
                 in one shot from the epoch template's delivery curves.
                 This is exact for the same law (the per-substep hazards
                 telescope to the delivered-mass distribution) and makes
                 long desk-scale runs cheap. The uniforms are drawn and
                 inverted in blocks, and the log is built as columns.

The no-observer mode has no stochastic events at all. On every engine
it runs a third driver, ``flow``, which moves the flow forward in large
exact jumps on the graph truncated at ``depth`` and reports the
stationarity residual.

Whether the rules mark ready components is fixed once per run, when its
``_CompiledEpochs`` is built: the no-observer mode builds unmarked
graphs, which block nothing and offer no hit targets.

Seed splitting: trajectory i of a run with master seed s uses
``numpy.random.Generator(PCG64(SeedSequence((s, i))))``. This rule is
part of the output contract and must stay stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import (
    WeakTiming,
    classify_weak_timing,
    interval_stats,
    segment_telegraph,
)
from .config import RunConfig, format_config
from .configurations import EpochGraph, build_epoch, chain_from_graph, extend_frontier
from .epochs import CompiledEpoch, EpochTemplate
from .errors import EmptyLog, InvariantBreach
from .eventlog import (
    EPOCH_START,
    HIT,
    WEAK_EDGE_CROSSING,
    EventKind,
    EventLog,
    EventRecord,
    hits,
    serialize_log,
)
from .flow import step
from .rules import active_edges, collapse, trigger
from .state import AtomLevel, ComponentLabel, Mode, make_label

MASS_ABORT_TOL = 1e-6
EXTENSION_MASS_EPS = 1e-10
EXTENSION_CHECK_EVERY = 64
#: Uniforms the renewal engine draws at a time; it uses one per epoch.
RENEWAL_BLOCK = 4096


def derive_rng(master_seed: int, index: int) -> np.random.Generator:
    """Per-trajectory generator derived from (master seed, trajectory index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, index))))


@dataclass
class TrajectoryResult:
    records: EventLog
    epochs: int
    steps_taken: int = 0
    collapses: int = 0
    max_mass_residual: float = 0.0
    collapse_check_failures: int = 0
    extensions: int = 0
    stationarity_residual: Optional[float] = None
    final_time: float = 0.0


def _compile(graph: EpochGraph) -> CompiledEpoch:
    return CompiledEpoch(graph, active_edges(chain_from_graph(graph)))


def _epochs_key(cfg: RunConfig) -> tuple:
    marks = cfg.mode_enum() is not Mode.ORIGINAL_NO_OBSERVER
    return (cfg.config_kind(), cfg.rate_set(), cfg.depth, marks)


class _CompiledEpochs(dict):
    """One run's compiled epochs at the configured depth, keyed by root atom.

    Each is built on first use; deeper ones hang off ``CompiledEpoch.deeper``.
    ``run`` builds one and every trajectory of the run shares it. Sharing
    is exact because everything cached is a pure function of the key: the
    kind, lasers, rates and depth, and whether the graphs carry ready marks
    (all modes but no-observer). That covers the graph, the ``FlowSystem``
    and its per-``dt`` propagators, the template and its ``_stage_cache``,
    and ``ep.deeper`` (``extend_frontier`` ignores which frontier label
    triggered it).
    """

    def __init__(self, cfg: RunConfig):
        super().__init__()
        self.key = _epochs_key(cfg)

    def __missing__(self, atom: AtomLevel) -> CompiledEpoch:
        kind, rates, depth, marks = self.key
        compiled = self[atom] = _compile(
            build_epoch(kind, make_label(atom, 0, 0, 0), rates, depth, marks)
        )
        return compiled


def _own_epochs(cfg: RunConfig, epochs: Optional[_CompiledEpochs]) -> _CompiledEpochs:
    """``epochs`` if given (it must match the config), else fresh ones."""
    if epochs is None:
        return _CompiledEpochs(cfg)
    if epochs.key != _epochs_key(cfg):
        raise ValueError("compiled epochs were built for another config")
    return epochs


def _extended(ep: CompiledEpoch, frontier_label: ComponentLabel):
    """The epoch one cycle deeper than ``ep`` and where ``ep``'s labels sit in it."""
    if ep.deeper is None:
        grown = _compile(extend_frontier(ep.graph, frontier_label))
        ep.deeper = (grown, ep.index_in(grown))
    return ep.deeper


def _template(ep: CompiledEpoch) -> EpochTemplate:
    tpl = ep.template
    if tpl.conservation_residual > MASS_ABORT_TOL:
        raise InvariantBreach(
            f"epoch template violates conservation by {tpl.conservation_residual:.3e}"
        )
    return tpl


def _shift_to(label: ComponentLabel, root: ComponentLabel) -> ComponentLabel:
    return label.shifted(clicks=root.clicks, strong=root.strong, weak=root.weak)


def _crossings(
    tpl: EpochTemplate, sink: ComponentLabel, tau: float, t_epoch: float
) -> list[tuple[float, ComponentLabel]]:
    """Time and canonical target of each weak-edge crossing of a hit on ``sink``, by time."""
    out = [
        (min(max(t_epoch + c, t_epoch), t_epoch + tau), edge.target)
        for edge, c in tpl.crossing_times(sink, tau)
    ]
    out.sort(key=lambda tc: tc[0])
    return out


def _rows(kind: int, time, epoch, atom, ledger: np.ndarray, aux) -> EventLog:
    """Records of one kind; ``ledger`` holds one (clicks, strong, weak) row per record."""
    n = len(time)
    return EventLog(
        time,
        np.full(n, kind),
        np.broadcast_to(epoch, n),
        np.broadcast_to(atom, n),
        *ledger.T,
        np.broadcast_to(aux, n),
    )


def run_trajectory_renewal(
    cfg: RunConfig, rng: np.random.Generator, epochs: Optional[_CompiledEpochs] = None
) -> TrajectoryResult:
    """Event-driven trajectory: one uniform per epoch, drawn ``RENEWAL_BLOCK`` at a time.

    The epochs of a block are inverted at once under the template of the
    root atom. A hit that lands on another atom cuts the block there, and
    the rest of the block is inverted under that atom's template. Hit times
    are cumulative sums of the sampled epoch lengths and the root's photon
    ledger is a cumulative sum of the sinks' ledgers. The tail of the last
    block is never used.
    """
    epochs = _own_epochs(cfg, epochs)
    # an epoch's records are its start, its crossings and its hit: stably sorted
    # by epoch, these three lists concatenated give the log
    starts: list[EventLog] = []
    crossing_rows: list[EventLog] = []
    hit_rows: list[EventLog] = []
    atom = AtomLevel.GROUND
    ledger = np.zeros(3, dtype=np.int64)  # the root's clicks, strong and weak counts
    t = 0.0
    epoch = 0
    residual = 0.0
    u = np.empty(0)
    pos = 0
    while t < cfg.duration:
        tpl = _template(epochs[atom])
        residual = max(residual, tpl.conservation_residual)
        if not tpl.has_sinks:
            starts.append(_rows(EPOCH_START, [t], epoch, atom.value, ledger[None], 0.0))
            t = cfg.duration
            break
        if pos == len(u):
            u, pos = rng.random(RENEWAL_BLOCK), 0
        j, tau, delivered = tpl.sample_hits(u[pos:])
        # this template holds up to and including the first hit on another atom
        moves = np.flatnonzero(tpl.sink_atoms[j] != atom.value)
        n = int(moves[0]) + 1 if moves.size else len(j)
        times = np.cumsum(np.concatenate(([t], tau[:n])))
        # the first hit at or past the duration ends the trajectory; one past it is not logged
        late = np.flatnonzero(times[1:] >= cfg.duration)
        n_started = int(late[0]) + 1 if late.size else n
        n_hits = n_started - int(times[n_started] > cfg.duration)
        sinks = j[:n_hits]
        deltas = tpl.sink_ledger[sinks]
        after = ledger + np.cumsum(deltas, axis=0)
        before = np.concatenate((ledger[None], after))
        numbers = epoch + np.arange(n_started)
        starts.append(
            _rows(EPOCH_START, times[:n_started], numbers, atom.value, before[:n_started], 0.0)
        )
        for q in np.flatnonzero(deltas[:, 2] > 0):
            crossed = _crossings(tpl, tpl.sink_labels[sinks[q]], float(tau[q]), float(times[q]))
            shifts = [(lab.clicks, lab.strong, lab.weak) for _, lab in crossed]
            crossing_rows.append(
                _rows(
                    WEAK_EDGE_CROSSING,
                    [c for c, _ in crossed],
                    numbers[q],
                    [lab.atom.value for _, lab in crossed],
                    before[q] + np.array(shifts, dtype=np.int64).reshape(-1, 3),
                    1.0,
                )
            )
        hit_rows.append(
            _rows(
                HIT,
                times[1 : n_hits + 1],
                numbers[:n_hits],
                tpl.sink_atoms[sinks],
                after,
                delivered[:n_hits],
            )
        )
        epoch += n_hits
        if late.size:
            t = cfg.duration
            break
        t = float(times[-1])
        ledger = after[-1]
        atom = AtomLevel(int(tpl.sink_atoms[sinks[-1]]))
        pos += n
    log = EventLog.concat(starts + crossing_rows + hit_rows)
    return TrajectoryResult(
        records=log[np.argsort(log.epoch, kind="stable")],
        epochs=epoch,
        collapses=epoch,
        max_mass_residual=residual,
        final_time=t,
    )


def run_trajectory_steps(
    cfg: RunConfig,
    rng: np.random.Generator,
    max_steps: Optional[int] = None,
    epochs: Optional[_CompiledEpochs] = None,
) -> TrajectoryResult:
    """Per-step trajectory with explicit transport, trigger, and collapse.

    Every epoch steps the canonical chain of its compiled epoch; the hit
    target is shifted by the epoch's root when it is recorded.
    """
    epochs = _own_epochs(cfg, epochs)

    records: list[EventRecord] = []
    res = TrajectoryResult(records=EventLog.of(()), epochs=0)
    root = make_label(AtomLevel.GROUND, 0, 0, 0)
    t = 0.0
    epoch = 0

    while t < cfg.duration and (max_steps is None or res.steps_taken < max_steps):
        records.append(EventRecord.for_label(t, EventKind.EPOCH_START, epoch, root))
        ep = epochs[root.atom]
        state = ep.chain(t, epoch)
        t_epoch = t
        hit = None

        while t < cfg.duration and (max_steps is None or res.steps_taken < max_steps):
            dt = min(cfg.dt_max, cfg.duration - t)
            state, report = step(state, ep.system.edges, dt, ep.system)
            res.steps_taken += 1
            t = state.time
            drift = abs(float(state.masses.sum()) - 1.0)
            if drift > MASS_ABORT_TOL:
                raise InvariantBreach(
                    f"mass conservation broke at t={t}: residual {drift:.3e}"
                )
            res.max_mass_residual = max(res.max_mass_residual, drift)
            if ep.ready_idx:
                hit = trigger(report, ep.ready_idx, dt, rng)
                if hit is not None:
                    break
            if (
                res.steps_taken % EXTENSION_CHECK_EVERY == 0
                and ep.graph.depth < cfg.max_depth
            ):
                live = [i for i in ep.frontier_idx if state.masses[i] > EXTENSION_MASS_EPS]
                if live:
                    ep, index = _extended(ep, ep.graph.labels[live[0]])
                    masses = np.zeros(len(ep.graph.labels))
                    masses[index] = state.masses
                    state = ep.chain(state.time, epoch, masses)
                    res.extensions += 1

        if hit is None:
            break
        if hit.target.weak > 0:
            tau = hit.time - t_epoch
            for t_cross, target in _crossings(_template(ep), hit.target, tau, t_epoch):
                records.append(
                    EventRecord.for_label(
                        t_cross, EventKind.WEAK_EDGE_CROSSING, epoch, _shift_to(target, root),
                        aux=1.0,
                    )
                )
        state = collapse(state, hit)
        res.collapses += 1
        if abs(float(state.masses.sum()) - 1.0) > 0 or state.labels[0].ready.any():
            res.collapse_check_failures += 1
        root = _shift_to(state.labels[0], root)
        records.append(
            EventRecord.for_label(
                hit.time, EventKind.HIT, epoch, root, aux=hit.delivered_mass_at_hit
            )
        )
        t = hit.time
        epoch += 1

    res.records = EventLog.of(records)
    res.epochs = epoch
    res.final_time = t
    return res


def run_trajectory_flow(
    cfg: RunConfig, rng: np.random.Generator, epochs: Optional[_CompiledEpochs] = None
) -> TrajectoryResult:
    """No-observer driver: uninterrupted deterministic flow, no events.

    The chain is truncated at the configured depth (an unboundedly
    extending chain never reaches a pointwise-stationary profile); mass
    settles into the terminal components and the report carries the
    final max |dm/dt| as the stationarity residual.
    """
    del rng  # nothing stochastic happens without the trigger
    ep = _own_epochs(cfg, epochs)[AtomLevel.GROUND]
    state = ep.chain(0.0, 0)
    records = EventLog.of([EventRecord.for_label(0.0, EventKind.EPOCH_START, 0, ep.graph.root)])
    sys_ = ep.system
    dt_jump = 10.0 / sys_.max_rate if sys_.max_rate > 0 else cfg.duration
    steps = 0
    residual = 0.0
    while state.time < cfg.duration:
        dt = min(dt_jump, cfg.duration - state.time)
        state, _ = step(state, sys_.edges, dt, sys_)
        steps += 1
        residual = max(residual, abs(float(state.masses.sum()) - 1.0))
        if residual > MASS_ABORT_TOL:
            raise InvariantBreach(f"mass conservation broke: residual {residual:.3e}")
    rate_residual = float(np.abs(sys_.generator @ state.masses).max())
    return TrajectoryResult(
        records=records,
        epochs=1,
        steps_taken=steps,
        max_mass_residual=residual,
        stationarity_residual=rate_residual,
        final_time=state.time,
    )


def run_trajectory(
    cfg: RunConfig, index: int, epochs: Optional[_CompiledEpochs] = None
) -> TrajectoryResult:
    """Dispatch one trajectory: the no-observer mode to the flow driver, else by engine.

    The flow driver serves the no-observer mode on every engine and
    reports a ``stationarity_residual``. ``epochs`` are compiled epochs
    shared with the run's other trajectories; without them the driver
    compiles its own.
    """
    rng = derive_rng(cfg.master_seed, index)
    if cfg.mode_enum() is Mode.ORIGINAL_NO_OBSERVER:
        return run_trajectory_flow(cfg, rng, epochs)
    if cfg.engine == "steps":
        return run_trajectory_steps(cfg, rng, epochs=epochs)
    return run_trajectory_renewal(cfg, rng, epochs)


# -- reporting ----------------------------------------------------------


def analyze_log(cfg: RunConfig, records: EventLog) -> Optional[dict]:
    """Telegraph segmentation, interval statistics and weak timing of one log.

    ``run``'s report and ``analyze`` both print these fields. Returns
    None when the log holds no hits.
    """
    try:
        seg = segment_telegraph(records, cfg.resolved_threshold())
    except EmptyLog:
        return None
    stats = interval_stats(seg)
    out = {
        "bright_intervals": stats.bright_count,
        "dark_intervals": stats.dark_count,
        "bright_mean": stats.bright_mean,
        "dark_mean": stats.dark_mean if stats.dark_count else None,
        "dark_rate_estimate": stats.dark_rate_estimate,
    }
    if cfg.lasers == "both" and stats.dark_count:
        timing = classify_weak_timing(records, seg, cfg.config_kind(), cfg.rate_set())
        out["timing"] = {
            "at_end": timing.count(WeakTiming.AT_END),
            "at_start": timing.count(WeakTiming.AT_START),
            "ambiguous": timing.count(WeakTiming.AMBIGUOUS),
        }
    return out


def summarize_trajectory(cfg: RunConfig, index: int, result: TrajectoryResult) -> dict:
    hit_times = hits(result.records).time
    summary: dict = {
        "trajectory": index,
        "engine": cfg.engine,
        "mode": cfg.mode,
        "kind": cfg.kind,
        "lasers": cfg.lasers,
        "epochs": result.epochs,
        "hits": len(hit_times),
        "final_time": result.final_time,
        "max_mass_residual": result.max_mass_residual,
        "collapse_check_failures": result.collapse_check_failures,
        "extensions": result.extensions,
    }
    if result.stationarity_residual is not None:
        summary["stationarity_residual"] = result.stationarity_residual
    if len(hit_times) >= 2:
        summary["max_interhit_gap"] = float(np.diff(hit_times).max())
    summary.update(
        analyze_log(cfg, result.records) or {"bright_intervals": 0, "dark_intervals": 0}
    )
    return summary


def render_text_report(cfg: RunConfig, summaries: list[dict]) -> str:
    lines = [
        "telegraph run report",
        f"  kind={cfg.kind} lasers={cfg.lasers} mode={cfg.mode}",
        f"  rates: ksa={cfg.k_strong_absorb!r} kse={cfg.k_strong_emit!r}"
        f" kwa={cfg.k_weak_absorb!r} kwe={cfg.k_weak_emit!r}",
        f"  duration={cfg.duration!r} dt_max={cfg.dt_max!r} seed={cfg.master_seed}"
        f" trajectories={cfg.trajectories}",
        f"  threshold_gap={cfg.resolved_threshold()!r}",
        "",
    ]
    for s in summaries:
        lines.append(f"trajectory {s['trajectory']}:")
        lines.append(
            f"  epochs={s['epochs']} hits={s['hits']}"
            f" bright={s.get('bright_intervals', 0)} dark={s.get('dark_intervals', 0)}"
        )
        lines.append(f"  max_mass_residual={s['max_mass_residual']!r}")
        if "stationarity_residual" in s:
            lines.append(f"  stationarity_residual={s['stationarity_residual']!r}")
        if "timing" in s:
            t = s["timing"]
            lines.append(
                f"  weak timing: at_end={t['at_end']} at_start={t['at_start']}"
                f" ambiguous={t['ambiguous']}"
            )
        lines.append("")
    return "\n".join(lines)


def run(cfg: RunConfig) -> int:
    """Execute a full run: one log per trajectory plus text/JSON reports.

    Returns 0 on success, 1 for I/O failure, 2 for a runtime invariant
    breach (with a diagnostic dump of the offending trajectory:
    ``diagnostic.json`` holds the error, the trajectory index and the
    run's config as key=value text that ``parse_config`` reads back).
    """
    try:
        out = cfg.out_dir()
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}")
        return 1
    summaries = []
    epochs = _CompiledEpochs(cfg)
    try:
        for i in range(cfg.trajectories):
            result = run_trajectory(cfg, i, epochs)
            (out / f"events_{i:03d}.tsv").write_text(
                serialize_log(result.records), encoding="utf-8"
            )
            summaries.append(summarize_trajectory(cfg, i, result))
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}")
        diagnostic = {"error": str(exc), "trajectory": i, "config": format_config(cfg)}
        (out / "diagnostic.json").write_text(
            json.dumps(diagnostic, sort_keys=True), encoding="utf-8"
        )
        return 2
    except OSError as exc:
        print(f"I/O failure: {exc}")
        return 1

    aggregate = {
        "trajectories": cfg.trajectories,
        "total_hits": sum(s["hits"] for s in summaries),
        "total_dark_intervals": sum(s.get("dark_intervals", 0) for s in summaries),
        "worst_mass_residual": max(s["max_mass_residual"] for s in summaries),
    }
    try:
        with (out / "report.jsonl").open("w", encoding="utf-8") as fh:
            for s in summaries:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
            fh.write(json.dumps({"aggregate": aggregate}, sort_keys=True) + "\n")
        (out / "report.txt").write_text(render_text_report(cfg, summaries), encoding="utf-8")
    except OSError as exc:
        print(f"I/O failure: {exc}")
        return 1
    return 0
