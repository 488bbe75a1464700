"""Trajectories, report generation, and the top-level run.

``run_trajectory(cfg, index)`` is the one way to run a trajectory. The
config alone decides how: the no-observer ``mode`` runs the flow driver,
every other mode the draw of ``engine``, and trajectory ``index`` draws
from ``SeedSequence((master_seed, index))``.

Two engines implement the same stochastic law. They differ only in how
they draw an epoch's hit:

* ``steps``   -- honest per-step integration: exact propagator steps and
                 per-substep trigger sampling. Cost grows with duration / dt,
                 but one loop decides every block of steps on a table of
                 per-substep hazards: one array compare per block of
                 uniforms finds the hit. The full steps share each compiled
                 epoch's table, in chunks of about 1024 substeps; each step
                 shorter than ``dt_max``, at the end, is tabulated on its
                 own. The logs are byte-identical to calling ``flow.step``
                 and ``rules.trigger`` on every step.
* ``renewal`` -- event-driven: each epoch's hit (target, time) is drawn
                 in one shot from the epoch template's delivery curves.
                 This is exact for the same law (the per-substep hazards
                 telescope to the delivered-mass distribution) and makes
                 long desk-scale runs cheap. A block of uniforms is
                 inverted at once.

Both run every epoch on the same compiled epoch, the live ladder cut at
``depth`` weak cycles: mass that reaches a frontier label stays there
until the hit.
Both draw from one stream of uniforms per trajectory, ``_Uniforms``, and
hand their hits to one trajectory loop, ``_trajectory``, a block of
epochs per draw: every epoch up to and including the first hit that
moves the root to another atom, the end of the run, or ``UNIFORM_BLOCK``
epochs. A ``steps`` draw that meets a breach after completing epochs
returns them and raises on its next call, so the log keeps them. The
loop keeps the root's atom and photon ledger and makes the log as
columns, once per draw and in log order: each hit and the weak-edge
crossings before it. It hands them on a block of epochs at a time;
``run`` writes each block to the log file and folds it into the
trajectory's summary (``analysis.LogFold``), so no whole log is ever
held.

The no-observer mode has no stochastic events at all. On every engine
it runs the flow driver, ``_flow``, which moves the flow forward in large
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
import re
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .analysis import LogFold
from .cli import analyze_log, format_timing
from .config import Mode, RunConfig, format_config
# active_edges, extend_frontier, serialize_log, step and trigger are unused here:
# perfbench's traced run looks them up in this module
from .configurations import build_epoch, extend_frontier  # noqa: F401
from .epochs import CompiledEpoch, EpochTemplate, HazardChunk, hazard_chunk
from .errors import InvariantBreach
from .eventlog import _CHUNK, HIT, WEAK_EDGE_CROSSING, EventLog, append_records, open_log
from .eventlog import serialize_log  # noqa: F401
from .flow import step  # noqa: F401
from .rules import active_edges, substep_hit, trigger  # noqa: F401
from .state import AtomLevel, ComponentLabel

MASS_ABORT_TOL = 1e-6
# the names of the files ``run`` writes, which a run first deletes from its ``out``
_RUN_OUTPUT = re.compile(r"report\.jsonl|report\.txt|diagnostic\.json|events_[0-9]+\.tsv")
#: Uniforms a trajectory draws from its generator at a time, at least, and the most
#: epochs one draw returns.
UNIFORM_BLOCK = 4096


def derive_rng(master_seed: int, index: int) -> np.random.Generator:
    """Per-trajectory generator derived from (master seed, trajectory index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, index))))


#: Takes each block of a trajectory's records, in log order.
Consumer = Callable[[EventLog], None]


@dataclass
class TrajectoryResult:
    records: EventLog  # empty when a consumer took the records
    epochs: int
    steps_taken: int = 0
    max_mass_residual: float = 0.0
    stationarity_residual: Optional[float] = None
    final_time: float = 0.0


def _epochs_key(cfg: RunConfig) -> tuple:
    marks = cfg.mode_enum() is not Mode.ORIGINAL_NO_OBSERVER
    return (cfg.config_kind(), cfg.rate_set(), cfg.depth, marks)


class _CompiledEpochs(dict):
    """One run's compiled epochs at the configured depth, keyed by root atom.

    Each is built on first use, and every engine runs on these same epochs.
    ``run`` builds one and every trajectory of the run shares it. Sharing
    is exact because everything cached is a pure function of the key: the
    kind, lasers, rates and depth, and whether the graphs carry ready marks
    (all modes but no-observer). That covers the graph, the ``FlowSystem``
    and its per-``dt`` propagators, the template and its crossing stages,
    and the per-``dt`` hazard tables.
    """

    def __init__(self, cfg: RunConfig):
        super().__init__()
        self.key = _epochs_key(cfg)

    def __missing__(self, atom: AtomLevel) -> CompiledEpoch:
        kind, rates, depth, marks = self.key
        compiled = self[atom] = CompiledEpoch(
            build_epoch(kind, ComponentLabel(atom, 0, 0, 0), rates, depth, marks)
        )
        return compiled


def _template(ep: CompiledEpoch) -> EpochTemplate:
    tpl = ep.template
    if tpl.conservation_residual > MASS_ABORT_TOL:
        raise InvariantBreach(
            f"epoch template violates conservation by {tpl.conservation_residual:.3e}"
        )
    return tpl


def _rows(kind: int, time, epoch, atom, ledger: np.ndarray) -> EventLog:
    """Records of one kind; ``ledger`` holds one (clicks, strong, weak) row per record."""
    return EventLog(time, np.full(len(time), kind), epoch, atom, *ledger.T)


def _trajectory(
    epochs: _CompiledEpochs, draw: Callable, res: TrajectoryResult, consume: Optional[Consumer]
) -> TrajectoryResult:
    """Epochs from the ground atom at t = 0 until ``draw`` ends them, logged into ``consume``.

    ``draw(ep, t, epoch)`` samples the epochs that start at ``t`` on ``ep``,
    numbered from ``epoch``, up to and including the first hit that moves
    the root to another atom, the end of the run, or ``UNIFORM_BLOCK``
    epochs. It returns their hit targets as positions in ``ep.ready``
    (``sinks``), their sampled lengths ``tau``, ``times`` (the first
    epoch's start, then each hit time), and the trajectory's final time if
    it ends in this block, else None. A draw that meets a breach after
    completing epochs returns them and raises it on its next call. The
    loop keeps the root's atom and photon ledger, one cumulative sum per
    block: a hit's record holds the ledger after it, and each of its
    weak-edge crossings the ledger before it plus the crossed edge's
    target's, read from the compiled epoch's per-label arrays. A weak
    epoch's crossings, from one ``crossing_times`` call and clamped into
    the epoch, go by time just before its hit: a draw's rows are made in
    log order.

    The records go to ``consume`` in log order, a block of whole epochs at
    a time, once about ``_CHUNK`` of them are drawn, and every epoch drawn
    so far when the loop ends, also by an ``InvariantBreach``. Without
    ``consume`` they are put together into ``res.records``.
    """
    blocks = []
    rows = []  # whole epochs, each draw's rows in log order
    buffered = 0  # records in rows

    def flush() -> None:
        nonlocal buffered
        if buffered:
            block = EventLog.concat(rows)
            rows.clear()
            buffered = 0
            (consume or blocks.append)(block)

    atom = AtomLevel.GROUND
    ledger = np.zeros(3, dtype=np.int64)  # the root's clicks, strong and weak counts
    t = 0.0
    epoch = 0
    try:
        while True:
            ep = epochs[atom]
            sinks, tau, times, end = draw(ep, t, epoch)
            deltas = ep.sink_ledger[sinks]
            after = ledger + np.cumsum(deltas, axis=0)
            n = len(sinks)
            block = _rows(HIT, times[1:], epoch + np.arange(n), ep.sink_atoms[sinks], after)
            weak = np.flatnonzero(deltas[:, 2] > 0).tolist()
            tpl = _template(ep) if weak else None
            # every crossing of the draw's weak epochs: its epoch in the draw, target and time
            crossed = [
                (w, i, c)
                for w in weak
                for i, c in tpl.crossing_times(ep.ready[sinks[w]], float(tau[w]))
            ]
            if crossed:
                q, target, c = map(np.array, zip(*crossed))
                start = times[q]
                # each clamped into its epoch, then ordered by epoch and by time within it
                c = np.minimum(np.maximum(start + c, start), start + tau[q])
                order = np.lexsort((c, q))
                q, target, c = q[order], target[order], c[order]
                crossings = _rows(
                    WEAK_EDGE_CROSSING, c, epoch + q, ep.atoms[target],
                    after[q] - deltas[q] + ep.ledgers[target],
                )
                # each epoch's crossings go just before its hit
                block = EventLog(
                    *(np.insert(h, q, x) for h, x in zip(block.columns(), crossings.columns()))
                )
            # only whole epochs are buffered: a breach above leaves none half logged
            rows.append(block)
            buffered += len(block)
            epoch += n
            if end is not None:
                t = end
                break
            if buffered >= _CHUNK:
                flush()
            t = float(times[-1])
            ledger = after[-1]
            atom = AtomLevel(int(ep.sink_atoms[sinks[-1]]))
    finally:
        flush()
    if consume is None:
        res.records = EventLog.concat(blocks)
    res.epochs = epoch
    res.final_time = t
    return res


class _Uniforms:
    """A trajectory's uniforms in draw order, drawn from its generator a block at a time.

    On PCG64, ``rng.random(n)`` gives the same doubles as ``n`` calls of
    ``rng.random()``, so the stream is the one a per-draw caller, such as
    ``rules.trigger``, would see.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._u = np.empty(0)
        self._pos = 0

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms, not yet used."""
        if self._pos + n > len(self._u):
            fresh = self._rng.random(max(n, UNIFORM_BLOCK))
            self._u, self._pos = np.concatenate((self._u[self._pos :], fresh)), 0
        return self._u[self._pos : self._pos + n]

    def use(self, n: int) -> None:
        self._pos += n


def _renewal(cfg: RunConfig, uniforms: _Uniforms, res: TrajectoryResult) -> Callable:
    """The ``renewal`` engine's draw: one uniform per epoch, ``UNIFORM_BLOCK`` at a time.

    Each draw inverts the next ``UNIFORM_BLOCK`` uniforms of the stream at
    once under the template of the root atom and uses them up to and
    including the first hit that lands on another atom; the next draw
    inverts the uniforms after that hit under that atom's template. Hit
    times are cumulative sums of the sampled epoch lengths.
    """

    def draw(ep: CompiledEpoch, t: float, epoch: int) -> tuple:
        tpl = _template(ep)
        res.max_mass_residual = max(res.max_mass_residual, tpl.conservation_residual)
        if not tpl.has_sinks:
            return [], [], [t], cfg.duration
        j, tau = tpl.sample_hits(uniforms.peek(UNIFORM_BLOCK))
        # this template holds up to and including the first hit on another atom
        moves = np.flatnonzero(ep.sink_atoms[j] != ep.atoms[0])
        n = int(moves[0]) + 1 if moves.size else len(j)
        uniforms.use(n)
        times = np.cumsum(np.concatenate(([t], tau[:n])))
        # the first hit at or past the duration ends the trajectory; one past it is not logged
        late = np.flatnonzero(times[1:] >= cfg.duration)
        if not late.size:
            return j[:n], tau[:n], times, None
        n = int(late[0]) + int(times[late[0] + 1] == cfg.duration)
        return j[:n], tau[:n], times[: n + 1], cfg.duration

    return draw


def _steps(
    chunk: HazardChunk, t: float, dt: float, duration: float, uniforms: _Uniforms,
    res: TrajectoryResult,
) -> tuple[int, Optional[int], float]:
    """The steps of ``chunk`` from ``t``, up to the hit or a step shorter than ``dt``.

    While the chunk has ready targets each substep uses one uniform, and
    the first that falls below its substep's hazard is the hit; its target
    comes from ``rules.substep_hit`` on the two ready rows around the
    substep. The step times are summed only up to the hit step, and
    searched for a step that would be shorter than ``dt`` only when the
    last of them reaches ``duration - dt``. Returns the number of steps
    taken, the hit's target as its position in the ready targets (None
    without a hit), and the hit's time, or without one the time after the
    steps.
    """
    n, n_sub = len(chunk.drift_max), chunk.n_sub
    s = None  # the hit's substep
    if chunk.ready.shape[1]:
        u = uniforms.peek(n * n_sub)
        below = u < chunk.hazard
        s = int(below.argmax())
        if below[s]:
            n = s // n_sub + 1
        else:
            s = None
    # the step boundaries, summed one dt at a time as successive steps sum them
    times = np.empty(n + 1)
    times.fill(dt)
    times[0] = t
    times.cumsum(out=times)
    if duration - times[n - 1] < dt:
        # the first step shorter than dt, and every step after it, is not taken here
        n, s = int(np.flatnonzero(duration - times[:n] < dt)[0]), None
    if chunk.ready.shape[1]:
        uniforms.use(n * n_sub if s is None else s + 1)
    worst = chunk.drift_max[n - 1]
    if worst > MASS_ABORT_TOL:
        b = int(np.flatnonzero(chunk.drift_max > MASS_ABORT_TOL)[0])
        residual = chunk.drift_max[b]
        raise InvariantBreach(
            f"mass conservation broke at t={float(times[b + 1])}: residual {residual:.3e}"
        )
    res.max_mass_residual = max(res.max_mass_residual, float(worst))
    res.steps_taken += n
    if s is None:
        return n, None, float(times[n])
    # the substep's bounds as flow.step sums them; the hit is at their midpoint
    t_sub = float(times[n - 1])
    for _ in range(s % n_sub):
        t_sub += chunk.dt_sub
    m_start, m_end = chunk.ready[s], chunk.ready[s + 1]
    j = substep_hit(m_start, m_end, range(len(m_start)), float(u[s]))
    return n, j, 0.5 * (t_sub + (t_sub + chunk.dt_sub))


def _stepped(cfg: RunConfig, uniforms: _Uniforms, res: TrajectoryResult) -> Callable:
    """The ``steps`` engine's draw: per-step transport and trigger, a block of epochs per call.

    A draw steps epoch after epoch on one compiled epoch, up to and
    including the first hit that moves the root to another atom, the end
    of the run, or ``UNIFORM_BLOCK`` epochs, whichever comes first. Every
    epoch steps the canonical chain of its compiled epoch from its root,
    a block of steps per pass, and every block is decided by ``_steps`` on
    a table of per-substep hazards: the uniforms, one per substep while the
    epoch has ready targets, are drawn in blocks and compared with the
    tabulated hazards, and the first one below its hazard is the hit.
    While ``duration - t >= dt_max`` a block is a chunk of the compiled
    epoch's hazard table, cut before the first step that would be shorter.
    After that each step, shorter than ``dt_max``, is a block of its own,
    tabulated by ``hazard_chunk`` from the masses the steps before it left.
    A breach in an epoch after others of the block were completed returns
    those epochs, and the next call raises it, so the log keeps them.
    Draws, times and masses are those of ``flow.step`` and
    ``rules.trigger`` on every step, so the logs are byte-identical to
    stepping every step with them.
    """
    breach: Optional[InvariantBreach] = None  # met after the epochs the last call returned

    def epoch_hit(ep: CompiledEpoch, t: float) -> tuple[Optional[int], float]:
        """The hit's target and time of the epoch that starts at ``t``, or None and the end."""
        k = 0  # the epoch's full steps
        while cfg.duration - t >= cfg.dt_max:
            table = ep.hazards(cfg.dt_max)
            chunk = table.chunk(k // table.steps)
            n, j, t = _steps(chunk, t, cfg.dt_max, cfg.duration, uniforms, res)
            if j is not None:
                return j, t
            k += n
        m = ep.hazards(cfg.dt_max).masses_at(k) if k else ep.root_masses
        while t < cfg.duration:
            dt = cfg.duration - t
            chunk, m = hazard_chunk(ep.system, ep.ready_idx, m, dt, 1)
            _, j, t = _steps(chunk, t, dt, cfg.duration, uniforms, res)
            if j is not None:
                return j, t
        return None, t

    def draw(ep: CompiledEpoch, t: float, epoch: int) -> tuple:
        nonlocal breach
        if breach is not None:
            raise breach
        root = ep.atoms[0]
        sinks, times, end = [], [t], None
        while len(sinks) < UNIFORM_BLOCK:
            try:
                j, t = epoch_hit(ep, t)
            except InvariantBreach as exc:
                if not sinks:
                    raise
                breach = exc
                break
            if j is None:
                end = t
                break
            sinks.append(j)
            times.append(t)
            if ep.sink_atoms[j] != root:
                break
        times = np.array(times)
        return np.array(sinks, dtype=np.intp), np.diff(times), times, end

    return draw


def _flow(cfg: RunConfig, ep: CompiledEpoch, res: TrajectoryResult) -> TrajectoryResult:
    """The no-observer mode: uninterrupted deterministic flow, no events, an empty log.

    The chain is truncated at the configured depth (an unboundedly
    extending chain never reaches a pointwise-stationary profile). The
    masses move in jumps of ``10 / max_rate``, each one exact propagator
    product; mass settles into the terminal components and the result
    carries the final max |dm/dt| as the stationarity residual.
    """
    sys_ = ep.system
    m = ep.root_masses
    dt_jump = 10.0 / sys_.max_rate if sys_.max_rate > 0 else cfg.duration
    t = 0.0
    while t < cfg.duration:
        dt = min(dt_jump, cfg.duration - t)
        m = sys_.propagator(dt) @ m
        t += dt
        res.steps_taken += 1
        residual = res.max_mass_residual = max(res.max_mass_residual, abs(float(m.sum()) - 1.0))
        if residual > MASS_ABORT_TOL:
            raise InvariantBreach(f"mass conservation broke: residual {residual:.3e}")
    res.epochs = 1
    res.stationarity_residual = float(np.abs(sys_.generator @ m).max())
    res.final_time = t
    return res


def run_trajectory(
    cfg: RunConfig,
    index: int,
    epochs: Optional[_CompiledEpochs] = None,
    consume: Optional[Consumer] = None,
) -> TrajectoryResult:
    """Trajectory ``index`` of ``cfg``: the one way to run a trajectory.

    The stream is ``derive_rng(cfg.master_seed, index)``, that is
    ``SeedSequence((master_seed, index))``. The no-observer ``mode`` runs
    the flow driver on every engine: it draws nothing, logs nothing and
    reports a ``stationarity_residual``. Every other mode runs the draw of
    ``engine``: ``steps``, or ``renewal`` for ``renewal`` and ``auto``.
    ``epochs`` are compiled epochs shared with the run's other
    trajectories, built for this config; without them the trajectory
    compiles its own. The records go to ``consume`` a block of epochs at a
    time, or without it into the result's ``records``.
    """
    if epochs is None:
        epochs = _CompiledEpochs(cfg)
    elif epochs.key != _epochs_key(cfg):
        raise ValueError("compiled epochs were built for another config")
    res = TrajectoryResult(records=EventLog.of(()), epochs=0)
    if cfg.mode_enum() is Mode.ORIGINAL_NO_OBSERVER:
        return _flow(cfg, epochs[AtomLevel.GROUND], res)
    engine = _stepped if cfg.engine == "steps" else _renewal
    draw = engine(cfg, _Uniforms(derive_rng(cfg.master_seed, index)), res)
    return _trajectory(epochs, draw, res, consume)


# -- reporting ----------------------------------------------------------


def summarize_trajectory(
    cfg: RunConfig, index: int, result: TrajectoryResult, fold: LogFold
) -> dict:
    """The report's entry for a trajectory whose records ``fold`` took."""
    summary: dict = {
        "trajectory": index,
        "engine": cfg.engine,
        "mode": cfg.mode,
        "kind": cfg.kind,
        "lasers": cfg.lasers,
        "epochs": result.epochs,
        "hits": fold.hits,
        "final_time": result.final_time,
        "max_mass_residual": result.max_mass_residual,
    }
    if result.stationarity_residual is not None:
        summary["stationarity_residual"] = result.stationarity_residual
    if fold.max_gap is not None:
        summary["max_interhit_gap"] = float(fold.max_gap)
    summary.update(analyze_log(cfg, fold) or {"bright_intervals": 0, "dark_intervals": 0})
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
            lines.append(format_timing(s["timing"]))
        lines.append("")
    return "\n".join(lines)


def run(cfg: RunConfig) -> int:
    """Execute a full run: one log per trajectory plus text/JSON reports.

    It first deletes from ``out`` the files an earlier run wrote there
    (``_RUN_OUTPUT``), and nothing else, so the outputs it leaves are all
    its own. Each trajectory's records go to its log file and to its
    summary's fold a block at a time, so no whole log is held. Errors are
    printed on stderr. Returns 0 on success, 1 for I/O failure, 2 for a
    runtime invariant breach, with a diagnostic dump of the offending
    trajectory: ``diagnostic.json`` holds the error, the trajectory
    index, the run's config as key=value text that
    ``parse_config`` reads back, and the trajectory's log file
    (``partial_log``), which holds the records of every epoch completed
    before the breach (``epochs_logged``, one hit each).
    """
    try:
        out = cfg.out_dir()
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 1
    summaries = []
    epochs = _CompiledEpochs(cfg)
    try:
        for old in out.iterdir():
            if _RUN_OUTPUT.fullmatch(old.name):
                old.unlink()
        for i in range(cfg.trajectories):
            log = out / f"events_{i:03d}.tsv"
            fold = LogFold(cfg.resolved_threshold())
            with open_log(log) as fh:

                def consume(block: EventLog) -> None:
                    append_records(fh, block)
                    fold.add(block)

                result = run_trajectory(cfg, i, epochs, consume)
            summaries.append(summarize_trajectory(cfg, i, result, fold))
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        diagnostic = {
            "error": str(exc),
            "trajectory": i,
            "config": format_config(cfg),
            "partial_log": log.name,
            "epochs_logged": fold.hits,
        }
        (out / "diagnostic.json").write_text(
            json.dumps(diagnostic, sort_keys=True), encoding="utf-8"
        )
        return 2
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
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
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 1
    return 0
