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
hand their hits to one trajectory loop, ``_trajectory``, which keeps the
root's atom and photon ledger and makes the log as columns: each hit
and the weak-edge crossings before it. It hands them on a block of epochs
at a time; ``run`` writes each block to the log file and folds it into
the trajectory's summary (``analysis.LogFold``), so no whole log is ever
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
#: Uniforms a trajectory draws from its generator at a time, at least.
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


def _rows(kind: int, time, epoch, atom, ledger: np.ndarray) -> EventLog:
    """Records of one kind; ``ledger`` holds one (clicks, strong, weak) row per record."""
    n = len(time)
    return EventLog(
        time, np.full(n, kind), np.broadcast_to(epoch, n), np.broadcast_to(atom, n), *ledger.T
    )


def _trajectory(
    epochs: _CompiledEpochs, draw: Callable, res: TrajectoryResult, consume: Optional[Consumer]
) -> TrajectoryResult:
    """Epochs from the ground atom at t = 0 until ``draw`` ends them, logged into ``consume``.

    ``draw(ep, t, epoch)`` samples the epochs that start at ``t`` on ``ep``,
    numbered from ``epoch``, up to and including the first hit that moves
    the root to another atom. It returns their hit targets as positions in
    ``ep.ready`` (``sinks``), their sampled lengths ``tau``, ``times`` (the
    first epoch's start, then each hit time), and the trajectory's final
    time if it ends in this block, else None. The loop keeps the root's
    atom and photon ledger: a hit's record holds the ledger after it, and
    each of its weak-edge crossings the ledger before it plus the crossed
    edge's target's.

    The records go to ``consume`` in log order, a block of whole epochs at
    a time, once about ``_CHUNK`` of them are drawn, and every epoch drawn
    so far when the loop ends, also by an ``InvariantBreach``. Without
    ``consume`` they are put together into ``res.records``.
    """
    blocks = []
    rows = []  # whole epochs, each draw's crossings and then its hits
    buffered = 0  # records in rows

    def flush() -> None:
        nonlocal buffered
        if buffered:
            # stably sorted by epoch, the rows give the log's order
            order = np.argsort(np.concatenate([g.epoch for g in rows]), kind="stable")
            block = EventLog.gather(rows, order)
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
            # every crossing of the draw's weak epochs, by epoch and then by time
            crossed = [
                (q, c, lab)
                for q in np.flatnonzero(deltas[:, 2] > 0)
                for c, lab in _crossings(
                    _template(ep), ep.ready[sinks[q]], float(tau[q]), float(times[q])
                )
            ]
            n = len(sinks)
            # only whole epochs are buffered: a breach above leaves none half logged
            if crossed:
                q = np.array([q for q, _, _ in crossed])
                shifts = np.array([(lab.clicks, lab.strong, lab.weak) for _, _, lab in crossed])
                rows.append(
                    _rows(
                        WEAK_EDGE_CROSSING,
                        [c for _, c, _ in crossed],
                        epoch + q,
                        [lab.atom.value for _, _, lab in crossed],
                        after[q] - deltas[q] + shifts,
                    )
                )
            rows.append(_rows(HIT, times[1:], epoch + np.arange(n), ep.sink_atoms[sinks], after))
            buffered += n + len(crossed)
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

    def rest(self) -> np.ndarray:
        """The unused uniforms of the current block, or a fresh block if none are left."""
        if self._pos == len(self._u):
            self._u, self._pos = self._rng.random(UNIFORM_BLOCK), 0
        return self._u[self._pos :]

    def use(self, n: int) -> None:
        self._pos += n


def _renewal(cfg: RunConfig, uniforms: _Uniforms, res: TrajectoryResult) -> Callable:
    """The ``renewal`` engine's draw: one uniform per epoch, ``UNIFORM_BLOCK`` at a time.

    Each draw inverts the unused rest of the block at once under the
    template of the root atom. A hit that lands on another atom cuts it, and
    the rest of the block is inverted under that atom's template. Hit times
    are cumulative sums of the sampled epoch lengths. The tail of the last
    block is never used.
    """

    def draw(ep: CompiledEpoch, t: float, epoch: int) -> tuple:
        tpl = _template(ep)
        res.max_mass_residual = max(res.max_mass_residual, tpl.conservation_residual)
        if not tpl.has_sinks:
            return [], [], [t], cfg.duration
        j, tau = tpl.sample_hits(uniforms.rest())
        # this template holds up to and including the first hit on another atom
        moves = np.flatnonzero(ep.sink_atoms[j] != ep.graph.root.atom.value)
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
    chunk: HazardChunk, off: int, times: np.ndarray, uniforms: _Uniforms, res: TrajectoryResult
) -> tuple[int, Optional[tuple[int, float]]]:
    """Steps ``off`` onwards of ``chunk``, one per interval of ``times``, up to the hit.

    While the chunk has ready targets each substep uses one uniform, and
    the first that falls below its substep's hazard is the hit; its target
    comes from ``rules.substep_hit`` on the two ready rows around the
    substep. Returns the number of steps taken and the hit, if any, as its
    target's position in the ready targets and its time.
    """
    n, n_sub = len(times) - 1, chunk.n_sub
    s = None  # the hit's substep
    if chunk.ready.shape[1]:
        u = uniforms.peek(n * n_sub)
        below = u < chunk.hazard[off * n_sub : (off + n) * n_sub]
        s = int(below.argmax())
        if below[s]:
            n = s // n_sub + 1
        else:
            s = None
        uniforms.use(n * n_sub if s is None else s + 1)
    drift = chunk.drift[off : off + n]
    breach = np.flatnonzero(drift > MASS_ABORT_TOL)
    if breach.size:
        b = int(breach[0])
        raise InvariantBreach(
            f"mass conservation broke at t={float(times[b + 1])}: residual {drift[b]:.3e}"
        )
    res.max_mass_residual = max(res.max_mass_residual, float(drift.max()))
    res.steps_taken += n
    if s is None:
        return n, None
    # the substep's bounds as flow.step sums them; the hit is at their midpoint
    t_sub = float(times[n - 1])
    for _ in range(s % n_sub):
        t_sub += chunk.dt_sub
    row = off * n_sub + s
    m_start, m_end = chunk.ready[row], chunk.ready[row + 1]
    j = substep_hit(m_start, m_end, range(len(m_start)), float(u[s]))
    return n, (j, 0.5 * (t_sub + (t_sub + chunk.dt_sub)))


def _stepped(cfg: RunConfig, uniforms: _Uniforms, res: TrajectoryResult) -> Callable:
    """The ``steps`` engine's draw: per-step transport and trigger, up to the hit.

    Every epoch steps the canonical chain of its compiled epoch in one
    loop, a block of steps per pass, and every block is decided by
    ``_steps`` on a table of per-substep hazards: the uniforms, one per
    substep while the epoch has ready targets, are drawn in blocks and
    compared with the tabulated hazards, and the first one below its
    hazard is the hit. While ``duration - t >= dt_max`` a block is the rest
    of a chunk of the compiled epoch's hazard table, cut before the first
    step that would be shorter. After that each step, shorter than
    ``dt_max``, is a block of its own, tabulated by ``hazard_chunk`` from
    the masses the steps before it left. Draws, times and masses are those
    of ``flow.step`` and ``rules.trigger`` on every step, so the logs are
    byte-identical to stepping every step with them.
    """

    def draw(ep: CompiledEpoch, t: float, epoch: int) -> tuple:
        t_epoch, k, hit = t, 0, None  # k counts the epoch's steps
        m = None  # every mass after the last short step
        while hit is None and t < cfg.duration:
            if cfg.duration - t >= cfg.dt_max:
                table = ep.hazards(cfg.dt_max)
                c, off = divmod(k, table.steps)
                chunk, dt, n = table.chunk(c), cfg.dt_max, table.steps - off
            else:
                if m is None:
                    m = ep.hazards(cfg.dt_max).masses_at(k) if k else ep.root_masses
                dt, off, n = cfg.duration - t, 0, 1
                chunk, m = hazard_chunk(ep.system, ep.ready_idx, m, dt, 1)
            # the step boundaries, summed one dt at a time as successive steps sum them
            times = np.cumsum(np.concatenate(([t], np.full(n, dt))))
            short = np.flatnonzero(cfg.duration - times[:n] < dt)
            n = int(short[0]) if short.size else n
            n, hit = _steps(chunk, off, times[: n + 1], uniforms, res)
            k += n
            t = float(times[n])
        if hit is None:
            return [], [], [t], t
        j, t_hit = hit
        return [j], [t_hit - t_epoch], [t_epoch, t_hit], None

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
