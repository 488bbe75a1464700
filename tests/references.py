"""Test-side references that ``run`` and ``analyze`` never execute.

``displayed_epoch`` builds an epoch's chain as the paper displays it: it
expands the strong moves out of ready labels, whose edges Rule (4) blocks,
where ``build_epoch`` builds only the live ladder. ``chain_from_graph``
seeds a chain state on a graph with all mass at its root.
``integrate_exact_oracle`` integrates a chain by fine-step RK4, a route
independent of the propagators ``flow.step`` applies. ``currents`` reads
per-edge currents and per-component net inflows off a ``flow.step``
report. ``template_from_chain`` tabulates an ``EpochTemplate`` for any
chain state, not only a compiled epoch's root. ``parse_log_by_fields``
reads an event log's whole text field by field with ``str.split``,
``float`` and ``int``, a route independent of numpy's reader that
``eventlog.parse_log`` uses. ``analyze_whole_log`` analyses a whole log at
once, a route independent of ``analysis.LogFold``'s carry-over from one block
of records to the next.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from telegraphsim.analysis import (
    WeakTiming,
    classify_weak_timing,
    interval_stats,
    segment_telegraph,
)
from telegraphsim.config import ConfigKind, RateSet, RunConfig
from telegraphsim.configurations import _EMITS, _WEAK, EpochGraph, _moves
from telegraphsim.epochs import EpochTemplate
from telegraphsim.errors import EmptyLog, InvalidStep, TelegraphError
from telegraphsim.eventlog import _CODE_OF_VALUE, FORMAT_VERSION, EventLog, hits
from telegraphsim.flow import CurrentReport, FlowSystem
from telegraphsim.rules import is_decoherent
from telegraphsim.state import AtomLevel, ChainState, ComponentLabel, EdgeKind, FlowEdge

#: Oracle step: 1e-4 of the fastest timescale present in the graph.
ORACLE_STEP_FRACTION = 1e-4


class OracleUnsupported(TelegraphError):
    """The brute-force integrator only handles acyclic flow graphs."""


def displayed_epoch(
    kind: ConfigKind, root: ComponentLabel, rates: RateSet, depth: int, marks: bool = True
) -> EpochGraph:
    """The epoch graph as the paper displays it, with the labels behind blocked edges.

    ``build_epoch``'s breadth-first loop, except that a ready label still
    takes its strong moves (a ready label takes no weak move here either).
    Every child of a ready label is ready, so each of those edges joins two
    ready labels and carries no mass.
    """
    root = root.without_marks()
    clicks_budget = root.clicks + depth
    weak_budget = root.weak + depth
    moves = _moves(kind)
    labels = [root]
    seen = {root}
    edges: list[FlowEdge] = []
    frontier: set[ComponentLabel] = set()
    for lab in labels:
        for ekind, atom in moves[lab.atom]:
            weak = ekind in _WEAK
            if weak and lab.ready:
                continue
            if (ekind is EdgeKind.STRONG_EMIT and lab.clicks == clicks_budget) or (
                weak and lab.atom is AtomLevel.GROUND and lab.weak == weak_budget
            ):
                frontier.add(lab)
                continue
            dc, ds, dw = _EMITS.get(ekind, (0, 0, 0))
            child = ComponentLabel(atom, lab.clicks + dc, lab.strong + ds, lab.weak + dw)
            if marks and is_decoherent(lab, child):
                child = child.with_marks()
            if child not in seen:
                seen.add(child)
                labels.append(child)
            edges.append(FlowEdge(lab, child, rates.rate_for(ekind), ekind))
    return EpochGraph(
        kind, rates, depth, root, tuple(labels), tuple(edges), frozenset(frontier), marks
    )


def chain_from_graph(graph: EpochGraph) -> ChainState:
    """Seed a chain state on an epoch graph with all mass at the root, at time 0."""
    return ChainState(
        labels=graph.labels,
        masses=[1.0 if lab == graph.root else 0.0 for lab in graph.labels],
        edges=graph.edges,
    )


def _assert_acyclic(labels: Sequence[ComponentLabel], edges: Sequence[FlowEdge]) -> None:
    # Kahn's algorithm; the four level configurations always pass.
    index = {lab: i for i, lab in enumerate(labels)}
    indeg = [0] * len(labels)
    out = [[] for _ in labels]
    for e in edges:
        out[index[e.source]].append(index[e.target])
        indeg[index[e.target]] += 1
    queue = [i for i, d in enumerate(indeg) if d == 0]
    seen = 0
    while queue:
        i = queue.pop()
        seen += 1
        for j in out[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if seen != len(labels):
        raise OracleUnsupported("flow graph contains a cycle")


def integrate_exact_oracle(
    state: ChainState, edges: Sequence[FlowEdge], t: float
) -> ChainState:
    """Brute-force fine-step RK4 integration.

    Deliberately independent of the propagator route used by ``step``.
    Only supports acyclic graphs (raises OracleUnsupported otherwise).
    For the linear ODE m' = A m one classical RK4 step of size h is the
    matrix I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, formed once and
    applied once per step.
    """
    _assert_acyclic(state.labels, edges)
    if t < 0:
        raise InvalidStep(f"oracle horizon must be nonnegative, got {t}")
    if t == 0:
        return state
    sys_ = FlowSystem(state.labels, edges)
    A = sys_.generator
    max_rate = sys_.max_rate if sys_.max_rate > 0 else 1.0
    dt = ORACLE_STEP_FRACTION / max_rate
    n = int(np.ceil(t / dt))
    dt = t / n
    hA = dt * A
    hA2 = hA @ hA
    hA3 = hA2 @ hA
    rk4 = np.eye(len(A)) + hA + hA2 / 2.0 + hA3 / 6.0 + (hA3 @ hA) / 24.0
    m = state.masses.copy()
    for _ in range(n):
        m = rk4 @ m
    return state.with_masses(m, time=state.time + t)


def currents(
    report: CurrentReport,
) -> tuple[dict[FlowEdge, float], dict[ComponentLabel, float]]:
    """Each stepped edge's current and each component's net inflow over one step.

    An edge's current is its rate times the source mass averaged over the
    sub-intervals (trapezoid rule in each), so it resolves the inflow in
    time rather than averaging over the whole call. A component's net
    inflow is its mass change over the step divided by the step. An edge
    that was not stepped, such as a blocked one, carries no current.
    """
    avg = np.zeros(len(report.labels))
    for sub in report.substeps:
        avg += 0.5 * (sub.m_start + sub.m_end)
    avg /= len(report.substeps)
    index = {lab: i for i, lab in enumerate(report.labels)}
    src = np.array([index[e.source] for e in report.edges], dtype=np.intp)
    rates = np.array([e.rate for e in report.edges], dtype=np.float64)
    edge_current = dict(zip(report.edges, (rates * avg[src]).tolist()))
    dt = report.t_end - report.t_start
    inflow = (report.substeps[-1].m_end - report.substeps[0].m_start) / dt
    return edge_current, dict(zip(report.labels, inflow.tolist()))


def template_from_chain(state: ChainState, active: Sequence[FlowEdge]) -> EpochTemplate:
    """The template of ``state``'s masses flowing along ``active``, its marked labels as sinks."""
    ready = tuple(lab for lab in state.labels if lab.ready)
    return EpochTemplate(FlowSystem(state.labels, active), ready, state.masses)


def parse_log_by_fields(text: str) -> EventLog:
    """The records of a log's text, converted one field at a time.

    It reads what ``eventlog.parse_log`` reads and raises ``ValueError``
    where it does; its messages for a first line naming another format
    version, for a line with a field too many or too few and for an
    unknown kind are the same.
    """
    magic, first = "# telegraph-event-log ", next(iter(text.splitlines()), "")
    version = first[len(magic) :].strip()
    if first.startswith(magic) and version != f"v{FORMAT_VERSION}":
        raise ValueError(f"line 1: event log format {version}; this reader reads v{FORMAT_VERSION}")
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if list(map(str.count, lines, repeat("\t"))).count(6) != len(lines):
        lineno = next(
            n for n, line in enumerate(text.splitlines(), start=1)
            if line and not line.startswith("#") and line.count("\t") != 6
        )
        raise ValueError(f"line {lineno}: expected 7 tab-separated fields")
    # field i of every line sits at i, i + 7, ...
    fields = "\t".join(lines).split("\t") if lines else []
    n = len(lines)
    try:
        kinds = [_CODE_OF_VALUE[k] for k in fields[1::7]]
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]!r} is not a valid EventKind") from None
    try:
        ints = [np.fromiter(map(int, fields[i::7]), np.int64, n) for i in range(2, 7)]
    except OverflowError as exc:
        raise ValueError(str(exc)) from None
    return EventLog(np.fromiter(map(float, fields[0::7]), np.float64, n), kinds, *ints)


def analyze_whole_log(cfg: RunConfig, records: EventLog) -> Optional[dict]:
    """A log's hit count, largest gap between hits and telegraph analysis, from all of it at once.

    Returns ``hits``, ``max_gap`` (None with fewer than two hits) and
    ``analysis``: the fields ``cli.analyze_log`` gives, or None without a hit.
    """
    hit_times = hits(records).time
    out = {
        "hits": len(hit_times),
        "max_gap": float(np.diff(hit_times).max()) if len(hit_times) >= 2 else None,
    }
    try:
        seg = segment_telegraph(records, cfg.resolved_threshold())
    except EmptyLog:
        return {**out, "analysis": None}
    stats = interval_stats(seg)
    analysis = {
        "bright_intervals": stats.bright_count,
        "dark_intervals": stats.dark_count,
        "bright_mean": stats.bright_mean,
        "dark_mean": stats.dark_mean if stats.dark_count else None,
        "dark_rate_estimate": stats.dark_rate_estimate,
    }
    if cfg.lasers == "both" and stats.dark_count:
        timing = classify_weak_timing(records, seg, cfg.config_kind(), cfg.rate_set())
        analysis["timing"] = {
            "at_end": timing.count(WeakTiming.AT_END),
            "at_start": timing.count(WeakTiming.AT_START),
            "ambiguous": timing.count(WeakTiming.AMBIGUOUS),
        }
    return {**out, "analysis": analysis}
