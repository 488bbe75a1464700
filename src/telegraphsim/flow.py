"""Probability-mass transport over the component flow graph.

The transport law is unidirectional first-order kinetics: along an edge
with rate k, mass leaves the source at k * m_source. Within one epoch
the active edge set is constant, so the evolution is a linear ODE
m' = A m with a conservative generator (columns of A sum to zero). The
stepper applies the exact matrix-exponential propagator, which keeps
total mass to machine precision; a fine-step RK4 oracle provides an
independent numerical route for tests.

scipy is imported only when a propagator is first computed, so code that
only reads or analyses logs never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidStep, OracleUnsupported, UnknownComponent
from .state import ChainState, ComponentLabel, EdgeKind, FlowEdge

# Per-substep transported fraction is capped so the trigger sees
# time-resolved currents (sum of J*dt stays well under 0.1).
SUBSTEP_CURRENT_CAP = 0.05

#: Oracle step: 1e-4 of the fastest timescale present in the graph.
ORACLE_STEP_FRACTION = 1e-4


@dataclass(frozen=True)
class RateSet:
    """The four laser/decay rates, in units of the strong decay rate.

    Physically meaningful telegraph behaviour needs the weak rates far
    below the strong ones; nothing enforces that here.
    """

    k_strong_absorb: float = 1.0
    k_strong_emit: float = 1.0
    k_weak_absorb: float = 1e-3
    k_weak_emit: float = 1e-3

    def __post_init__(self) -> None:
        for name in ("k_strong_absorb", "k_strong_emit", "k_weak_absorb", "k_weak_emit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def rate_for(self, kind: EdgeKind) -> float:
        return {
            EdgeKind.STRONG_ABSORB: self.k_strong_absorb,
            EdgeKind.STRONG_EMIT: self.k_strong_emit,
            EdgeKind.WEAK_ABSORB: self.k_weak_absorb,
            EdgeKind.WEAK_EMIT: self.k_weak_emit,
            EdgeKind.COHERENT_SECTOR: self.k_strong_absorb,
        }[kind]


def expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm``, imported on the first call."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


class FlowSystem:
    """Compiled linear system for a fixed label ordering and active edge set."""

    def __init__(self, labels: Sequence[ComponentLabel], edges: Sequence[FlowEdge]):
        self.labels = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.edges = tuple(edges)
        n = len(self.labels)
        self.src_idx = np.array([self.index[e.source] for e in self.edges], dtype=np.intp)
        self.dst_idx = np.array([self.index[e.target] for e in self.edges], dtype=np.intp)
        self.rates = np.array([e.rate for e in self.edges], dtype=np.float64)
        A = np.zeros((n, n))
        for e, s, d, k in zip(self.edges, self.src_idx, self.dst_idx, self.rates):
            A[d, s] += k
            A[s, s] -= k
        self.generator = A
        self.max_rate = float(self.rates.max()) if len(self.edges) else 0.0
        self._propagators: dict[float, np.ndarray] = {}

    def propagator(self, dt: float) -> np.ndarray:
        P = self._propagators.get(dt)
        if P is None:
            P = expm(self.generator * dt)
            self._propagators[dt] = P
        return P

    def matches(self, state: ChainState, edges: Sequence[FlowEdge]) -> bool:
        if self.labels is state.labels and (edges is self.edges or not edges):
            return len(edges) == len(self.edges)
        return self.labels == state.labels and self.edges == tuple(edges)


def _system_for(state: ChainState, edges: Sequence[FlowEdge]) -> FlowSystem:
    sys_ = state._system
    if sys_ is None or not sys_.matches(state, edges):
        sys_ = FlowSystem(state.labels, edges)
        state._system = sys_
    return sys_


@dataclass(frozen=True)
class Substep:
    """Masses bracketing one internal sub-interval of a step."""

    t_start: float
    t_end: float
    m_start: np.ndarray
    m_end: np.ndarray


@dataclass(frozen=True)
class CurrentReport:
    """Per-edge flows and per-component net inflows over one step.

    Edge currents are the rate times the time-averaged source mass over
    the sub-intervals, so the trigger sees time-resolved inflow rather
    than a per-call average. The aggregate arrays are materialized
    lazily; the stepping hot loop only ever touches the substep masses.
    """

    t_start: float
    t_end: float
    epoch: int
    labels: tuple[ComponentLabel, ...]
    index: dict
    edges: tuple[FlowEdge, ...]
    substeps: tuple[Substep, ...]
    _src_idx: np.ndarray
    _rates: np.ndarray

    @cached_property
    def edge_currents(self) -> np.ndarray:
        if not len(self.edges):
            return np.zeros(0)
        avg = np.zeros(len(self.labels))
        for sub in self.substeps:
            avg += 0.5 * (sub.m_start + sub.m_end)
        avg /= len(self.substeps)
        return self._rates * avg[self._src_idx]

    @cached_property
    def net_inflow(self) -> np.ndarray:
        dt = self.t_end - self.t_start
        return (self.substeps[-1].m_end - self.substeps[0].m_start) / dt

    def current_on(self, edge: FlowEdge) -> float:
        for e, j in zip(self.edges, self.edge_currents):
            if e == edge:
                return float(j)
        return 0.0


def step(
    state: ChainState, edges: Sequence[FlowEdge], dt: float
) -> tuple[ChainState, CurrentReport]:
    """Advance the chain by dt along the active edges.

    ``edges`` must already exclude rule-blocked channels; whatever is
    passed here will carry flow. Transport is conservative to better
    than 1e-9 per call. Raises InvalidStep for dt <= 0.
    """
    if dt <= 0:
        raise InvalidStep(f"dt must be positive, got {dt}")
    sys_ = _system_for(state, edges)

    n_sub = 1
    if sys_.max_rate > 0:
        n_sub = max(1, int(np.ceil(dt * sys_.max_rate / SUBSTEP_CURRENT_CAP)))
    dt_sub = dt / n_sub
    P = sys_.propagator(dt_sub)

    m = state.masses
    subs = []
    t = state.time
    for _ in range(n_sub):
        m_next = P @ m
        subs.append(Substep(t, t + dt_sub, m, m_next))
        m = m_next
        t += dt_sub

    report = CurrentReport(
        t_start=state.time,
        t_end=state.time + dt,
        epoch=state.epoch,
        labels=state.labels,
        index=state._index,
        edges=sys_.edges,
        substeps=tuple(subs),
        _src_idx=sys_.src_idx,
        _rates=sys_.rates,
    )
    return state.with_masses(m, time=state.time + dt), report


def currents_into(report: CurrentReport, target: ComponentLabel) -> float:
    """Net positive inflow max(0, sum J_in - sum J_out) for one component."""
    idx = report.index.get(target)
    if idx is None:
        raise UnknownComponent(f"{target} does not appear in the report")
    return max(0.0, float(report.net_inflow[idx]))


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
    """Brute-force fine-step RK4 integration, for use as a test oracle.

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
