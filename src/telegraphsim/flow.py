"""Probability-mass transport over the component flow graph.

The transport law is unidirectional first-order kinetics: along an edge
with rate k, mass leaves the source at k * m_source. Within one epoch
the active edge set is constant, so the evolution is a linear ODE
m' = A m with a conservative generator (columns of A sum to zero). The
stepper applies the exact matrix-exponential propagator, which keeps
total mass to machine precision; a fine-step RK4 oracle provides an
independent numerical route for tests.

The propagators come from ``expm``, a scaling-and-squaring Pade
exponential on numpy alone, cached per step size on the ``FlowSystem``
of one label ordering and active edge set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidStep, OracleUnsupported
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
        }[kind]


# Higham (2005): the largest 1-norm at which the [m/m] Pade
# approximant of exp is accurate to double precision, and its coefficients.
_PADE_THETA = (
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068e0),
    (13, 5.371920351148152e0),
)
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """The [m/m] Pade approximant r = (V - U)^-1 (V + U) of exp(a)."""
    b = _PADE_COEFFS[m]
    ident = np.eye(len(a))
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    else:
        even = [ident, a2]  # a^0, a^2, ..., a^(m-1)
        while len(even) < (m + 1) // 2:
            even.append(even[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(even))
        v = sum(b[2 * k] * p for k, p in enumerate(even))
    return np.linalg.solve(v - u, v + u)


def _exact_bidiagonal(r: np.ndarray, t: np.ndarray) -> None:
    """Overwrite the diagonal and first subdiagonal of r ~ exp(t) by their closed forms.

    ``t`` is lower triangular, so exp(t) has diagonal exp(t_ii) and first
    subdiagonal t_(i+1)i (e^a - e^b) / (a - b) with a, b = t_ii, t_(i+1)(i+1)
    (Higham, Functions of Matrices, 2008, eq. 10.42), evaluated here as
    e^hi expm1(lo - hi) / (lo - hi), which neither cancels nor overflows.
    """
    lam = np.diag(t)
    n = len(lam)
    r[np.diag_indices(n)] = np.exp(lam)
    hi = np.maximum(lam[:-1], lam[1:])
    d = np.minimum(lam[:-1], lam[1:]) - hi
    quotient = np.ones_like(d)
    nonzero = d != 0
    quotient[nonzero] = np.expm1(d[nonzero]) / d[nonzero]
    r[np.arange(1, n), np.arange(n - 1)] = np.diag(t, -1) * np.exp(hi) * quotient


def expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential of a square float array.

    Scaling and squaring with a Pade approximant (Higham, SIAM J. Matrix
    Anal. Appl. 26(4), 2005): the lowest degree m whose threshold bounds
    the 1-norm of ``a``; above the degree-13 threshold, ``a`` is scaled
    by 2^-s to within it and the result squared s times. When ``a`` is
    lower triangular (every generator whose labels are in flow order),
    the diagonal and first subdiagonal are set to their closed forms
    before and after each squaring (Al-Mohy and Higham, SIAM J. Matrix
    Anal. Appl. 31(3), 2009, Code Fragment 2.1), so that the rounding
    errors of the slow diagonal entries do not double s times.
    """
    a = np.asarray(a, dtype=np.float64)
    norm = float(np.abs(a).sum(axis=0).max())
    for m, theta in _PADE_THETA:
        if norm <= theta:
            return _pade(a, m)
    s = int(np.ceil(np.log2(norm / theta)))  # theta is degree 13's, and norm > theta
    t = a * 0.5**s
    r = _pade(t, 13)
    if np.triu(a, 1).any():
        for _ in range(s):
            r = r @ r
        return r
    _exact_bidiagonal(r, t)
    for _ in range(s):
        r = r @ r
        t = 2.0 * t
        _exact_bidiagonal(r, t)
    return np.tril(r)


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
    state: ChainState,
    edges: Sequence[FlowEdge],
    dt: float,
    system: Optional[FlowSystem] = None,
) -> tuple[ChainState, CurrentReport]:
    """Advance the chain by dt along the active edges.

    ``edges`` must already exclude rule-blocked channels; whatever is
    passed here will carry flow. ``system`` is the ``FlowSystem`` of the
    state's labels and these edges, which keeps its propagators across
    calls; without it one is built for this call. Transport is
    conservative to better than 1e-9 per call. Raises InvalidStep for
    dt <= 0.
    """
    if dt <= 0:
        raise InvalidStep(f"dt must be positive, got {dt}")
    sys_ = FlowSystem(state.labels, edges) if system is None else system

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
