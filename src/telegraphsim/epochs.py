"""Precomputed per-epoch flow solutions and event-time sampling.

Within one epoch the active flow graph is fixed and linear, and every
ready component is absorbing (its outgoing edges are blocked), so the
mass delivered into ready target j by time t is just m_j(t). The hit
law makes the unconditional density of the collapse equal to the
current into each target, hence:

    P(hit lands on j)            = m_j(infinity)
    P(hit on j before t | on j)  = m_j(t) / m_j(infinity)

An EpochTemplate tabulates the m_j(t) curves once on a two-piece grid
(fine over the fast transient, coarse over the slow weak-cycle tail)
and then samples the epoch-ending hit (target, time) exactly from one
uniform draw by inverting the stacked delivery curves (an array of draws
is inverted at once). This is the same law the per-step trigger
implements; the two routes are cross-checked statistically in the tests.

The template also reconstructs, for a hit at time tau, where the
realized history's weak photon was emitted: the crossing-time density
of the mass parcel arriving at the hit is proportional to

    flux across the weak edge at c   *   lag density of the path
                                          from the edge to the target
                                          evaluated at (tau - c)

whose weighted median localizes the emission at the end of the dark
period when the slow stage precedes the weak edge, and at the beginning
when the slow stage follows it.

Both engines run every epoch on a CompiledEpoch: the graph, flow system
and ready targets of one (root atom, depth), compiled once per run for
a root with an empty photon ledger and shared by the run's trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .configurations import EpochGraph
from .flow import FlowSystem
from .state import ChainState, ComponentLabel, EdgeKind, FlowEdge

FAST_SPAN_EFOLDS = 60.0
TAIL_EFOLDS = 50.0
CELLS_PER_PIECE = 3000


@dataclass(frozen=True)
class CrossingStage:
    """One weak-photon-creating edge feeding a ready target."""

    edge: FlowEdge
    flux_rate: np.ndarray  # rate * m_source(t) on the template grid
    lag_density: np.ndarray  # arrival density at the target of a unit impulse


class EpochTemplate:
    """Tabulated solution of one epoch's transport problem."""

    def __init__(
        self,
        system: FlowSystem,
        ready_labels: Sequence[ComponentLabel],
        initial: np.ndarray,
    ):
        self.system = system
        self.labels = self.system.labels
        self.index = self.system.index
        self.sink_labels = tuple(ready_labels)
        self.sink_idx = np.array(
            [self.index[lab] for lab in self.sink_labels], dtype=np.intp
        )
        # each sink's atom and photon ledger (clicks, strong, weak), as arrays
        self.sink_atoms = np.array([lab.atom.value for lab in self.sink_labels], dtype=np.int64)
        self.sink_ledger = np.array(
            [(lab.clicks, lab.strong, lab.weak) for lab in self.sink_labels], dtype=np.int64
        ).reshape(-1, 3)

        self.grid, self._piece_props = self._build_grid()
        self.masses = self._propagate(np.asarray(initial, dtype=np.float64))

        if len(self.sink_labels):
            delivered = self.masses[:, self.sink_idx]
            self.delivered = np.maximum.accumulate(delivered, axis=0)
            self.final_delivered = self.delivered[-1]
            self.cum_final = np.cumsum(self.final_delivered)
        else:
            self.delivered = np.zeros((len(self.grid), 0))
            self.final_delivered = np.zeros(0)
            self.cum_final = np.zeros(0)
        self._cum_before = np.concatenate(([0.0], self.cum_final[:-1]))
        self._largest_sink = int(np.argmax(self.final_delivered)) if len(self.sink_labels) else 0
        # every sink's delivery column, one after another, as (sink, delivered)
        # keys: complex numbers order by real part first, so one search over
        # the keys searches each draw's own column
        self._keys = np.empty(self.delivered.size, dtype=np.complex128)
        self._keys.real = np.repeat(np.arange(len(self.sink_labels)), len(self.grid))
        self._keys.imag = self.delivered.T.ravel()
        self.conservation_residual = float(np.abs(self.masses.sum(axis=1) - 1.0).max())
        self._stage_cache: dict[ComponentLabel, list[CrossingStage]] = {}

    # -- construction -------------------------------------------------

    @classmethod
    def from_chain(cls, state: ChainState, active: Sequence[FlowEdge]) -> "EpochTemplate":
        ready = tuple(lab for lab in state.labels if lab.ready.any())
        return cls(FlowSystem(state.labels, active), ready, state.masses)

    def _build_grid(self) -> tuple[np.ndarray, list[tuple[int, float]]]:
        outflow = -np.diag(self.system.generator)
        flowing = outflow[outflow > 0]
        if flowing.size == 0:
            return np.array([0.0, 1.0]), [(1, 1.0)]
        k_max = float(flowing.max())
        k_min = float(flowing.min())
        t_end = TAIL_EFOLDS / k_min
        fast_end = min(FAST_SPAN_EFOLDS / k_max, t_end)
        pieces = [(CELLS_PER_PIECE, fast_end / CELLS_PER_PIECE)]
        grid = [np.linspace(0.0, fast_end, CELLS_PER_PIECE + 1)]
        if t_end > fast_end * (1 + 1e-12):
            dt2 = (t_end - fast_end) / CELLS_PER_PIECE
            pieces.append((CELLS_PER_PIECE, dt2))
            grid.append(fast_end + dt2 * np.arange(1, CELLS_PER_PIECE + 1))
        return np.concatenate(grid), pieces

    def _propagate(self, m0: np.ndarray) -> np.ndarray:
        out = np.empty((len(self.grid), len(self.labels)))
        out[0] = m0
        m = m0
        row = 1
        for n_cells, dt in self._piece_props:
            P = self.system.propagator(dt)
            for _ in range(n_cells):
                m = P @ m
                out[row] = m
                row += 1
        return out

    # -- hit sampling ---------------------------------------------------

    @property
    def has_sinks(self) -> bool:
        return len(self.sink_labels) > 0 and float(self.cum_final[-1]) > 0.0

    def sample_hits(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map uniform draws to (sink index, hit time, delivered mass at hit), elementwise.

        The stacked per-target delivery curves are inverted, so target
        marginals equal the final delivered masses and the hit-time law
        conditional on the target follows that target's delivery curve.
        The sink index points into ``sink_labels``.
        """
        u = np.asarray(u, dtype=np.float64)
        # residual beyond the tabulated horizon (~1e-20): the largest sink at the last time
        beyond = u >= self.cum_final[-1]
        j = np.where(
            beyond, self._largest_sink, np.searchsorted(self.cum_final, u, side="right")
        )
        v = u - self._cum_before[j]
        key = np.empty(u.shape, dtype=np.complex128)
        key.real = j
        key.imag = v
        n = len(self.grid)
        # clamp each draw's column position to [1, n - 1]
        k = np.minimum(np.maximum(np.searchsorted(self._keys, key, side="left") - j * n, 1), n - 1)
        lo, hi = self.delivered[k - 1, j], self.delivered[k, j]
        flat = hi <= lo
        frac = np.where(flat, 0.0, (v - lo) / np.where(flat, 1.0, hi - lo))
        t0, t1 = self.grid[k - 1], self.grid[k]
        t = np.where(beyond, self.grid[-1], t0 + frac * (t1 - t0))
        return j, t, np.where(beyond, self.final_delivered[j], v)

    def sample_hit(self, u: float) -> tuple[ComponentLabel, float, float]:
        """``sample_hits`` for one draw, returning the target's label."""
        j, t, delivered = self.sample_hits(np.array([u]))
        return self.sink_labels[int(j[0])], float(t[0]), float(delivered[0])

    # -- realized weak-photon crossings --------------------------------

    def _descendants(self, start: ComponentLabel) -> set[ComponentLabel]:
        adj: dict[ComponentLabel, list[ComponentLabel]] = {}
        for e in self.system.edges:
            adj.setdefault(e.source, []).append(e.target)
        seen = {start}
        stack = [start]
        while stack:
            lab = stack.pop()
            for nxt in adj.get(lab, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def _stages(self, sink: ComponentLabel) -> list[CrossingStage]:
        stages = self._stage_cache.get(sink)
        if stages is not None:
            return stages
        stages = []
        cells = np.diff(self.grid)
        for e in self.system.edges:
            if e.kind is not EdgeKind.WEAK_EMIT:
                continue
            if sink not in self._descendants(e.target):
                continue
            flux = self.system.rates[self.system.edges.index(e)] * self.masses[
                :, self.index[e.source]
            ]
            impulse = np.zeros(len(self.labels))
            impulse[self.index[e.target]] = 1.0
            lag_cum = self._propagate(impulse)[:, self.index[sink]]
            lag_cum = np.maximum.accumulate(lag_cum)
            dens = np.zeros_like(lag_cum)
            dens[1:] = np.diff(lag_cum) / cells
            stages.append(CrossingStage(edge=e, flux_rate=flux, lag_density=dens))
        stages.sort(key=lambda s: s.edge.target.weak)
        self._stage_cache[sink] = stages
        return stages

    def crossing_times(
        self, sink: ComponentLabel, tau: float
    ) -> list[tuple[FlowEdge, float]]:
        """Flux-weighted median emission time of each realized weak photon.

        For a hit on ``sink`` at epoch time ``tau``, each weak edge on
        the realized path contributes a crossing-time density
        flux(c) * lag(tau - c); its weighted median is returned per
        stage, ordered by weak-photon count.
        """
        out = []
        for stage in self._stages(sink):
            c = self._conditional_median(stage, tau)
            out.append((stage.edge, c))
        return out

    def _conditional_median(self, stage: CrossingStage, tau: float) -> float:
        # Candidate crossing times from both natural grids: the flux
        # curve's own grid and the lag grid reflected about tau. This
        # keeps resolution fine wherever either factor varies quickly.
        cand = np.concatenate([self.grid, tau - self.grid])
        cand = np.unique(np.clip(cand[(cand >= 0.0) & (cand <= tau)], 0.0, tau))
        if cand.size < 2:
            return tau
        flux = np.interp(cand, self.grid, stage.flux_rate)
        lag = np.interp(tau - cand, self.grid, stage.lag_density)
        dens = flux * lag
        # Trapezoid cell masses, then the interpolated median time.
        w = 0.5 * (dens[1:] + dens[:-1]) * np.diff(cand)
        total = float(w.sum())
        if total <= 0.0:
            return tau
        cum = np.cumsum(w)
        half = 0.5 * total
        k = int(np.searchsorted(cum, half))
        lo = cum[k - 1] if k > 0 else 0.0
        span = cum[k] - lo
        frac = 0.0 if span <= 0 else (half - lo) / span
        return float(cand[k] + frac * (cand[k + 1] - cand[k]))


class CompiledEpoch:
    """One epoch's flow problem for a canonical root (photon ledger zero).

    The rules stall the chain at the first ready component until a hit
    lands there, so within an epoch the flow graph is fixed, and from one
    epoch to the next it only translates with the root's photon ledger.
    An epoch is therefore compiled once per (root atom, depth): the graph,
    one FlowSystem over its active edges (whose propagators every step and
    the template share), and the ready targets in chain order. The engines
    run on these canonical labels and shift what they record by the root.
    """

    def __init__(self, graph: EpochGraph, active: Sequence[FlowEdge]):
        self.graph = graph
        self.system = FlowSystem(graph.labels, active)
        self.ready = graph.ready_labels
        self.ready_idx = tuple(self.system.index[lab] for lab in self.ready)
        self.frontier_idx = sorted(self.system.index[lab] for lab in graph.frontier)
        self.root_masses = np.zeros(len(graph.labels))
        self.root_masses[0] = 1.0  # build_epoch lists the root first
        # the next-deeper epoch of the same root and where each label sits in it
        self.deeper: Optional[tuple[CompiledEpoch, np.ndarray]] = None

    @cached_property
    def template(self) -> EpochTemplate:
        """Delivery curves of an epoch that starts with all mass at the root."""
        return EpochTemplate(self.system, self.ready, self.root_masses)

    def chain(
        self, time: float, epoch: int, masses: Optional[np.ndarray] = None
    ) -> ChainState:
        """A chain on this epoch's labels; ``flow.step`` it with ``self.system``."""
        return ChainState(
            self.graph.labels,
            self.root_masses if masses is None else masses,
            self.graph.edges,
            time=time,
            epoch=epoch,
        )

    def index_in(self, deeper: "CompiledEpoch") -> np.ndarray:
        """Where each label sits in a deeper build of the same root.

        Deeper builds only raise the budgets, so they keep every label and
        copying masses through this map carries all of them.
        """
        return np.array([deeper.system.index[lab] for lab in self.graph.labels], dtype=np.intp)
