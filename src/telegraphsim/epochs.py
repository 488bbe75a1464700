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
when the slow stage follows it. As in the hit law, the lag density is
the current into the target. The densities of all sinks come from one
batched propagation of unit impulses at the weak edges' targets, made on
the first crossing query, so a template is immutable once built.

Both engines run every epoch on a CompiledEpoch: the flow system and
ready targets of one root atom's live ladder at the run's depth,
compiled once per run for a root with an empty photon ledger and shared
by its trajectories.
The ``steps`` engine also shares its HazardTables: the per-substep hit
hazards of the epoch's full steps from the root, grown in chunks of about
``HAZARD_CHUNK_SUBSTEPS`` substeps on first use by ``hazard_chunk``, which
also tabulates each step shorter than that.
Every table here is tabulated by one loop, ``propagate``. A template fills
its rows in blocks: per grid piece it forms the propagator's powers P, P^2,
..., P^B once (B from the number of labels, 64 at depth 2), and one batched
product of them with the masses fills B rows. The hazard tables take one
product per row (B = 1), because their floats must be those of
``flow.step``, which the ``steps`` engine's logs reproduce byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .configurations import EpochGraph
from .flow import FlowSystem
from .rules import hazards
from .state import ComponentLabel, EdgeKind

FAST_SPAN_EFOLDS = 60.0
TAIL_EFOLDS = 50.0
CELLS_PER_PIECE = 3000
#: Substeps a ``HazardTable`` grows by at a time, at most (one step if it has more).
HAZARD_CHUNK_SUBSTEPS = 1024


def _block_rows(n: int) -> int:
    """Rows of a template table that one batched product fills, for ``n`` labels.

    Forming P, P^2, ..., P^B costs about B n^3 flops a piece, against about
    n^2 a row for the products, so B shrinks as n grows: 64 up to 16 labels,
    7 at 131 (V at depth 32).
    """
    return max(1, min(64, 1024 // n))


def _powers(P: np.ndarray, b: int) -> np.ndarray:
    """P, P^2, ..., P^b stacked into one (b n, n) array.

    Each power is one product from the one before. Forming them by repeated
    squaring takes fewer products, but over ``tests/test_table_accuracy.py``'s
    cases the root's masses then strayed up to 1.1e-14 from ``flow.expm``,
    against 8.1e-15 this way.
    """
    n = len(P)
    Q = np.empty((b * n, n))
    Q[:n] = P
    for j in range(1, b):
        Q[j * n : (j + 1) * n] = P @ Q[(j - 1) * n : j * n]
    return Q


def propagate(
    m0: np.ndarray, pieces: Sequence[tuple[np.ndarray, int]], take=slice(None), block: int = 1
) -> np.ndarray:
    """Masses stepped through ``pieces`` and recorded after every product.

    Each piece (P, count) applies the propagator P ``count`` times in turn.
    ``m0`` is a mass vector or a matrix of mass columns. Row 0 holds
    ``m0[take]`` and row r holds ``m[take]`` after the r-th product.

    With ``block`` b > 1, P, P^2, ..., P^b are formed once per piece, and
    one product of that stack with the masses fills the next b rows; the
    block after starts from the last of them. With ``block=1`` every row is
    one product ``P @ m``, as ``flow.step`` takes it.
    """
    rows = np.empty((sum(count for _, count in pieces) + 1, *np.shape(m0[take])))
    rows[0] = m0[take]
    at = (slice(None), *take) if isinstance(take, tuple) else (slice(None), take)
    n = len(m0)
    m, r = m0, 1
    for P, count in pieces:
        b = min(block, count)
        if b <= 1:  # the block path's reshape and index would cost about 1 us more a row
            for _ in range(count):
                m = P @ m
                rows[r] = m[take]
                r += 1
            continue
        Q = _powers(P, b)
        for done in range(0, count, b):
            k = min(b, count - done)
            out = (Q[: k * n] @ m).reshape(k, *m.shape)
            rows[r : r + k] = out[at]
            m = out[-1]
            r += k
    return rows


@dataclass(frozen=True)
class CrossingStage:
    """One weak-photon-creating edge feeding a ready target."""

    target: int  # the edge's target, as a position in the template's labels
    flux_rate: np.ndarray  # rate * m_source(t) on the template grid
    lag_density: np.ndarray  # current into the sink from a unit impulse at ``target``


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

        self.grid, cells = self._build_grid()
        self._pieces = [(system.propagator(dt), n) for n, dt in cells]
        self._block = _block_rows(len(self.labels))
        self.masses = propagate(
            np.asarray(initial, dtype=np.float64), self._pieces, block=self._block
        )

        # with no sinks these are empty: (grid, 0), (0,) and (0,)
        self.delivered = np.maximum.accumulate(self.masses[:, self.sink_idx], axis=0)
        self.final_delivered = self.delivered[-1]
        self.cum_final = np.cumsum(self.final_delivered)
        self._cum_before = np.concatenate(([0.0], self.cum_final[:-1]))
        self._largest_sink = int(np.argmax(self.final_delivered)) if len(self.sink_labels) else 0
        # every sink's delivery column, one after another, as (sink, delivered)
        # keys: complex numbers order by real part first, so one search over
        # the keys searches each draw's own column
        self._keys = np.empty(self.delivered.size, dtype=np.complex128)
        self._keys.real = np.repeat(np.arange(len(self.sink_labels)), len(self.grid))
        self._keys.imag = self.delivered.T.ravel()
        self.conservation_residual = float(np.abs(self.masses.sum(axis=1) - 1.0).max())

    # -- construction -------------------------------------------------

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

    # -- hit sampling ---------------------------------------------------

    @property
    def has_sinks(self) -> bool:
        return len(self.sink_labels) > 0 and float(self.cum_final[-1]) > 0.0

    def sample_hits(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map uniform draws to (sink index, hit time), elementwise.

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
        return j, t

    def sample_hit(self, u: float) -> tuple[ComponentLabel, float]:
        """``sample_hits`` for one draw, returning the target's label."""
        j, t = self.sample_hits(np.array([u]))
        return self.sink_labels[int(j[0])], float(t[0])

    # -- realized weak-photon crossings --------------------------------

    @cached_property
    def crossing_stages(self) -> dict[ComponentLabel, tuple[CrossingStage, ...]]:
        """Each sink's stages, ordered by weak-photon count, from one batched pass.

        A stage is a ``WEAK_EMIT`` edge whose target reaches the sink. On the
        live ladder weak counts only grow along an edge and every branch ends
        at its first ready label, so the target reaches exactly the sinks of
        at least its weak count. Each weak edge has a target of its own, and
        one propagation carries a unit impulse at each, one column per edge.
        A stage's lag density is the current into its sink: the rate of the
        sink's one incoming edge times the impulse's mass at its source.
        """
        system = self.system
        deepest = max((sink.weak for sink in self.sink_labels), default=-1)
        weak = sorted(
            (i for i, e in enumerate(system.edges)
             if e.kind is EdgeKind.WEAK_EMIT and e.target.weak <= deepest),
            key=lambda i: system.edges[i].target.weak,
        )
        # (impulse column, sink position) of each stage
        pairs = [(c, p) for c, i in enumerate(weak) for p, sink in enumerate(self.sink_labels)
                 if system.edges[i].target.weak <= sink.weak]
        stages: dict[ComponentLabel, list[CrossingStage]] = {lab: [] for lab in self.sink_labels}
        if pairs:
            target = system.dst_idx[weak]
            impulses = np.zeros((len(self.labels), len(weak)))
            impulses[target, range(len(weak))] = 1.0
            cols, sinks = np.array(pairs).T
            # each pair's sink's incoming edges, which must be exactly one
            feeds, into = np.nonzero(system.dst_idx == self.sink_idx[sinks, None])
            if not np.array_equal(feeds, np.arange(len(pairs))):
                raise ValueError("a sink of a crossing stage has other than one incoming edge")
            feed = propagate(impulses, self._pieces, (system.src_idx[into], cols), self._block)
            dens = np.ascontiguousarray(feed.T * system.rates[into][:, None])  # a row per pair
            flux = [system.rates[i] * self.masses[:, system.src_idx[i]] for i in weak]
            for (c, p), lag in zip(pairs, dens):
                stages[self.sink_labels[p]].append(CrossingStage(int(target[c]), flux[c], lag))
        return {sink: tuple(st) for sink, st in stages.items()}

    def crossing_times(self, sink: ComponentLabel, tau: float) -> list[tuple[int, float]]:
        """Flux-weighted median emission time of each realized weak photon.

        For a hit on ``sink`` at epoch time ``tau``, each weak edge on
        the realized path contributes a crossing-time density
        flux(c) * lag(tau - c); its weighted median is returned per
        stage, ordered by weak-photon count, with the edge's target as a
        position in ``labels``.
        """
        stages = self.crossing_stages[sink]
        return [(st.target, self._conditional_median(st, tau)) for st in stages]

    def _conditional_median(self, stage: CrossingStage, tau: float) -> float:
        # Candidate crossing times from both natural grids: the flux
        # curve's own grid and the lag grid reflected about tau. This
        # keeps resolution fine wherever either factor varies quickly.
        # Both runs ascend within [0, tau], so a stable sort merges them,
        # and dropping repeats leaves the distinct candidates in order.
        below = self.grid[: np.searchsorted(self.grid, tau, side="right")]
        cand = np.sort(np.concatenate([below, tau - below[::-1]]), kind="stable")
        cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
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


@dataclass(frozen=True)
class HazardChunk:
    """Steps of one size from a mass vector, as ``flow.step`` would take them.

    ``drift_max[i]`` is the largest |total mass - 1| after any of steps 0
    to i, a running maximum taken once per chunk. Every pass over a chunk
    starts at its step 0, so one read gives the worst drift of the steps it
    took, and the first step whose drift passes a tolerance is the first
    at which the running maximum does, with the same value.
    """

    start: np.ndarray  # every mass at the first step boundary
    n_sub: int  # substeps per step
    dt_sub: float  # the substeps' length
    ready: np.ndarray  # ready-target masses at each substep boundary, one row each
    hazard: np.ndarray  # ``rules.hazards`` of ``ready``: one per substep
    drift_max: np.ndarray  # running maximum of |total mass - 1| after each step


def hazard_chunk(
    system: FlowSystem, ready_idx: Sequence[int], start: np.ndarray, dt: float, steps: int
) -> tuple[HazardChunk, np.ndarray]:
    """``steps`` steps of ``dt`` from the masses ``start``, and every mass after them.

    The substeps and their propagator are ``flow.step``'s, so the floats are
    those of ``steps`` calls of ``flow.step``.
    """
    n_sub = system.substeps(dt)
    dt_sub = dt / n_sub
    rows = propagate(start, [(system.propagator(dt_sub), steps * n_sub)])
    drift_max = np.maximum.accumulate(np.abs(rows[n_sub::n_sub].sum(axis=1) - 1.0))
    ready = rows[:, np.array(ready_idx, dtype=np.intp)]
    return HazardChunk(start, n_sub, dt_sub, ready, hazards(ready), drift_max), rows[-1].copy()


class HazardTable:
    """Per-substep hit hazards of an epoch stepped from its root in full steps of ``dt``.

    Every epoch of a compiled epoch starts with all mass at its root, so the
    masses after k steps, and with them the trigger's hazards, are the same
    in every epoch of every trajectory. The table steps them once, in chunks
    grown on first use by ``hazard_chunk``. A chunk holds ``steps`` steps,
    as many whole steps as fit in ``HAZARD_CHUNK_SUBSTEPS`` substeps and at
    least one, so its rows do not grow with ``dt``. It keeps the
    ready-target masses per substep, not every mass: a chunk keeps every
    mass only at its start.
    """

    def __init__(self, system: FlowSystem, ready_idx: Sequence[int], root: np.ndarray, dt: float):
        self._system = system
        self._ready_idx = ready_idx
        self._dt = dt
        self.steps = max(1, HAZARD_CHUNK_SUBSTEPS // system.substeps(dt))
        self._chunks: list[HazardChunk] = []
        self._next = root  # every mass at the start of the next chunk

    def chunk(self, c: int) -> HazardChunk:
        """Chunk ``c``, which covers full steps ``c * steps`` onwards."""
        while len(self._chunks) <= c:
            chunk, self._next = hazard_chunk(
                self._system, self._ready_idx, self._next, self._dt, self.steps
            )
            self._chunks.append(chunk)
        return self._chunks[c]

    def masses_at(self, k: int) -> np.ndarray:
        """Every mass after ``k`` full steps, re-stepped from its chunk's start."""
        c, off = divmod(k, self.steps)
        chunk = self.chunk(c)
        P = self._system.propagator(chunk.dt_sub)
        return propagate(chunk.start, [(P, off * chunk.n_sub)])[-1].copy()


class CompiledEpoch:
    """One epoch's flow problem for a canonical root (photon ledger zero).

    The rules stall the chain at the first ready component until a hit
    lands there, so within an epoch the flow graph is fixed, and from one
    epoch to the next it only translates with the root's photon ledger.
    An epoch is therefore compiled once per root atom and depth: the graph,
    one FlowSystem over its labels and edges as ``build_epoch`` returns
    them (whose propagators every step and the template share), every
    label's atom and photon ledger as arrays, and the ready targets in
    chain order, with their slices of those arrays. The root is label 0,
    so ``atoms[0]`` is its atom. The graph is the live ladder:
    ``build_epoch`` takes no move out of a ready label, since Rule (4)
    blocks every edge out of one, so every edge is active. The engines run
    on these canonical labels; the trajectory loop adds the root's ledger
    to what it records.
    The template and the hazard tables, one per step size, are built on
    first use.
    """

    def __init__(self, graph: EpochGraph):
        self.graph = graph
        self.system = FlowSystem(graph.labels, graph.edges)
        self.ready = tuple(lab for lab in self.system.labels if lab.ready)
        self.ready_idx = tuple(self.system.index[lab] for lab in self.ready)
        # each label's atom and photon ledger (clicks, strong, weak), and the ready targets'
        labels = self.system.labels
        self.atoms = np.array([lab.atom.value for lab in labels], dtype=np.int64)
        self.ledgers = np.array(
            [(lab.clicks, lab.strong, lab.weak) for lab in labels], dtype=np.int64
        ).reshape(-1, 3)
        self.sink_atoms = self.atoms[list(self.ready_idx)]
        self.sink_ledger = self.ledgers[list(self.ready_idx)]
        self.root_masses = np.zeros(len(self.system.labels))
        self.root_masses[0] = 1.0  # build_epoch lists the root first
        self._hazards: dict[float, HazardTable] = {}

    @cached_property
    def template(self) -> EpochTemplate:
        """Delivery curves of an epoch that starts with all mass at the root."""
        return EpochTemplate(self.system, self.ready, self.root_masses)

    def hazards(self, dt: float) -> HazardTable:
        """The hazard table of this epoch's full steps of ``dt``, built on first use."""
        table = self._hazards.get(dt)
        if table is None:
            table = self._hazards[dt] = HazardTable(
                self.system, self.ready_idx, self.root_masses, dt
            )
        return table
