"""Ready-marking, edge blocking, the stochastic trigger, and collapse.

The mechanism in brief: components that record a new detector click are
decoherent, so their states become *ready* (potential collapse basis).
Flow between two components that both hold ready states of the same
object is forbidden, which stalls the chain at the first ready
component until a stochastic hit lands there. The hit rate into a ready
component equals the probability current flowing into it, so the total
hit probability over an epoch equals the mass delivered: full delivery
makes the hit certain, a dormant (zero-inflow) phantom is never hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Set

import numpy as np

from .errors import IllegalHit
from .flow import CurrentReport
from .state import ChainState, ComponentLabel, FlowEdge

_TINY = np.finfo(float).tiny


def is_decoherent(parent: ComponentLabel, child: ComponentLabel) -> bool:
    """Whether a newly created child component is decoherent.

    A new detector record (click count differs from the parent) makes a
    component macroscopically distinct; descendants of a ready component
    stay in the decoherent sector even when the detector is untouched.
    """
    return parent.ready.any() or child.clicks != parent.clicks


def mark_ready(
    parent: ComponentLabel, child: ComponentLabel, decoherent: bool
) -> ComponentLabel:
    """Mark the atom and detector states of a decoherent new component."""
    if decoherent:
        return child.with_marks()
    return child


def blocked_edges(state: ChainState) -> Set[FlowEdge]:
    """Edges forbidden because both endpoints hold a ready state of the same object.

    These carry exactly zero flow; they are excluded from the active set
    before stepping rather than clamped numerically.
    """
    blocked = set()
    for e in state.edges:
        s, t = e.source.ready, e.target.ready
        if (s.atom_ready and t.atom_ready) or (s.detector_ready and t.detector_ready):
            blocked.add(e)
    return blocked


def active_edges(state: ChainState) -> tuple[FlowEdge, ...]:
    """The flow edges that actually carry mass this epoch.

    A graph built without ready marks (the no-observer mode) blocks
    nothing, so all of its edges are active.
    """
    dead = blocked_edges(state)
    return tuple(e for e in state.edges if e not in dead)


@dataclass(frozen=True)
class HitEvent:
    """A stochastic hit: the collapse choice made at one instant."""

    time: float
    target: ComponentLabel
    epoch: int
    delivered_mass_at_hit: float


def ready_indices(
    labels: Sequence[ComponentLabel], ready_targets: Iterable[ComponentLabel]
) -> tuple[int, ...]:
    """Positions of the ready targets among a chain's labels, in chain order."""
    ready = set(ready_targets)
    return tuple(i for i, lab in enumerate(labels) if lab in ready)


def trigger(
    report: CurrentReport,
    ready_idx: Sequence[int],
    dt: float,
    rng: np.random.Generator,
) -> Optional[HitEvent]:
    """Sample at most one hit over the step covered by ``report``.

    Ready components are absorbing while blocked, so the mass delivered
    into target j by time t is exactly its accumulated mass. Each
    sub-interval hits j with conditional probability delta_j / survival,
    where survival is the mass not yet delivered to any ready target;
    the products telescope so the unconditional chance that the epoch's
    hit lands on j in [t, t+dt] equals the mass delivered there during
    [t, t+dt]. Full delivery therefore guarantees a hit, and a target
    with zero inflow (a dormant phantom) is never chosen regardless of
    its frozen mass.

    ``ready_idx`` holds the targets' chain positions in chain order (see
    ``ready_indices``); they are resolved once per epoch, not per step.
    Consumes exactly one uniform per sub-interval when any target is
    live, in time order; at most one hit is returned per call.
    """
    if not ready_idx:
        return None
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
            t_hit = 0.5 * (sub.t_start + sub.t_end)
            return HitEvent(
                time=t_hit,
                target=report.labels[ready_idx[j]],
                epoch=report.epoch,
                delivered_mass_at_hit=float(m_end[ready_idx[j]]),
            )
    return None


def collapse(state: ChainState, hit: HitEvent) -> ChainState:
    """Reduce every other component to zero and realize the hit target.

    The realized component keeps its photon ledger, loses its ready
    marks, carries mass exactly 1.0, and seeds the next epoch's graph.
    """
    if hit.target not in state:
        raise IllegalHit(f"{hit.target} is not a component of this chain")
    if not hit.target.ready.any():
        raise IllegalHit(f"{hit.target} carries no ready marks")
    realized = hit.target.without_marks()
    return ChainState(
        labels=(realized,),
        masses=(1.0,),
        edges=(),
        time=hit.time,
        epoch=state.epoch + 1,
    )
