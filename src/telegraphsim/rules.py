"""Ready-marking, edge blocking, and the stochastic trigger.

The mechanism in brief: components that record a new detector click are
decoherent, so their states become *ready* (potential collapse basis).
Flow between two ready components is forbidden (Rule 4), which stalls
the chain at the first ready component until a stochastic hit lands
there. The hit rate into a ready component equals the probability
current flowing into it, so the total hit probability over an epoch
equals the mass delivered: full delivery makes the hit certain, a
dormant (zero-inflow) phantom is never hit.

``trigger`` samples a hit per step, one uniform per substep; the engines
decide the same hits from ``hazards``, tabulated once per step size, and
``substep_hit``. A hit realizes its target, unmarked, as the root of the
next epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .flow import CurrentReport
from .state import ChainState, ComponentLabel, FlowEdge

_TINY = np.finfo(float).tiny


def is_decoherent(parent: ComponentLabel, child: ComponentLabel) -> bool:
    """Whether a newly created child component is decoherent.

    A new detector record (click count differs from the parent) makes a
    component macroscopically distinct; descendants of a ready component
    stay in the decoherent sector even when the detector is untouched.
    """
    return parent.ready or child.clicks != parent.clicks


def active_edges(state: ChainState) -> tuple[FlowEdge, ...]:
    """The flow edges that carry mass: all but those between two ready components.

    Rule (4) forbids flow between two ready components, so such an edge
    carries exactly zero flow; it is left out before stepping rather than
    clamped numerically. A graph built without ready marks (the
    no-observer mode) blocks nothing, so all of its edges are active.
    """
    return tuple(e for e in state.edges if not (e.source.ready and e.target.ready))


@dataclass(frozen=True)
class HitEvent:
    """A stochastic hit: the collapse choice made at one instant."""

    time: float
    target: ComponentLabel
    epoch: int
    delivered_mass_at_hit: float


def substep_hit(
    m_start: Sequence[float], m_end: Sequence[float], ready_idx: Iterable[int], u: float
) -> Optional[int]:
    """The position in ``ready_idx`` that uniform ``u`` hits over one sub-interval, or None.

    ``m_start`` and ``m_end`` are the masses at the sub-interval's ends. The
    sub-interval hits target j when ``u`` falls in its share delta_j / survival
    of the hazard total / survival (see ``trigger``); the sums run over the
    targets in order.
    """
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
    if not u < total / survival:
        return None
    acc = 0.0
    for k, d in enumerate(deltas):
        acc += d / survival
        if u < acc:
            return k
    return len(deltas) - 1


def hazards(ready: np.ndarray) -> np.ndarray:
    """The hazard total / survival of each sub-interval of a run of ready-target masses.

    Row k of ``ready`` holds the targets' masses at the k-th substep
    boundary, one column per target in ``ready_idx`` order, so rows k and
    k + 1 bracket sub-interval k. The arithmetic is ``substep_hit``'s, in
    the same order, so ``u < hazards(ready)[k]`` holds exactly when
    ``substep_hit`` finds a hit in sub-interval k with the same ``u``.
    """
    start, end = ready[:-1], ready[1:]
    held = np.zeros(len(start))
    total = np.zeros(len(start))
    for i in range(ready.shape[1]):
        held += start[:, i]
        d = end[:, i] - start[:, i]
        d[d < 0.0] = 0.0
        total += d
    survival = 1.0 - held
    dry = survival <= 0.0
    survival[dry] = np.where(_TINY > total[dry], _TINY, total[dry])
    return total / survival


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

    ``ready_idx`` holds the targets' chain positions in chain order, as
    ``CompiledEpoch.ready_idx`` does; they are resolved once per epoch, not
    per step.
    Whenever ``ready_idx`` is non-empty, live or dormant targets alike,
    it consumes exactly one ``rng.random()`` per sub-interval, in time
    order, up to and including the one that hits; an empty ``ready_idx``
    consumes none. At most one hit is returned per call.
    """
    if not ready_idx:
        return None
    for sub in report.substeps:
        j = substep_hit(sub.m_start, sub.m_end, ready_idx, rng.random())
        if j is not None:
            target = ready_idx[j]
            return HitEvent(
                time=0.5 * (sub.t_start + sub.t_end),
                target=report.labels[target],
                epoch=report.epoch,
                delivered_mass_at_hit=float(sub.m_end[target]),
            )
    return None

