"""Per-epoch flow graphs for the four 3-level configurations.

Each configuration fixes which side of each transition the laser drives
first:

* V          -- both excited levels above ground: strong side absorbs
                then emits; the weak cycle absorbs then emits, so the
                weak photon appears at the END of the weak cycle.
* Lambda     -- both levels below ground: the atom decays first and is
                pumped back, on both sides; the weak photon appears at
                the BEGINNING of the weak cycle.
* Cascade up -- weak level above ground (weak cycle like V), strong
                level below (strong side like Lambda).
* Cascade down -- strong level above ground (strong side like V), weak
                level below (weak cycle like Lambda).

Graphs are built breadth-first from the epoch root up to a depth budget
(detector clicks and weak-photon count each at most ``depth`` above the
root) with ready marks assigned along the way; labels whose expansion
was cut off form the frontier, where mass that reaches them stays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidDepth, NotExtensible
from .flow import RateSet
from .rules import is_decoherent, mark_ready
from .state import (
    AtomLevel,
    ChainState,
    ComponentLabel,
    EdgeKind,
    FlowEdge,
    make_label,
)


class Configuration(Enum):
    V = "v"
    LAMBDA = "lambda"
    CASCADE_WEAK_UP = "cascade_weak_up"
    CASCADE_WEAK_DOWN = "cascade_weak_down"


class LaserDrive(Enum):
    STRONG_ONLY = "strong_only"
    WEAK_ONLY = "weak_only"
    BOTH = "both"


@dataclass(frozen=True)
class ConfigKind:
    """A level configuration plus which lasers are switched on."""

    configuration: Configuration
    lasers: LaserDrive = LaserDrive.BOTH

    @property
    def strong_on(self) -> bool:
        return self.lasers is not LaserDrive.WEAK_ONLY

    @property
    def weak_on(self) -> bool:
        return self.lasers is not LaserDrive.STRONG_ONLY

    @property
    def strong_absorb_first(self) -> bool:
        """Strong side pumps up before emitting (excited level above ground)."""
        return self.configuration in (Configuration.V, Configuration.CASCADE_WEAK_DOWN)

    @property
    def weak_absorb_first(self) -> bool:
        """Weak side pumps up before emitting (weak level above ground)."""
        return self.configuration in (Configuration.V, Configuration.CASCADE_WEAK_UP)


@dataclass(frozen=True)
class EpochGraph:
    """The component graph of one epoch, truncated at a depth budget."""

    kind: ConfigKind
    rates: RateSet
    depth: int
    root: ComponentLabel
    labels: tuple[ComponentLabel, ...]
    edges: tuple[FlowEdge, ...]
    frontier: frozenset[ComponentLabel]
    marks: bool = True


def build_epoch(
    kind: ConfigKind,
    root: ComponentLabel,
    rates: RateSet,
    depth: int,
    marks: bool = True,
) -> EpochGraph:
    """Construct the epoch graph rooted at a realized label.

    The root is taken as realized (its marks, if any, are stripped).
    Ready components are extended along the strong cycle only: their
    weak sub-branches would sit behind blocked edges and never carry
    mass. With ``marks`` False (no observer) no component is marked
    ready, so nothing is blocked and no hit can land. Raises
    InvalidDepth for depth < 1.
    """
    if depth < 1:
        raise InvalidDepth(f"depth must be at least 1, got {depth}")
    root = root.without_marks()
    clicks_budget = root.clicks + depth
    weak_budget = root.weak + depth

    labels: list[ComponentLabel] = [root]
    seen = {root}
    edges: list[FlowEdge] = []
    edge_seen = set()
    frontier: set[ComponentLabel] = set()
    queue = [root]

    def attach(parent: ComponentLabel, raw_child: ComponentLabel, ekind: EdgeKind) -> None:
        decoherent = marks and is_decoherent(parent, raw_child)
        child = mark_ready(parent, raw_child, decoherent)
        if child not in seen:
            seen.add(child)
            labels.append(child)
            queue.append(child)
        edge = FlowEdge(parent, child, rates.rate_for(ekind), ekind)
        if edge not in edge_seen:
            edge_seen.add(edge)
            edges.append(edge)

    while queue:
        lab = queue.pop(0)
        a = lab.atom
        if a is AtomLevel.GROUND:
            if kind.strong_on:
                if kind.strong_absorb_first:
                    attach(
                        lab,
                        make_label(AtomLevel.STRONG, lab.clicks, lab.strong, lab.weak, lab.ready),
                        EdgeKind.STRONG_ABSORB,
                    )
                elif lab.clicks + 1 <= clicks_budget:
                    attach(
                        lab,
                        make_label(AtomLevel.STRONG, lab.clicks + 1, lab.strong + 1, lab.weak),
                        EdgeKind.STRONG_EMIT,
                    )
                else:
                    frontier.add(lab)
            if kind.weak_on and not lab.ready.any():
                if lab.weak + 1 <= weak_budget:
                    if kind.weak_absorb_first:
                        attach(
                            lab,
                            make_label(AtomLevel.WEAK, lab.clicks, lab.strong, lab.weak),
                            EdgeKind.WEAK_ABSORB,
                        )
                    else:
                        attach(
                            lab,
                            make_label(AtomLevel.WEAK, lab.clicks, lab.strong, lab.weak + 1),
                            EdgeKind.WEAK_EMIT,
                        )
                else:
                    frontier.add(lab)
        elif a is AtomLevel.STRONG:
            if kind.strong_on:
                if kind.strong_absorb_first:
                    if lab.clicks + 1 <= clicks_budget:
                        attach(
                            lab,
                            make_label(
                                AtomLevel.GROUND, lab.clicks + 1, lab.strong + 1, lab.weak
                            ),
                            EdgeKind.STRONG_EMIT,
                        )
                    else:
                        frontier.add(lab)
                else:
                    attach(
                        lab,
                        make_label(AtomLevel.GROUND, lab.clicks, lab.strong, lab.weak, lab.ready),
                        EdgeKind.STRONG_ABSORB,
                    )
        else:  # AtomLevel.WEAK
            if kind.weak_on:
                if kind.weak_absorb_first:
                    attach(
                        lab,
                        make_label(AtomLevel.GROUND, lab.clicks, lab.strong, lab.weak + 1),
                        EdgeKind.WEAK_EMIT,
                    )
                else:
                    attach(
                        lab,
                        make_label(AtomLevel.GROUND, lab.clicks, lab.strong, lab.weak, lab.ready),
                        EdgeKind.WEAK_ABSORB,
                    )

    return EpochGraph(
        kind=kind,
        rates=rates,
        depth=depth,
        root=root,
        labels=tuple(labels),
        edges=tuple(edges),
        frontier=frozenset(frontier),
        marks=marks,
    )


def extend_frontier(graph: EpochGraph, label: ComponentLabel) -> EpochGraph:
    """Realize the next cycle beyond a frontier label.

    Implemented as a rebuild one cycle deeper, so extending twice is
    identical to building at depth + 2 directly. Raises NotExtensible
    for labels not on the frontier.
    """
    if label not in graph.frontier:
        raise NotExtensible(f"{label} is not on the frontier")
    return build_epoch(graph.kind, graph.root, graph.rates, graph.depth + 1, graph.marks)


def chain_from_graph(graph: EpochGraph) -> ChainState:
    """Seed a chain state on an epoch graph with all mass at the root, at time 0."""
    return ChainState(
        labels=graph.labels,
        masses=[1.0 if lab == graph.root else 0.0 for lab in graph.labels],
        edges=graph.edges,
    )
