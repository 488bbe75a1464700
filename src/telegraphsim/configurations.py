"""Per-epoch flow graphs for the four 3-level configurations.

The four configurations differ only in whether each laser's side of the
atom absorbs or emits first out of ground (``ConfigKind.strong_absorb_first``
and ``weak_absorb_first``):

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

So one table of laser moves, ``_moves``, gives every configuration's
graph: out of ground, each switched-on laser drives its side's first
edge, and from its excited level the other edge returns to ground.
``build_epoch`` applies the moves breadth-first from the epoch root. An
emitting edge adds its photon to the ledger, and a click for a strong
photon. A child is marked ready if it records a new click or its source
is ready (``rules.is_decoherent``), so every child of a ready label is
ready and Rule (4) blocks every edge out of one. A ready label therefore
takes no move, and the graph is the live ladder: every label in it can
carry mass.

Two cuts bound the graph, each at ``depth`` above the root's ledger: the
clicks budget cuts every strong emission, and the weak budget cuts the
weak move out of ground, which starts a weak cycle. A label that either
cut stops is on the frontier, where mass that reaches it stays. With
marks on, the first click makes a label ready, so the clicks cut binds
only in unmarked graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ConfigKind, RateSet
from .errors import InvalidDepth, NotExtensible
from .rules import is_decoherent
from .state import AtomLevel, ComponentLabel, EdgeKind, FlowEdge


@dataclass(frozen=True)
class EpochGraph:
    """The live component graph of one epoch, truncated at a depth budget."""

    kind: ConfigKind
    rates: RateSet
    depth: int
    root: ComponentLabel
    labels: tuple[ComponentLabel, ...]
    edges: tuple[FlowEdge, ...]
    frontier: frozenset[ComponentLabel]
    marks: bool = True


_STRONG = (EdgeKind.STRONG_ABSORB, EdgeKind.STRONG_EMIT)
_WEAK = (EdgeKind.WEAK_ABSORB, EdgeKind.WEAK_EMIT)
# what each emitting edge adds to the (clicks, strong, weak) ledger
_EMITS = {EdgeKind.STRONG_EMIT: (1, 1, 0), EdgeKind.WEAK_EMIT: (0, 0, 1)}


def _moves(kind: ConfigKind) -> dict[AtomLevel, list[tuple[EdgeKind, AtomLevel]]]:
    """The laser moves (edge kind, target level) out of each atom level, strong side then weak."""
    moves = {atom: [] for atom in AtomLevel}
    for on, absorb_first, excited, side in (
        (kind.strong_on, kind.strong_absorb_first, AtomLevel.STRONG, _STRONG),
        (kind.weak_on, kind.weak_absorb_first, AtomLevel.WEAK, _WEAK),
    ):
        if on:
            first, second = side if absorb_first else side[::-1]
            moves[AtomLevel.GROUND].append((first, excited))
            moves[excited].append((second, AtomLevel.GROUND))
    return moves


def build_epoch(
    kind: ConfigKind,
    root: ComponentLabel,
    rates: RateSet,
    depth: int,
    marks: bool = True,
) -> EpochGraph:
    """Construct the epoch graph rooted at a realized label.

    The root is taken as realized (its mark, if any, is stripped). A
    ready label takes no move, since Rule (4) blocks every edge out of
    one. With ``marks`` False (no observer) no component is marked ready,
    so nothing is blocked and no hit can land. Each label is expanded at
    most once and is the source of every edge it adds, so no edge
    repeats. Raises InvalidDepth for depth < 1.
    """
    if depth < 1:
        raise InvalidDepth(f"depth must be at least 1, got {depth}")
    root = root.without_marks()
    clicks_budget = root.clicks + depth
    weak_budget = root.weak + depth
    moves = _moves(kind)
    labels = [root]
    seen = {root}
    edges: list[FlowEdge] = []
    frontier: set[ComponentLabel] = set()
    for lab in labels:  # breadth first: the list grows as children are found
        if lab.ready:
            continue  # Rule (4) blocks every move out of it
        for ekind, atom in moves[lab.atom]:
            if (ekind is EdgeKind.STRONG_EMIT and lab.clicks == clicks_budget) or (
                ekind in _WEAK and lab.atom is AtomLevel.GROUND and lab.weak == weak_budget
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


def extend_frontier(graph: EpochGraph, label: ComponentLabel) -> EpochGraph:
    """Realize the next cycle beyond a frontier label.

    Implemented as a rebuild one cycle deeper, so extending twice is
    identical to building at depth + 2 directly. Raises NotExtensible
    for labels not on the frontier.
    """
    if label not in graph.frontier:
        raise NotExtensible(f"{label} is not on the frontier")
    return build_epoch(graph.kind, graph.root, graph.rates, graph.depth + 1, graph.marks)

