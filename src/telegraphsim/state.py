"""Data model of components and chains.

A system state is an ordered set of *components*: each carries a label
(atom level, detector click count, photon ledger, ready marks) and a
nonnegative mass (square modulus). Probability mass moves between
components along directed flow edges; a stochastic hit on a ready
component collapses the chain to that single component.

Masses, not complex amplitudes, are the state variable: every mechanism
in this model is expressed through square moduli and probability
currents, so phases never enter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from .errors import DuplicateLabel, InvalidLabel

#: How far below zero a component mass may round before a chain rejects it.
MASS_TOL = 1e-9


class AtomLevel(Enum):
    """The three atomic levels: ground, strongly-decaying, weakly-decaying."""

    GROUND = 0
    STRONG = 1
    WEAK = 2


class Mode(Enum):
    """Operating mode of the collapse rules.

    NU_RULES and ORIGINAL_WITH_OBSERVER behave identically for the
    atom/detector system; ORIGINAL_NO_OBSERVER disables marking,
    blocking and the trigger, leaving pure deterministic flow.
    """

    NU_RULES = "nurules"
    ORIGINAL_WITH_OBSERVER = "original_with_observer"
    ORIGINAL_NO_OBSERVER = "original_no_observer"


@dataclass(frozen=True)
class ReadyMarks:
    """Collapse-basis marks on the atom and detector states of a component."""

    atom_ready: bool = False
    detector_ready: bool = False

    def any(self) -> bool:
        return self.atom_ready or self.detector_ready


NO_MARKS = ReadyMarks()
BOTH_MARKS = ReadyMarks(atom_ready=True, detector_ready=True)


@dataclass(frozen=True, eq=False)
class ComponentLabel:
    """Identity of one additive term of the system state.

    ``clicks`` counts detector records, ``strong`` counts detected
    photons emitted on the strong transition (the two stay equal in all
    four level configurations), ``weak`` counts undetected weak photons.

    Labels are hashed and compared through a precomputed key: they sit
    on the hot path of every step (blocked-edge sets, trigger target
    lookups), where generated field-by-field comparison is too slow.
    """

    atom: AtomLevel
    clicks: int
    strong: int
    weak: int
    ready: ReadyMarks = NO_MARKS

    def __post_init__(self) -> None:
        key = (
            self.atom.value,
            self.clicks,
            self.strong,
            self.weak,
            self.ready.atom_ready,
            self.ready.detector_ready,
        )
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, ComponentLabel):
            return NotImplemented
        return self._key == other._key

    def without_marks(self) -> "ComponentLabel":
        if not self.ready.any():
            return self
        return replace(self, ready=NO_MARKS)

    def with_marks(self) -> "ComponentLabel":
        if self.ready == BOTH_MARKS:
            return self
        return replace(self, ready=BOTH_MARKS)

    def shifted(self, clicks: int = 0, strong: int = 0, weak: int = 0) -> "ComponentLabel":
        """Translate the ledger counts, e.g. to re-root an epoch template."""
        return replace(
            self,
            clicks=self.clicks + clicks,
            strong=self.strong + strong,
            weak=self.weak + weak,
        )

    def __str__(self) -> str:
        marks = "*" if self.ready.any() else ""
        prime = f" w{self.weak}" if self.weak else ""
        return f"A{self.atom.value}{marks}D{self.clicks}{marks}{prime}"


def make_label(
    atom: AtomLevel,
    clicks: int,
    strong: int,
    weak: int,
    ready: Optional[ReadyMarks] = None,
) -> ComponentLabel:
    """Build a canonical component label; equal inputs give equal labels.

    Raises InvalidLabel for negative counts.
    """
    if clicks < 0 or strong < 0 or weak < 0:
        raise InvalidLabel(
            f"counts must be nonnegative, got clicks={clicks} strong={strong} weak={weak}"
        )
    if not isinstance(atom, AtomLevel):
        raise InvalidLabel(f"atom must be an AtomLevel, got {atom!r}")
    return ComponentLabel(atom, int(clicks), int(strong), int(weak), ready or NO_MARKS)


class EdgeKind(Enum):
    """What a flow edge does to the photon ledger.

    Emit kinds create a photon (strong emission also clicks the
    detector); absorb kinds change only the atom level.
    """

    STRONG_ABSORB = "strong_absorb"
    STRONG_EMIT = "strong_emit"
    WEAK_ABSORB = "weak_absorb"
    WEAK_EMIT = "weak_emit"


@dataclass(frozen=True)
class FlowEdge:
    """Directed transfer channel between two component labels."""

    source: ComponentLabel
    target: ComponentLabel
    rate: float
    kind: EdgeKind

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"edge rate must be positive, got {self.rate}")
        if self.source == self.target:
            raise ValueError("flow edges must connect distinct labels")
        dc = self.target.clicks - self.source.clicks
        ds = self.target.strong - self.source.strong
        dw = self.target.weak - self.source.weak
        if self.kind is EdgeKind.STRONG_EMIT:
            ok = (dc, ds, dw) == (1, 1, 0)
        elif self.kind is EdgeKind.WEAK_EMIT:
            ok = (dc, ds, dw) == (0, 0, 1)
        else:
            ok = (dc, ds, dw) == (0, 0, 0) and self.target.atom != self.source.atom
        if not ok:
            raise ValueError(f"{self.kind.value} edge has inconsistent ledger delta")


class ChainState:
    """The full system state: ordered components, edges, time and epoch.

    A ChainState is a value confined to one execution context; all
    operations return new states rather than mutating. Masses are held
    in a flat array so stepping does not churn per-component objects.
    """

    __slots__ = ("labels", "masses", "edges", "time", "epoch", "_index")

    def __init__(
        self,
        labels: Iterable[ComponentLabel],
        masses: Iterable[float],
        edges: Iterable[FlowEdge] = (),
        time: float = 0.0,
        epoch: int = 0,
    ):
        self.labels = tuple(labels)
        self.masses = np.asarray(list(masses), dtype=np.float64)
        self.edges = tuple(edges)
        self.time = float(time)
        self.epoch = int(epoch)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise DuplicateLabel("two components share a label")
        if self.masses.shape != (len(self.labels),):
            raise ValueError("masses and labels must align")
        if np.any(self.masses < -MASS_TOL):
            raise ValueError("component masses must be nonnegative")
        for e in self.edges:
            if e.source not in self._index or e.target not in self._index:
                raise ValueError(f"edge endpoint {e.source} -> {e.target} names no component")

    def __contains__(self, label: ComponentLabel) -> bool:
        return label in self._index

    def mass_of(self, label: ComponentLabel) -> float:
        return float(self.masses[self._index[label]])

    def with_masses(self, masses: np.ndarray, time: Optional[float] = None) -> "ChainState":
        new = ChainState.__new__(ChainState)
        new.labels = self.labels
        new.masses = masses
        new.edges = self.edges
        new.time = self.time if time is None else float(time)
        new.epoch = self.epoch
        new._index = self._index
        return new

    def __repr__(self) -> str:
        body = ", ".join(f"{lab}:{m:.4g}" for lab, m in zip(self.labels, self.masses))
        return f"ChainState(t={self.time:.4g}, epoch={self.epoch}, [{body}])"
