"""Data model of components and chains.

A system state is an ordered set of *components*: each carries a label
(atom level, detector click count, photon ledger, ready flag) and a
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


@dataclass(frozen=True)
class ComponentLabel:
    """Identity of one additive term of the system state.

    ``clicks`` counts detector records, ``strong`` counts detected
    photons emitted on the strong transition (the two stay equal in all
    four level configurations), ``weak`` counts undetected weak photons.
    ``ready`` marks the component's atom and detector states as ready
    (a potential collapse basis). Raises InvalidLabel for a count that is
    not a nonnegative integer, a ``ready`` that is not a bool or an atom
    that is not an ``AtomLevel``, however the label is made.
    """

    atom: AtomLevel
    clicks: int
    strong: int
    weak: int
    ready: bool = False

    def __post_init__(self) -> None:
        counts = (self.clicks, self.strong, self.weak)
        if not all(type(n) is int for n in counts):
            raise InvalidLabel(f"counts must be integers, got {counts!r}")
        if min(counts) < 0:
            raise InvalidLabel(
                f"counts must be nonnegative, got clicks={self.clicks} strong={self.strong}"
                f" weak={self.weak}"
            )
        if type(self.ready) is not bool:
            raise InvalidLabel(f"ready must be a bool, got {self.ready!r}")
        if not isinstance(self.atom, AtomLevel):
            raise InvalidLabel(f"atom must be an AtomLevel, got {self.atom!r}")

    def without_marks(self) -> "ComponentLabel":
        return replace(self, ready=False) if self.ready else self

    def with_marks(self) -> "ComponentLabel":
        return self if self.ready else replace(self, ready=True)

    def __str__(self) -> str:
        marks = "*" if self.ready else ""
        prime = f" w{self.weak}" if self.weak else ""
        return f"A{self.atom.value}{marks}D{self.clicks}{marks}{prime}"


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
        if not 0 < self.rate < np.inf:  # false for nan too
            raise ValueError(f"edge rate must be positive and finite, got {self.rate}")
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

    def with_masses(self, masses: np.ndarray, time: Optional[float] = None) -> "ChainState":
        new = ChainState.__new__(ChainState)
        new.labels = self.labels
        new.masses = masses
        new.edges = self.edges
        new.time = self.time if time is None else float(time)
        new.epoch = self.epoch
        new._index = self._index
        return new
