"""Run configuration: the key=value file format, its defaults and its vocabulary.

The value types a config names, ``Configuration``, ``LaserDrive``,
``ConfigKind``, ``Mode`` and ``RateSet``, live here too, so the analysis
loads them without the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .errors import ConfigError

if TYPE_CHECKING:
    from .state import EdgeKind


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
            value = getattr(self, name)
            if not 0 < value < math.inf:  # false for nan too
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def rate_for(self, kind: EdgeKind) -> float:
        return getattr(self, "k_" + kind.value)  # EdgeKind.WEAK_EMIT -> k_weak_emit


_CONFIG_NAMES = {c.value: c for c in Configuration}
_LASER_NAMES = {d.value: d for d in LaserDrive}
_MODE_NAMES = {m.value: m for m in Mode}
_ENGINES = ("auto", "renewal", "steps")


@dataclass(frozen=True)
class RunConfig:
    """Everything one reproducible run needs.

    Defaults give the desk-scale V configuration: a weak/strong rate
    ratio of 1e-3 instead of the physical 5e-9 (one time unit is one
    strong lifetime, about 1e-8 s; the weak lifetime is about 2 s), so
    dark periods show up within seconds of compute. The physical ratio
    stays reachable through the rate keys.
    """

    kind: str = "v"
    lasers: str = "both"
    k_strong_absorb: float = 1.0
    k_strong_emit: float = 1.0
    k_weak_absorb: float = 1e-3
    k_weak_emit: float = 1e-3
    mode: str = "nurules"
    duration: float = 2e6
    dt_max: float = 0.01
    master_seed: int = 0
    trajectories: int = 1
    threshold_gap: Optional[float] = None  # None = auto (20x strong cycle)
    depth: int = 2
    engine: str = "auto"
    out: str = "out"

    def __post_init__(self) -> None:
        # a value given in code goes through its key's parser, as text does,
        # and is kept as the parser returns it ("V" becomes "v", 5 becomes 5.0)
        for name in _PARSERS:
            value = getattr(self, name)
            if value is not None:  # threshold_gap=None is auto
                object.__setattr__(self, name, _PARSERS[name](str(value)))

    def config_kind(self) -> ConfigKind:
        return ConfigKind(_CONFIG_NAMES[self.kind], _LASER_NAMES[self.lasers])

    def rate_set(self) -> RateSet:
        return RateSet(
            k_strong_absorb=self.k_strong_absorb,
            k_strong_emit=self.k_strong_emit,
            k_weak_absorb=self.k_weak_absorb,
            k_weak_emit=self.k_weak_emit,
        )

    def mode_enum(self) -> Mode:
        return _MODE_NAMES[self.mode]

    def resolved_threshold(self) -> float:
        if self.threshold_gap is not None:
            return self.threshold_gap
        return 20.0 * (1.0 / self.k_strong_absorb + 1.0 / self.k_strong_emit)

    def out_dir(self) -> Path:
        return Path(self.out)


def _parse_choice(value: str, choices, what: str):
    v = value.strip().lower()
    if v not in choices:
        raise ValueError(f"{what} must be one of {sorted(choices)}, got {value!r}")
    return v


def _number(kind: type, value: str):
    """``kind(value)``, or None for text that is not such a number."""
    try:
        return kind(value)
    except ValueError:
        return None


def _parse_positive_float(value: str, what: str) -> float:
    x = _number(float, value)
    if x is None or not 0 < x < math.inf:  # false for nan too
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return x


def _parse_positive_int(value: str, what: str) -> int:
    x = _number(int, value)
    if x is None or x < 1:
        raise ValueError(f"{what} must be an integer of at least 1, got {value}")
    return x


def _parse_seed(value: str) -> int:
    x = _number(int, value)
    if x is None or not (0 <= x < 2**64):
        raise ValueError(f"master_seed must be an integer that fits in 64 bits, got {value}")
    return x


def _parse_out(value: str) -> str:
    # format_config writes out as one line that parse_config reads back, so no # or line break
    v = value.strip()
    if not v or "#" in v or v.splitlines() != [v]:
        raise ValueError(f"out must name a directory, without '#' or a line break, got {value!r}")
    return v


def _parse_threshold(value: str) -> Optional[float]:
    if value.strip().lower() == "auto":
        return None
    return _parse_positive_float(value, "threshold_gap")


_PARSERS = {
    "kind": lambda v: _parse_choice(v, _CONFIG_NAMES, "kind"),
    "lasers": lambda v: _parse_choice(v, _LASER_NAMES, "lasers"),
    "k_strong_absorb": lambda v: _parse_positive_float(v, "k_strong_absorb"),
    "k_strong_emit": lambda v: _parse_positive_float(v, "k_strong_emit"),
    "k_weak_absorb": lambda v: _parse_positive_float(v, "k_weak_absorb"),
    "k_weak_emit": lambda v: _parse_positive_float(v, "k_weak_emit"),
    "mode": lambda v: _parse_choice(v, _MODE_NAMES, "mode"),
    "duration": lambda v: _parse_positive_float(v, "duration"),
    "dt_max": lambda v: _parse_positive_float(v, "dt_max"),
    "master_seed": _parse_seed,
    "trajectories": lambda v: _parse_positive_int(v, "trajectories"),
    "threshold_gap": _parse_threshold,
    "depth": lambda v: _parse_positive_int(v, "depth"),
    "engine": lambda v: _parse_choice(v, _ENGINES, "engine"),
    "out": _parse_out,
}


def parse_config(text: str) -> RunConfig:
    """Parse a key=value document (one pair per line, # comments).

    Omitted keys take the documented defaults. Raises ConfigError naming
    the offending line for unknown keys, keys given twice, malformed
    values, or violated invariants.
    """
    values = {}
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: key {key!r} given twice (first on line {first_line[key]})"
            )
        first_line[key] = lineno
        try:
            values[key] = parser(value.strip())
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return RunConfig(**values)


def format_config(cfg: RunConfig) -> str:
    """Every key of ``cfg`` as key=value text that ``parse_config`` reads back equal.

    ``threshold_gap=None`` is written as ``auto`` and floats via ``repr``.
    """
    lines = []
    for key in _PARSERS:
        value = getattr(cfg, key)
        if value is None:
            text = "auto"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}\n")
    return "".join(lines)

