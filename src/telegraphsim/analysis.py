"""Telegraph segmentation, interval statistics, weak-photon timing.

Turns an event log into the observable story: alternating bright and
dark fluorescence intervals, their duration statistics, and for each
dark interval whether the weak photon was emitted at its start or its
end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .configurations import ConfigKind, LaserDrive
from .errors import EmptyLog, NoWeakBranch
from .eventlog import EventKind, EventLog, Records
from .flow import RateSet


class Phase(Enum):
    BRIGHT = "bright"
    DARK = "dark"


@dataclass(frozen=True)
class Interval:
    start: float
    end: float
    phase: Phase

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TelegraphSegmentation:
    """Alternating bright/dark intervals tiling the span between hits."""

    intervals: tuple[Interval, ...]
    threshold_gap: float

    @property
    def dark_intervals(self) -> tuple[Interval, ...]:
        return tuple(iv for iv in self.intervals if iv.phase is Phase.DARK)

    @property
    def bright_intervals(self) -> tuple[Interval, ...]:
        return tuple(iv for iv in self.intervals if iv.phase is Phase.BRIGHT)


def segment_telegraph(records: Records, threshold_gap: float) -> TelegraphSegmentation:
    """Split the hit train into bright runs and dark gaps.

    Consecutive hits closer than the threshold belong to one bright
    interval; a longer gap becomes a dark interval. Raises EmptyLog when
    the log contains no hits.
    """
    times = EventLog.of(records).of_kind(EventKind.HIT).time
    if not times.size:
        raise EmptyLog("no detector hits to segment")
    gaps = np.flatnonzero(times[1:] - times[:-1] > threshold_gap)
    # each dark gap runs from its last bright hit to its first; bright runs fill the rest
    dark_from = times[gaps].tolist()
    dark_to = times[gaps + 1].tolist()
    bright_from = [times[0].item()] + dark_to
    bright_to = dark_from + [times[-1].item()]
    intervals = []
    for b0, b1, d0, d1 in zip(bright_from, bright_to, dark_from, dark_to):
        intervals.append(Interval(b0, b1, Phase.BRIGHT))
        intervals.append(Interval(d0, d1, Phase.DARK))
    intervals.append(Interval(bright_from[-1], bright_to[-1], Phase.BRIGHT))
    return TelegraphSegmentation(tuple(intervals), threshold_gap)


class WeakTiming(Enum):
    AT_START = "at_start"
    AT_END = "at_end"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class DarkTimingEntry:
    dark_start: float
    dark_end: float
    weak_crossing_time: Optional[float]
    classification: WeakTiming


@dataclass(frozen=True)
class TimingReport:
    entries: tuple[DarkTimingEntry, ...]

    def count(self, cls: WeakTiming) -> int:
        return sum(1 for e in self.entries if e.classification is cls)


def _weighted_median(values: Sequence[float], weights: Sequence[float]) -> float:
    order = np.argsort(values)
    v = np.asarray(values, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    cum = np.cumsum(w)
    half = 0.5 * cum[-1]
    k = int(np.searchsorted(cum, half))
    if math.isclose(cum[k], half, rel_tol=1e-12) and k + 1 < len(v):
        return 0.5 * (v[k] + v[k + 1])
    return float(v[k])


def classify_weak_timing(
    records: Records,
    seg: TelegraphSegmentation,
    config: ConfigKind,
    rates: RateSet,
) -> TimingReport:
    """Locate each dark interval's weak-photon emission and classify it.

    The interval's emission time is the flux-weighted median of the
    weak-edge crossings it contains. It classifies AtEnd when within one
    strong-cycle time of the dark end, else AtStart when within one
    weak-absorption time of the dark start, else Ambiguous.
    """
    if config.lasers is not LaserDrive.BOTH:
        raise NoWeakBranch("timing classification needs both lasers in the generating run")
    strong_cycle = 1.0 / rates.k_strong_absorb + 1.0 / rates.k_strong_emit
    weak_absorb_time = 1.0 / rates.k_weak_absorb
    cross = EventLog.of(records).of_kind(EventKind.WEAK_EDGE_CROSSING)
    weights = np.maximum(cross.aux, 1e-30)

    entries = []
    for iv in seg.dark_intervals:
        lo = iv.start - strong_cycle
        hi = iv.end + strong_cycle
        inside = (lo <= cross.time) & (cross.time <= hi)
        if not inside.any():
            entries.append(DarkTimingEntry(iv.start, iv.end, None, WeakTiming.AMBIGUOUS))
            continue
        t_med = _weighted_median(cross.time[inside], weights[inside])
        if abs(t_med - iv.end) <= strong_cycle:
            cls = WeakTiming.AT_END
        elif abs(t_med - iv.start) <= weak_absorb_time:
            cls = WeakTiming.AT_START
        else:
            cls = WeakTiming.AMBIGUOUS
        entries.append(DarkTimingEntry(iv.start, iv.end, t_med, cls))
    return TimingReport(tuple(entries))


@dataclass(frozen=True)
class IntervalStats:
    bright_count: int
    dark_count: int
    bright_mean: float
    bright_std: float
    dark_mean: float
    dark_std: float
    bright_durations: tuple[float, ...]
    dark_durations: tuple[float, ...]
    dark_rate_estimate: Optional[float]


def _mean_std(xs: Sequence[float]) -> tuple[float, float]:
    if not xs:
        return float("nan"), float("nan")
    a = np.asarray(xs, dtype=float)
    return float(a.mean()), float(a.std())


def interval_stats(seg: TelegraphSegmentation) -> IntervalStats:
    """Descriptive statistics of the segmentation.

    Dark durations are additionally fit to an exponential; the rate
    estimate (1/mean) is a diagnostic, not a distributional claim.
    """
    if not seg.intervals:
        raise EmptyLog("no intervals to summarize")
    bright = [iv.duration for iv in seg.bright_intervals]
    dark = [iv.duration for iv in seg.dark_intervals]
    b_mean, b_std = _mean_std(bright)
    d_mean, d_std = _mean_std(dark)
    rate = (1.0 / d_mean) if dark and d_mean > 0 else None
    return IntervalStats(
        bright_count=len(bright),
        dark_count=len(dark),
        bright_mean=b_mean,
        bright_std=b_std,
        dark_mean=d_mean,
        dark_std=d_std,
        bright_durations=tuple(bright),
        dark_durations=tuple(dark),
        dark_rate_estimate=rate,
    )
