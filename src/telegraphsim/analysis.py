"""Telegraph segmentation, interval statistics, weak-photon timing.

Turns an event log into the observable story: alternating bright and
dark fluorescence intervals, their counts and mean durations, and for each
dark interval whether the weak photon was emitted at its start or its
end. Every result is a set of arrays with one row per interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .config import ConfigKind, LaserDrive, RateSet
from .errors import EmptyLog, NoWeakBranch
from .eventlog import WEAK_EDGE_CROSSING, EventKind, EventLog, Records, hits


@dataclass(frozen=True)
class TelegraphSegmentation:
    """The dark gaps of a hit train; the bright runs fill the span between them.

    ``dark_intervals`` is an (n, 2) array holding each dark interval's
    bounding hit times: its last bright hit and the hit that ends it.
    ``dark_epochs`` holds the epoch that each closing hit ends.
    """

    dark_intervals: np.ndarray
    dark_epochs: np.ndarray
    first_hit: float
    last_hit: float

    @property
    def bright_intervals(self) -> np.ndarray:
        """The (n + 1, 2) array of bright runs, from the first hit to the last."""
        starts = np.concatenate(([self.first_hit], self.dark_intervals[:, 1]))
        ends = np.concatenate((self.dark_intervals[:, 0], [self.last_hit]))
        return np.stack((starts, ends), axis=1)


def segment_telegraph(records: Records, threshold_gap: float) -> TelegraphSegmentation:
    """Split the hit train into bright runs and dark gaps.

    Consecutive hits closer than the threshold belong to one bright
    interval; a longer gap becomes a dark interval. Raises EmptyLog when
    the log contains no hits.
    """
    hit = EventLog.of(records).of_kind(EventKind.HIT)
    times = hit.time
    if not times.size:
        raise EmptyLog("no detector hits to segment")
    gaps = np.flatnonzero(times[1:] - times[:-1] > threshold_gap)
    dark = np.stack((times[gaps], times[gaps + 1]), axis=1)
    return TelegraphSegmentation(dark, hit.epoch[gaps + 1], times[0].item(), times[-1].item())


class WeakTiming(Enum):
    AT_START = "at_start"
    AT_END = "at_end"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class TimingReport:
    """Per dark interval: the weak photon's estimated time (nan when none) and its class.

    ``classification`` is an object array of ``WeakTiming`` members.
    """

    median_time: np.ndarray
    classification: np.ndarray

    def count(self, cls: WeakTiming) -> int:
        return int(np.count_nonzero(self.classification == cls))


def classify_weak_timing(
    records: Records,
    seg: TelegraphSegmentation,
    config: ConfigKind,
    rates: RateSet,
) -> TimingReport:
    """Locate each dark interval's weak-photon emission and classify it.

    The interval's emission time is the median of the times of the
    weak-edge crossings of its epoch, the one its closing hit ends. It
    classifies AtEnd when within one strong-cycle time of the dark end,
    else AtStart when within one weak-absorption time of the dark start,
    else Ambiguous. The crossings are found by bisection and each epoch's
    median is read off its middle pair, so their epochs and times must be
    nondecreasing, as ``validate_log`` checks.
    """
    if config.lasers is not LaserDrive.BOTH:
        raise NoWeakBranch("timing classification needs both lasers in the generating run")
    strong_cycle = 1.0 / rates.k_strong_absorb + 1.0 / rates.k_strong_emit
    weak_absorb_time = 1.0 / rates.k_weak_absorb
    cross = EventLog.of(records).of_kind(EventKind.WEAK_EDGE_CROSSING)
    starts, ends = seg.dark_intervals.T
    lo = np.searchsorted(cross.epoch, seg.dark_epochs, side="left")
    hi = np.searchsorted(cross.epoch, seg.dark_epochs, side="right")

    t_med = np.full(len(starts), np.nan)
    some = hi > lo
    lo, n = lo[some], (hi - lo)[some]
    t_med[some] = 0.5 * (cross.time[lo + (n - 1) // 2] + cross.time[lo + n // 2])
    # nan compares false, so an interval without crossings is ambiguous
    at_end = np.abs(t_med - ends) <= strong_cycle
    at_start = np.abs(t_med - starts) <= weak_absorb_time
    cls = np.select(
        [at_end, at_start], [WeakTiming.AT_END, WeakTiming.AT_START], WeakTiming.AMBIGUOUS
    )
    return TimingReport(t_med, cls)


@dataclass(frozen=True)
class IntervalStats:
    bright_count: int
    dark_count: int
    bright_mean: float
    dark_mean: float
    dark_rate_estimate: Optional[float]


def interval_stats(seg: TelegraphSegmentation) -> IntervalStats:
    """Interval counts and mean durations; the dark mean is nan when no interval is dark.

    Dark durations are additionally fit to an exponential; the rate
    estimate (1/mean) is a diagnostic, not a distributional claim.
    """
    (b0, b1), (d0, d1) = seg.bright_intervals.T, seg.dark_intervals.T
    bright, dark = b1 - b0, d1 - d0
    d_mean = float(dark.mean()) if dark.size else math.nan
    return IntervalStats(
        bright_count=len(bright),
        dark_count=len(dark),
        bright_mean=float(bright.mean()),
        dark_mean=d_mean,
        dark_rate_estimate=(1.0 / d_mean) if dark.size and d_mean > 0 else None,
    )


def _push(parts: list, rows, join: Callable) -> None:
    """Append ``rows`` to ``parts``, joining the last two parts while the last is not shorter.

    So ``parts`` stays a few pieces, about log2 of its rows, however many
    blocks add rows, and each row is copied about that many times.
    """
    parts.append(rows)
    while len(parts) > 1 and len(parts[-2]) <= len(parts[-1]):
        parts[-2:] = [join(parts[-2:])]


class LogFold:
    """What the telegraph analysis needs of a log, folded over its records a block at a time.

    ``add`` takes the log's records in order, cut into blocks anywhere,
    even between a crossing and its epoch's hit. Each block's hits are
    segmented with the last hit before them, so the gap across the cut is
    segmented too. The fold carries that hit and the crossings after it of
    a later epoch, which a later hit decides on, and otherwise keeps only
    what grows with the dark periods: the hit count, the first hit, the
    largest gap between hits, each dark interval with its closing epoch,
    and the crossings of those epochs. ``segmentation`` and ``crossings``
    give ``interval_stats`` and ``classify_weak_timing`` what
    ``segment_telegraph`` and the whole log would give them.
    """

    def __init__(self, threshold_gap: float):
        self._threshold = threshold_gap
        self.hits = 0
        self.max_gap: Optional[float] = None  # the largest gap between consecutive hits
        self._first_hit: Optional[float] = None
        self._last = EventLog.of(())  # the last hit so far
        self._pending = EventLog.of(())  # the crossings after it, of a later epoch
        self._dark = [np.empty((0, 2))]
        self._dark_epochs = [np.empty(0, np.int64)]
        self._crossings: list[EventLog] = []  # of the dark periods' epochs

    def add(self, block: EventLog) -> None:
        log = EventLog.concat([self._last, self._pending, block])
        crossing = log.kind == WEAK_EDGE_CROSSING
        hit = hits(log)
        if not len(hit):
            self._pending = log[crossing]
            return
        seg = segment_telegraph(hit, self._threshold)
        self.hits += len(hit) - len(self._last)
        if self._first_hit is None:
            self._first_hit = seg.first_hit
        if len(hit) >= 2:
            gap = np.diff(hit.time).max()
            self.max_gap = gap if self.max_gap is None else np.maximum(self.max_gap, gap)
        # a dark period's weak photon is among the crossings of the epoch its
        # closing hit ends, which may be the last block's, after that hit
        dark = np.concatenate((self._dark_epochs[-1][-1:], seg.dark_epochs))
        keep = crossing & np.isin(log.epoch, dark)
        if keep.any():
            _push(self._crossings, log[keep], EventLog.concat)
        if len(seg.dark_epochs):
            _push(self._dark, seg.dark_intervals, np.concatenate)
            _push(self._dark_epochs, seg.dark_epochs, np.concatenate)
        self._last = hit[-1:]
        self._pending = log[crossing & ~keep & (log.epoch > self._last.epoch[0])]

    def segmentation(self) -> TelegraphSegmentation:
        """``segment_telegraph`` of the records so far; they must hold a hit."""
        return TelegraphSegmentation(
            np.concatenate(self._dark),
            np.concatenate(self._dark_epochs),
            self._first_hit,
            float(self._last.time[0]),
        )

    def crossings(self) -> EventLog:
        """The crossings so far of the epochs that close a dark period."""
        return EventLog.concat(self._crossings)
