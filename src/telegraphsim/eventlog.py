"""Event logs, held as numpy columns, and their tab-separated on-disk format.

An ``EventLog`` keeps one numpy array per field; an ``EventRecord`` is one
row of it. Every function here takes an ``EventLog`` or any sequence of
``EventRecord``s (converted once through ``EventLog.of``). ``hits`` selects
the hit rows; ``EventLog.of_kind`` selects the rows of either kind.

One line per record: time, kind, epoch, then the label fields (atom
level, detector clicks, strong count, weak count) and an auxiliary
value (delivered mass for hits, crossing flux weight for weak-edge
crossings). Floats are written with Python's shortest round-trip
representation so logs are diffable and parse back bit-exactly.

Each epoch writes its weak-edge crossings, then its hit. Its start is
implied: epoch 0 starts at t=0 on the ground level with an empty ledger,
epoch k at hit k-1's time, atom and ledger. ``parse_log`` also reads
version 1 logs, dropping the ``epoch_start`` records they held.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Iterable, Union

import numpy as np

FORMAT_VERSION = 2
_HEADER = (
    f"# telegraph-event-log v{FORMAT_VERSION}\n"
    "# time\tkind\tepoch\tatom\tclicks\tstrong\tweak\taux\n"
)
# records converted to or from text at a time, which bounds the Python objects alive at once
_CHUNK = 8192


class EventKind(Enum):
    HIT = "hit"
    WEAK_EDGE_CROSSING = "weak_edge_crossing"


#: ``EventLog.kind`` holds each kind's position in this tuple.
KINDS = tuple(EventKind)
_CODE = {k: i for i, k in enumerate(KINDS)}
HIT = _CODE[EventKind.HIT]
WEAK_EDGE_CROSSING = _CODE[EventKind.WEAK_EDGE_CROSSING]
_CODE_OF_VALUE = {k.value: i for i, k in enumerate(KINDS)}


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One timestamped simulator event."""

    time: float
    kind: EventKind
    epoch: int
    atom: int
    clicks: int
    strong: int
    weak: int
    aux: float


class EventLog:
    """Event records as columns: one numpy array per ``EventRecord`` field.

    ``kind`` holds codes into ``KINDS``; the other columns hold the field
    values (float64 for time and aux, int64 for the rest). Iterating or
    indexing with an int yields ``EventRecord``s; indexing with a slice,
    mask or index array yields another ``EventLog``. Two logs compare equal
    when every column is equal, and a log also compares with a list or tuple
    of records.
    """

    COLUMNS = ("time", "kind", "epoch", "atom", "clicks", "strong", "weak", "aux")
    __slots__ = COLUMNS
    __hash__ = None  # mutable arrays

    def __init__(self, time, kind, epoch, atom, clicks, strong, weak, aux):
        self.time = np.asarray(time, dtype=np.float64)
        self.kind = np.asarray(kind, dtype=np.int8)
        self.epoch = np.asarray(epoch, dtype=np.int64)
        self.atom = np.asarray(atom, dtype=np.int64)
        self.clicks = np.asarray(clicks, dtype=np.int64)
        self.strong = np.asarray(strong, dtype=np.int64)
        self.weak = np.asarray(weak, dtype=np.int64)
        self.aux = np.asarray(aux, dtype=np.float64)

    @classmethod
    def of(cls, records: "Records") -> "EventLog":
        """``records`` itself if it is a log, else the log of those records."""
        if isinstance(records, EventLog):
            return records
        rows = list(records)
        columns = [[getattr(r, name) for r in rows] for name in cls.COLUMNS]
        columns[1] = [_CODE[kind] for kind in columns[1]]
        return cls(*columns)

    @classmethod
    def concat(cls, logs: Iterable["EventLog"]) -> "EventLog":
        logs = list(logs)
        return cls(*(np.concatenate([getattr(g, name) for g in logs]) for name in cls.COLUMNS))

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.COLUMNS)

    def of_kind(self, kind: EventKind) -> "EventLog":
        return self[self.kind == _CODE[kind]]

    def __len__(self) -> int:
        return len(self.time)

    def __iter__(self):
        for t, k, *rest in zip(*(col.tolist() for col in self.columns())):
            yield EventRecord(t, KINDS[k], *rest)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            t, k, *rest = (col[key].item() for col in self.columns())
            return EventRecord(t, KINDS[k], *rest)
        return EventLog(*(col[key] for col in self.columns()))

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple)) and all(isinstance(r, EventRecord) for r in other):
            other = EventLog.of(other)
        if not isinstance(other, EventLog):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))


Records = Union[EventLog, Iterable[EventRecord]]


def validate_log(records: Records) -> None:
    """Check the ordering invariants: times and epochs nondecreasing, hit epochs consecutive.

    Consecutive hit epochs are what lets the hits imply every epoch start.
    Reports the first offending record, checking its time, epoch, then hit epoch.
    """
    log = EventLog.of(records)
    time_down = np.flatnonzero(log.time[1:] < log.time[:-1]) + 1
    epoch_down = np.flatnonzero(log.epoch[1:] < log.epoch[:-1]) + 1
    hit_at = np.flatnonzero(log.kind == HIT)
    not_next = hit_at[1:][np.diff(log.epoch[hit_at]) != 1]
    firsts = [
        int(found[0]) if found.size else len(log) for found in (time_down, epoch_down, not_next)
    ]
    first = min(firsts)
    if first == len(log):
        return
    r = log[first]
    if first == firsts[0]:
        raise ValueError(f"record times decrease at t={r.time}")
    if first == firsts[1]:
        raise ValueError(f"record epochs decrease at epoch={r.epoch}")
    raise ValueError(f"hit at epoch={r.epoch} does not follow the previous hit's epoch")


def serialize_log(records: Records) -> str:
    log = EventLog.of(records)
    kinds = [k.value for k in KINDS]
    parts = [_HEADER]
    for i in range(0, len(log), _CHUNK):
        rows = zip(*(col[i : i + _CHUNK].tolist() for col in log.columns()))
        parts.append(
            "".join(
                [
                    f"{t!r}\t{kinds[k]}\t{e}\t{a}\t{c}\t{s}\t{w}\t{x!r}\n"
                    for t, k, e, a, c, s, w, x in rows
                ]
            )
        )
    return "".join(parts)


def parse_log(text: str) -> EventLog:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if list(map(str.count, lines, repeat("\t"))).count(7) != len(lines):
        lineno = next(
            n for n, line in enumerate(text.splitlines(), start=1)
            if line and not line.startswith("#") and line.count("\t") != 7
        )
        raise ValueError(f"line {lineno}: expected 8 tab-separated fields")
    if text.startswith("# telegraph-event-log v1\n"):  # v1 also wrote the implied starts
        lines = [line for line in lines if line.split("\t", 2)[1] != "epoch_start"]
    chunks = range(0, max(len(lines), 1), _CHUNK)
    return EventLog.concat(_parse_lines(lines[i : i + _CHUNK]) for i in chunks)


def _parse_lines(lines: list[str]) -> EventLog:
    """Records of lines that hold eight tab-separated fields each."""
    # field i of every line sits at i, i + 8, ...
    fields = "\t".join(lines).split("\t") if lines else []
    n = len(lines)
    try:
        kinds = [_CODE_OF_VALUE[k] for k in fields[1::8]]
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]!r} is not a valid EventKind") from None
    try:
        ints = [np.fromiter(map(int, fields[i::8]), np.int64, n) for i in range(2, 7)]
    except OverflowError as exc:
        raise ValueError(str(exc)) from None
    return EventLog(
        np.fromiter(map(float, fields[0::8]), np.float64, n),
        kinds,
        *ints,
        np.fromiter(map(float, fields[7::8]), np.float64, n),
    )


def read_log(path: Path) -> EventLog:
    return parse_log(Path(path).read_text(encoding="utf-8"))


def hits(records: Records) -> EventLog:
    return EventLog.of(records).of_kind(EventKind.HIT)
