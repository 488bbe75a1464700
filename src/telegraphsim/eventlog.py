"""Event logs, held as numpy columns, and their tab-separated on-disk format.

An ``EventLog`` keeps one numpy array per field; an ``EventRecord`` is one
row of it. Every function here takes an ``EventLog`` or any sequence of
``EventRecord``s (converted once through ``EventLog.of``). ``hits`` selects
the hit rows; ``EventLog.of_kind`` selects the rows of either kind.

One line per record: time, kind, epoch, then the label fields (atom
level, detector clicks, strong count, weak count). The time is written
with Python's shortest round-trip representation so logs are diffable
and parse back bit-exactly.

Each epoch writes its weak-edge crossings, then its hit. Its start is
implied: epoch 0 starts at t=0 on the ground level with an empty ledger,
epoch k at hit k-1's time, atom and ledger. Only this format, version 3,
is read: a log whose first line is a format line naming another version
raises ``line 1: event log format vN; this reader reads v3``. Text
without a format line is read as version 3.

Text is made and read ``_CHUNK`` records at a time, so no line list or
Python object per field of a whole log ever exists. ``append_records``
writes the lines of each chunk to a file ``open_log`` opened, and
``serialize_log`` joins the same chunks. ``iter_log`` takes a log's file
``_CHUNK`` lines at a time, drops the comment and blank lines, and
converts the rest with numpy's C reader (``np.loadtxt``) into columns,
so a log can be read without ever holding all of it; ``read_log`` and
``parse_log`` put the same chunks together into one log. That reader
converts every float ``repr`` writes to the same bits as ``float`` does.
Its errors keep their messages: ``line N: expected 7 tab-separated
fields`` for a line with a field too many or too few, and ``'flash' is
not a valid EventKind`` for an unknown kind. A field numpy cannot
convert, such as an int past int64 or a ``#`` inside a data line,
raises ``line N: could not convert string ...``; only lines that start
with ``#`` are comments.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO, Union

import numpy as np

FORMAT_VERSION = 3
_MAGIC = "# telegraph-event-log "
_HEADER = f"{_MAGIC}v{FORMAT_VERSION}\n# time\tkind\tepoch\tatom\tclicks\tstrong\tweak\n"
# records converted to or from text at a time, which bounds the Python objects alive at once
_CHUNK = 2048


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


class EventLog:
    """Event records as columns: one numpy array per ``EventRecord`` field.

    ``kind`` holds codes into ``KINDS``; the other columns hold the field
    values (float64 for time, int64 for the rest). Iterating or
    indexing with an int yields ``EventRecord``s; indexing with a slice,
    mask or index array yields another ``EventLog``. Two logs compare equal
    when every column is equal, and a log also compares with a list or tuple
    of records.
    """

    COLUMNS = ("time", "kind", "epoch", "atom", "clicks", "strong", "weak")
    __slots__ = COLUMNS
    __hash__ = None  # mutable arrays

    def __init__(self, time, kind, epoch, atom, clicks, strong, weak):
        self.time = np.asarray(time, dtype=np.float64)
        self.kind = np.asarray(kind, dtype=np.int8)
        self.epoch = np.asarray(epoch, dtype=np.int64)
        self.atom = np.asarray(atom, dtype=np.int64)
        self.clicks = np.asarray(clicks, dtype=np.int64)
        self.strong = np.asarray(strong, dtype=np.int64)
        self.weak = np.asarray(weak, dtype=np.int64)

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
    def gather(cls, logs: list["EventLog"], order: Union[np.ndarray, slice]) -> "EventLog":
        """The rows of ``logs`` put end to end, taken in ``order``.

        One column is gathered at a time, so besides ``logs`` and the result
        at most one column's copy is alive.
        """
        columns = (np.concatenate([getattr(g, name) for g in logs]) for name in cls.COLUMNS)
        return cls(*(col[order] for col in columns))

    @classmethod
    def concat(cls, logs: Iterable["EventLog"]) -> "EventLog":
        """The rows of ``logs`` put end to end."""
        logs = list(logs)
        return cls.gather(logs, slice(None)) if logs else cls.of(())

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

# A line as numpy's reader converts it. The kind field is one character wider
# than the longest kind, so that no longer field is cut down to a valid kind.
_ROW = np.dtype(
    [
        ("time", np.float64),
        ("kind", f"U{max(map(len, _CODE_OF_VALUE)) + 1}"),
        *((name, np.int64) for name in EventLog.COLUMNS[2:]),
    ]
)
# the first characters of the lines that hold no record: comments and blank lines
_NOT_DATA = "#\n"


#: What ``validate_log`` carries from a chunk of a log to the next: the last
#: record's time and epoch, and the last hit's epoch (None before any hit).
LogTail = tuple[float, int, Optional[int]]
_NO_TAIL: LogTail = (-math.inf, int(np.iinfo(np.int64).min), None)


def validate_log(records: Records, before: Optional[LogTail] = None) -> Optional[LogTail]:
    """Check the ordering invariants: times finite and nondecreasing, epochs
    nondecreasing, hit epochs consecutive.

    Consecutive hit epochs are what lets the hits imply every epoch start.
    Reports the first offending record, checking its time (finite, then
    not below the one before), epoch, then hit epoch.
    A log may be checked a chunk at a time: given as ``before`` the tail
    that the call on the records before returned, each call checks its
    records against them too, so the chunks raise what the whole log raises.
    Returns the tail of the records checked so far (None while there are none).
    """
    log = EventLog.of(records)
    last_time, last_epoch, last_hit = before or _NO_TAIL
    time = np.concatenate(([last_time], log.time))
    epoch = np.concatenate(([last_epoch], log.epoch))
    hit_at = np.flatnonzero(log.kind == HIT)
    hit_epochs = np.concatenate(
        (np.array([] if last_hit is None else [last_hit], np.int64), log.epoch[hit_at])
    )
    # NaN fails every comparison, so non-finite times are faults of their own
    time_bad = np.flatnonzero(~np.isfinite(log.time) | (time[1:] < time[:-1]))
    epoch_down = np.flatnonzero(epoch[1:] < epoch[:-1])
    not_next = hit_at[len(hit_at) + 1 - len(hit_epochs) :][np.diff(hit_epochs) != 1]
    firsts = [
        int(found[0]) if found.size else len(log) for found in (time_bad, epoch_down, not_next)
    ]
    first = min(firsts)
    if first == len(log):
        if not len(log):
            return before
        return (
            float(log.time[-1]),
            int(log.epoch[-1]),
            int(hit_epochs[-1]) if hit_epochs.size else None,
        )
    r = log[first]
    if first == firsts[0]:
        if not math.isfinite(r.time):
            raise ValueError(f"record time is not finite at epoch={r.epoch}")
        raise ValueError(f"record times decrease at t={r.time}")
    if first == firsts[1]:
        raise ValueError(f"record epochs decrease at epoch={r.epoch}")
    raise ValueError(f"hit at epoch={r.epoch} does not follow the previous hit's epoch")


def _record_text(log: EventLog) -> Iterator[str]:
    """The lines of the log's records, ``_CHUNK`` records at a time."""
    kinds = [k.value for k in KINDS]
    for i in range(0, len(log), _CHUNK):
        rows = zip(*(col[i : i + _CHUNK].tolist() for col in log.columns()))
        yield "".join(
            [f"{t!r}\t{kinds[k]}\t{e}\t{a}\t{c}\t{s}\t{w}\n" for t, k, e, a, c, s, w in rows]
        )


def serialize_log(records: Records) -> str:
    return "".join(chain((_HEADER,), _record_text(EventLog.of(records))))


def open_log(path: Path) -> TextIO:
    """``path`` opened for writing with a log's header; ``append_records`` writes the rest."""
    fh = Path(path).open("w", encoding="utf-8")
    fh.write(_HEADER)
    return fh


def append_records(fh: TextIO, records: Records) -> None:
    """Write the lines of ``records`` to the open log file ``fh``, a chunk of records at a time.

    A file ``open_log`` opened, given a log's records in consecutive blocks,
    holds the text ``serialize_log`` gives for the whole log.
    """
    for text in _record_text(EventLog.of(records)):
        fh.write(text)


def parse_log(text: str) -> EventLog:
    """The records of a log's text, converted ``_CHUNK`` lines at a time."""
    return EventLog.concat(_chunks(io.StringIO(text, newline=None)))


def read_log(path: Path) -> EventLog:
    """The records of a log's file: the chunks ``iter_log`` reads, put together."""
    return EventLog.concat(iter_log(path))


def iter_log(path: Path) -> Iterator[EventLog]:
    """The records of a log's file, read and converted ``_CHUNK`` lines at a time."""
    with Path(path).open(encoding="utf-8") as fh:
        yield from _chunks(fh)


def _chunks(lines: Iterator[str]) -> Iterator[EventLog]:
    """The records of ``lines``, a log's lines, converted ``_CHUNK`` lines at a time."""
    lineno = 0  # lines before this chunk
    while chunk := list(islice(lines, _CHUNK)):
        if not lineno and chunk[0].startswith(_MAGIC):
            version = chunk[0][len(_MAGIC) :].strip()
            if version != f"v{FORMAT_VERSION}":
                raise ValueError(
                    f"line 1: event log format {version}; this reader reads v{FORMAT_VERSION}"
                )
        data = [line for line in chunk if line[0] not in _NOT_DATA]
        if data:
            yield _records(data, chunk, lineno)
        lineno += len(chunk)


def _records(data: list[str], chunk: list[str], lineno: int) -> EventLog:
    """The records of ``data``, the data lines of ``chunk``, which follows line ``lineno``."""
    try:
        rows = np.loadtxt(data, dtype=_ROW, delimiter="\t", comments=None, ndmin=1)
    except ValueError as exc:
        # Name the first line numpy rejects. A line with a field too many or
        # too few comes before any line whose fields do not convert.
        numbered = [
            (n, line) for n, line in enumerate(chunk, lineno + 1) if line[0] not in _NOT_DATA
        ]
        for n, line in numbered:
            if line.count("\t") != 6:
                raise ValueError(f"line {n}: expected 7 tab-separated fields") from None
        for n, line in numbered:
            try:
                np.loadtxt([line], dtype=_ROW, delimiter="\t", comments=None)
            except ValueError as line_exc:
                # numpy names the row and column within this one line: drop them
                why = str(line_exc).partition(" at row ")[0]
                raise ValueError(f"line {n}: {why}") from None
        raise
    kind = rows["kind"]
    codes = np.full(len(rows), -1, dtype=np.int8)
    for value, code in _CODE_OF_VALUE.items():
        codes[kind == value] = code
    bad = np.flatnonzero(codes < 0)
    if bad.size:
        # the line's own field: the kind column may have cut a longer one short
        kind = data[bad[0]].split("\t")[1]
        raise ValueError(f"{kind!r} is not a valid EventKind")
    return EventLog(rows["time"], codes, *(rows[name] for name in EventLog.COLUMNS[2:]))


def hits(records: Records) -> EventLog:
    return EventLog.of(records).of_kind(EventKind.HIT)
