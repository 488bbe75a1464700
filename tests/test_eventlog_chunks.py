"""The event log's chunked reader and writer.

``parse_log`` converts a text ``_CHUNK`` lines at a time with numpy's
reader, and ``iter_log`` a file; the per-field parser in ``references.py``
is the oracle of both, column for column and dtype for dtype, and of their
errors. ``run`` writes each log through ``append_records`` a block of
records at a time, with the bytes ``serialize_log`` gives.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from references import parse_log_by_fields
from telegraphsim import eventlog, runner
from telegraphsim.cli import main
from telegraphsim.config import RunConfig
from telegraphsim.eventlog import (
    _CHUNK,
    EventKind,
    EventLog,
    EventRecord,
    iter_log,
    parse_log,
    read_log,
    serialize_log,
    validate_log,
)
from test_golden_logs import _cases

HEADER_LINES = 2
LINE = "0.0\thit\t0\t0\t0\t0\t0"


def assert_same_columns(got: EventLog, want: EventLog) -> None:
    """Every column of ``got`` has ``want``'s dtype and bytes, so -0.0 and nan count too."""
    for name in EventLog.COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return exc


def read_streamed(text: str, tmp_path: Path) -> EventLog:
    """``text`` written to a file and read back by ``iter_log``, a chunk at a time."""
    path = tmp_path / "events.tsv"
    path.write_text(text, encoding="utf-8")
    chunks = list(iter_log(path))
    assert all(len(chunk) <= _CHUNK for chunk in chunks)
    return EventLog.concat(chunks)


#: the whole-text reader and the file-streaming reader
READERS = {"text": lambda text, tmp_path: parse_log(text), "file": read_streamed}


def test_golden_logs_read_as_the_per_field_parser_reads_them(tmp_path):
    logs = 0
    for name, cfg in _cases().items():
        out = tmp_path / name
        assert runner.run(replace(cfg, out=str(out))) == 0
        for path in sorted(out.glob("events_*.tsv")):
            log = read_log(path)
            assert_same_columns(log, parse_log_by_fields(path.read_text(encoding="utf-8")))
            assert serialize_log(log).encode("utf-8") == path.read_bytes(), f"{name}/{path.name}"
            logs += 1
    assert logs > len(_cases())


EDGE_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, float("inf"), float("-inf")]
)
EDGE_INTS = st.integers(min_value=-(2**63), max_value=2**63 - 1) | st.sampled_from(
    [-(2**63), 2**63 - 1, -1, 0]
)
edge_records = st.lists(
    st.builds(
        EventRecord,
        time=EDGE_FLOATS,
        kind=st.sampled_from(list(EventKind)),
        epoch=EDGE_INTS,
        atom=EDGE_INTS,
        clicks=EDGE_INTS,
        strong=EDGE_INTS,
        weak=EDGE_INTS,
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(edge_records)
def test_edge_values_read_as_the_per_field_parser_reads_them(recs):
    text = serialize_log(recs)
    log = parse_log(text)
    assert_same_columns(log, parse_log_by_fields(text))
    assert serialize_log(log) == text


def long_log(n_records: int) -> EventLog:
    """A valid log whose epochs hold three crossings and a hit each."""
    rng = np.random.default_rng(3)
    epoch = np.arange(n_records) // 4
    kind = np.where(np.arange(n_records) % 4 == 3, eventlog.HIT, eventlog.WEAK_EDGE_CROSSING)
    ints = rng.integers(0, 2**40, size=(4, n_records))
    return EventLog(np.cumsum(rng.exponential(size=n_records)), kind, epoch, *ints)


def test_chunk_boundaries_inside_epochs_with_crossings(tmp_path):
    log = long_log(2 * _CHUNK + 9)
    validate_log(log)
    text = serialize_log(log)
    for boundary in (_CHUNK, 2 * _CHUNK):  # lines before a chunk, header included
        last, first = boundary - HEADER_LINES - 1, boundary - HEADER_LINES
        assert log.epoch[last] == log.epoch[first]
        assert log.kind[last] == eventlog.WEAK_EDGE_CROSSING
    for read in READERS.values():
        got = read(text, tmp_path)
        assert_same_columns(got, parse_log_by_fields(text))
        assert_same_columns(got, log)
        assert serialize_log(got) == text


def with_lines(text: str, lines: dict[int, str]) -> str:
    """``text`` with each of ``lines`` inserted so that it is numbered by its key."""
    out = text.splitlines()
    for n in sorted(lines):
        out.insert(n - 1, lines[n])
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("reader", sorted(READERS))
def test_comments_and_blank_lines_across_chunk_edges(reader, tmp_path):
    log = long_log(2 * _CHUNK + 9)
    around = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 3)
    text = with_lines(serialize_log(log), {n: "# a comment" if n % 2 else "" for n in around})
    got = READERS[reader](text, tmp_path)
    assert_same_columns(got, parse_log_by_fields(text))
    assert_same_columns(got, log)
    bad = with_lines(text, {2 * _CHUNK + 7: "1.0\thit\t0"})
    assert str(outcome(lambda t: READERS[reader](t, tmp_path), bad)) == (
        f"line {2 * _CHUNK + 7}: expected 7 tab-separated fields"
    )


@pytest.mark.parametrize("reader", sorted(READERS))
def test_an_unknown_kind_in_a_later_chunk(reader, tmp_path):
    text = with_lines(serialize_log(long_log(2 * _CHUNK + 9)), {2 * _CHUNK + 6: LINE.replace("hit", "flash")})
    got = outcome(lambda t: READERS[reader](t, tmp_path), text)
    want = outcome(parse_log_by_fields, text)
    assert isinstance(got, ValueError) and str(got) == str(want) == "'flash' is not a valid EventKind"


# case: (text, the reader's message where it is not the per-field parser's)
MALFORMED = {
    "short line": (f"# header\n{LINE}\n1.0\thit\t0\n", None),
    "long line": (f"{LINE}\n{LINE}\t1\n", None),
    "unknown kind": ("0.0\tflash\t0\t0\t0\t0\t0\n", None),
    "kind one character long": (LINE.replace("hit", "weak_edge_crossingX") + "\n", None),
    "kind longer than the kind column": (
        LINE.replace("hit", "weak_edge_crossingXYZ") + "\n", None
    ),
    "v1 start in a v3 log": (LINE.replace("hit", "epoch_start") + "\n", None),
    "# in the kind": (LINE.replace("hit", "hit#x") + "\n", None),
    # Python's float and int named no line
    "# in a float": (
        LINE.replace("0.0", "0.0#x", 1) + "\n",
        "line 1: could not convert string '0.0#x' to float64",
    ),
    "# in an int": (
        LINE.replace("\t0\t", "\t0#\t", 1) + "\n",
        "line 1: could not convert string '0#' to int64",
    ),
    "int past int64": (
        LINE.replace("\t0\t", f"\t{2**64}\t", 1) + "\n",
        f"line 1: could not convert string '{2**64}' to int64",
    ),
    "int word": (
        LINE.replace("\t0\t", "\tzero\t", 1) + "\n",
        "line 1: could not convert string 'zero' to int64",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_logs_raise_where_the_per_field_parser_raises(case, tmp_path):
    text, message = MALFORMED[case]
    want = outcome(parse_log_by_fields, text)
    for read in READERS.values():
        got = outcome(lambda t: read(t, tmp_path), text)
        assert isinstance(got, ValueError) and isinstance(want, ValueError), (got, want)
        assert str(got) == (message or str(want))


@pytest.mark.parametrize("bad, message", [
    ("1.0\thit\t0", "expected 7 tab-separated fields"),
    (LINE.replace("\t0\t", "\tzero\t", 1), "could not convert string 'zero' to int64"),
])
def test_a_bad_line_in_a_later_chunk_is_named_by_its_number(bad, message, tmp_path):
    lines = serialize_log(long_log(2 * _CHUNK + 9)).splitlines()
    lines.insert(2 * _CHUNK + 5, bad)  # the line numbered 2 * _CHUNK + 6
    for read in READERS.values():
        with pytest.raises(ValueError) as raised:
            read("\n".join(lines) + "\n", tmp_path)
        assert str(raised.value) == f"line {2 * _CHUNK + 6}: {message}"


def test_analyze_names_a_bad_line_in_the_second_chunk(tmp_path, capsys):
    lines = serialize_log(long_log(2 * _CHUNK + 9)).splitlines()
    lines.insert(_CHUNK + 4, "1.0\thit\t0")  # the line numbered _CHUNK + 5
    path = tmp_path / "events_000.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot read {path}: line {_CHUNK + 5}: expected 7 tab-separated fields\n"


@pytest.mark.parametrize("text", [
    "",
    serialize_log([]),
    serialize_log([]) + "\n\n# a comment\n",
])
def test_a_log_without_records_parses_empty_and_warns_nothing(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = parse_log(text)
    assert len(log) == 0
    assert_same_columns(log, parse_log_by_fields(text))


@pytest.mark.parametrize("records", [
    "",
    "0.5\tweak_edge_crossing\t0\t0\t0\t0\t1\t1.0\n1.0\thit\t0\t0\t1\t1\t1\t0.25\n",
], ids=["no records", "records"])
@pytest.mark.parametrize("version", [1, 2])
def test_a_log_of_another_format_version_is_refused(version, records, tmp_path, capsys):
    text = (
        f"# telegraph-event-log v{version}\n"
        "# time\tkind\tepoch\tatom\tclicks\tstrong\tweak\taux\n" + records
    )
    message = f"line 1: event log format v{version}; this reader reads v3"
    for read in READERS.values():
        assert str(outcome(lambda t: read(t, tmp_path), text)) == message
    assert str(outcome(parse_log_by_fields, text)) == message
    path = tmp_path / "events_000.tsv"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot read {path}: {message}\n"


def test_numpy_reader_gets_at_most_a_chunk_of_lines(monkeypatch, tmp_path):
    sizes = []
    loadtxt = np.loadtxt

    def spy(lines, *args, **kwargs):
        sizes.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    log = long_log(2 * _CHUNK + 9)
    path = tmp_path / "events_000.tsv"
    path.write_text(serialize_log(log), encoding="utf-8")
    assert_same_columns(read_log(path), log)
    assert max(sizes) <= _CHUNK
    assert sum(sizes) == len(log) and len(sizes) == 3


class _Recorder:
    """A file opened for writing that keeps each text written to it."""

    def __init__(self, fh, writes: list[str]):
        self._fh, self._writes = fh, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text: str) -> int:
        self._writes.append(text)
        return self._fh.write(text)


def test_run_writes_each_log_a_chunk_of_records_at_a_time(monkeypatch, tmp_path):
    # about 1e4 hits: a log of two chunks
    cfg = RunConfig(duration=3e4, master_seed=5, trajectories=2, out=str(tmp_path / "out"))
    writes: dict[str, list[str]] = {}
    path_open = Path.open

    def recording_open(self, mode="r", *args, **kwargs):
        fh = path_open(self, mode, *args, **kwargs)
        if "w" in mode and self.name.startswith("events_"):
            return _Recorder(fh, writes.setdefault(self.name, []))
        return fh

    def whole_log(records):
        raise AssertionError("run formatted a whole log at once")

    monkeypatch.setattr(Path, "open", recording_open)
    monkeypatch.setattr(runner, "serialize_log", whole_log)
    monkeypatch.setattr(eventlog, "serialize_log", whole_log)
    assert runner.run(cfg) == 0
    monkeypatch.undo()

    assert sorted(writes) == ["events_000.tsv", "events_001.tsv"]
    for name, pieces in writes.items():
        records = [piece.count("\n") for piece in pieces if not piece.startswith("#")]
        assert max(records) <= _CHUNK and len(records) >= 2, name
        log = read_log(tmp_path / "out" / name)
        assert sum(records) == len(log)
        assert (tmp_path / "out" / name).read_bytes() == serialize_log(log).encode("utf-8")
