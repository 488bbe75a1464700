"""The columnar event log against the record sequences it replaces."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from telegraphsim.eventlog import (
    EventKind,
    EventLog,
    EventRecord,
    hits,
    parse_log,
    serialize_log,
    validate_log,
)

INT64 = st.integers(min_value=0, max_value=2**63 - 1)
FLOATS = st.floats(allow_nan=False)

records = st.lists(
    st.builds(
        EventRecord,
        time=FLOATS,
        kind=st.sampled_from(list(EventKind)),
        epoch=INT64,
        atom=st.integers(min_value=0, max_value=2),
        clicks=INT64,
        strong=INT64,
        weak=INT64,
    ),
    max_size=40,
)

# few distinct times and epochs, so that ties, decreases, non-finite times and repeated
# or skipped hit epochs all occur
near_valid = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.5, math.nan, math.inf, -math.inf]),
        st.sampled_from(list(EventKind)),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=12,
)


def reference_validate(records):
    """The record-by-record check that ``validate_log`` vectorizes."""
    last_t = -float("inf")
    last_e = -1
    last_hit = None
    for r in records:
        if not math.isfinite(r.time):
            raise ValueError(f"record time is not finite at epoch={r.epoch}")
        if r.time < last_t:
            raise ValueError(f"record times decrease at t={r.time}")
        if r.epoch < last_e:
            raise ValueError(f"record epochs decrease at epoch={r.epoch}")
        if r.kind is EventKind.HIT:
            if last_hit is not None and r.epoch != last_hit + 1:
                raise ValueError(f"hit at epoch={r.epoch} does not follow the previous hit's epoch")
            last_hit = r.epoch
        last_t, last_e = r.time, r.epoch


def outcome(check, recs):
    try:
        check(recs)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(records)
def test_round_trip_and_record_view(recs):
    log = EventLog.of(recs)
    assert len(log) == len(recs)
    text = serialize_log(recs)
    assert serialize_log(log) == text
    same = parse_log(text) == recs
    assert type(same) is bool and same
    differs = parse_log(text) != log
    assert type(differs) is bool and not differs
    assert list(log) == recs
    for r in log:
        assert type(r.time) is float and type(r.epoch) is int and type(r.weak) is int
    if recs:
        assert log[-1] == recs[-1]
        assert list(log[1:]) == recs[1:]
    assert list(hits(log)) == [r for r in recs if r.kind is EventKind.HIT]
    assert list(EventLog.of(recs).of_kind(EventKind.WEAK_EDGE_CROSSING)) == [r for r in recs if r.kind is EventKind.WEAK_EDGE_CROSSING]


@settings(max_examples=300, deadline=None)
@given(near_valid)
def test_validate_matches_record_by_record_check(rows):
    recs = [EventRecord(t, k, e, 0, 0, 0, 0) for t, k, e in rows]
    for candidate in (recs, sorted(recs, key=lambda r: (r.epoch, r.time))):
        assert outcome(validate_log, candidate) == outcome(reference_validate, candidate)
        assert outcome(validate_log, EventLog.of(candidate)) == outcome(
            reference_validate, candidate
        )


def test_validate_rejects_each_violation():
    crossing = EventRecord(0.5, EventKind.WEAK_EDGE_CROSSING, 0, 0, 0, 0, 1)
    hit = EventRecord(1.0, EventKind.HIT, 0, 0, 1, 1, 1)
    next_hit = EventRecord(2.0, EventKind.HIT, 1, 0, 2, 2, 1)
    validate_log([crossing, hit, next_hit])
    with pytest.raises(ValueError, match="times decrease at t=0.5"):
        validate_log([hit, crossing])
    with pytest.raises(ValueError, match="epochs decrease at epoch=0"):
        validate_log([next_hit, replace(hit, time=2.0)])
    with pytest.raises(ValueError, match="hit at epoch=0 does not follow"):
        validate_log([hit, replace(next_hit, epoch=0)])
    with pytest.raises(ValueError, match="hit at epoch=2 does not follow"):
        validate_log([crossing, hit, replace(next_hit, epoch=2)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="time is not finite at epoch=1"):
            validate_log([crossing, hit, replace(next_hit, time=bad)])


def test_parse_rejects_bad_lines():
    with pytest.raises(ValueError, match="line 3: expected 7 tab-separated fields"):
        parse_log("# header\n0.0\thit\t0\t0\t0\t0\t0\n1.0\thit\t0\n")
    with pytest.raises(ValueError, match="not a valid EventKind"):
        parse_log("0.0\tflash\t0\t0\t0\t0\t0\n")
    with pytest.raises(ValueError):
        parse_log("0.0\thit\tzero\t0\t0\t0\t0\n")
    with pytest.raises(ValueError):
        parse_log(f"0.0\thit\t{2**64}\t0\t0\t0\t0\n")
