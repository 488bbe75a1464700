"""``analysis.LogFold`` over a log cut into blocks anywhere gives the whole log's summary.

The golden ``both`` logs (weak-edge crossings at weak/strong ratio 0.1, on
both engines, and dark periods in every renewal log) are cut at random points with a fixed seed, and
among the cuts are one-record blocks, a cut between a dark epoch's crossing
and its hit, and a cut at a dark period's closing hit. The fold's summary
must equal, field for field, the fold of the whole log as one block and
``references.analyze_whole_log``. ``validate_log``, given each block and
the tail the block before returned, passes what it passes whole and raises
the whole log's message for a breach placed exactly on a cut.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from references import analyze_whole_log
from telegraphsim import runner
from telegraphsim.analysis import LogFold
from telegraphsim.cli import analyze_log
from telegraphsim.eventlog import HIT, WEAK_EDGE_CROSSING, EventLog, validate_log
from test_golden_logs import _cases

#: the logged golden cases with both lasers; the no-observer mode logs nothing
BOTH = sorted(
    name for name, cfg in _cases().items()
    if cfg.lasers == "both" and cfg.mode != "original_no_observer"
)
#: records of each log that also go through the fold one record per block
ONE_BY_ONE = 300


@lru_cache(maxsize=None)
def _logs(name: str) -> list[EventLog]:
    cfg = _cases()[name]
    epochs = runner._CompiledEpochs(cfg)
    return [runner.run_trajectory(cfg, i, epochs).records for i in range(cfg.trajectories)]


def _cuts(log: EventLog, cfg, rng: np.random.Generator) -> list[int]:
    """Random cuts, one-record blocks, and cuts at a dark epoch's last crossing and its hit."""
    n = len(log)
    cuts = set(rng.choice(np.arange(1, n), size=min(n - 1, 10), replace=False).tolist())
    one = int(rng.integers(1, n - 1))
    cuts |= {1, one, one + 1}  # the first record alone, and one more record alone
    hit_at = np.flatnonzero(log.kind == HIT)
    gaps = np.diff(log.time[hit_at]) > cfg.resolved_threshold()
    closing = hit_at[1:][gaps]  # the hits that end a dark period
    before = closing[log.kind[closing - 1] == WEAK_EDGE_CROSSING]
    for at in (before, closing):
        cuts |= {int(rng.choice(at))} if at.size else set()
    return sorted(cuts)


def _blocks(log: EventLog, cuts: list[int]) -> list[EventLog]:
    bounds = [0, *cuts, len(log)]
    return [log[a:b] for a, b in zip(bounds, bounds[1:])]


def _fold(cfg, blocks: list[EventLog]) -> LogFold:
    fold = LogFold(cfg.resolved_threshold())
    for block in blocks:
        fold.add(block)
    return fold


def _folded(cfg, blocks: list[EventLog]) -> dict:
    fold = _fold(cfg, blocks)
    gap = None if fold.max_gap is None else float(fold.max_gap)
    return {"hits": fold.hits, "max_gap": gap, "analysis": analyze_log(cfg, fold)}


@pytest.mark.parametrize("name", BOTH)
def test_the_fold_of_any_blocks_is_the_whole_logs_summary(name):
    cfg = _cases()[name]
    rng = np.random.default_rng(2024)
    for log in _logs(name):
        want = analyze_whole_log(cfg, log)
        # the steps engine's short logs may hold no dark period
        assert cfg.engine == "steps" or "timing" in want["analysis"]
        assert analyze_log(cfg, _fold(cfg, [log])) == want["analysis"]
        for _ in range(3):
            assert _folded(cfg, _blocks(log, _cuts(log, cfg, rng))) == want
        head = log[:ONE_BY_ONE]
        one_by_one = _blocks(head, list(range(1, len(head))))
        assert _folded(cfg, one_by_one) == analyze_whole_log(cfg, head)


@pytest.mark.parametrize("name", BOTH)
def test_blocks_validate_as_the_whole_log(name):
    cfg = _cases()[name]
    rng = np.random.default_rng(7)
    for log in _logs(name):
        tail = None
        for block in _blocks(log, _cuts(log, cfg, rng)):
            tail = validate_log(block, tail)
        assert tail == validate_log(log)


def _breach(log: EventLog, kind: str, rng: np.random.Generator) -> tuple[EventLog, int]:
    """A copy of ``log`` with one breach of ``kind``, and the record it is on."""
    bad = EventLog(*(col.copy() for col in log.columns()))
    if kind == "hit epoch":
        # every later epoch one more: the hit skips an epoch, nothing decreases
        at = int(rng.choice(np.flatnonzero(log.kind == HIT)[1:]))
        bad.epoch[at:] += 1
        return bad, at
    at = int(rng.integers(1, len(log)))
    if kind == "time":
        bad.time[at] = bad.time[at - 1] - 1.0
    elif kind == "non-finite time":
        bad.time[at] = rng.choice([np.nan, np.inf, -np.inf])
    else:
        bad.epoch[at] = bad.epoch[at - 1] - 1
    return bad, at


@pytest.mark.parametrize("kind", ["time", "non-finite time", "epoch", "hit epoch"])
def test_a_breach_on_a_cut_raises_the_whole_logs_message(kind):
    rng = np.random.default_rng(11)
    for name in BOTH:
        cfg = _cases()[name]
        for log in _logs(name):
            bad, at = _breach(log, kind, rng)
            with pytest.raises(ValueError) as whole:
                validate_log(bad)
            blocks = _blocks(bad, sorted({*_cuts(log, cfg, rng), at}))
            starts = np.cumsum([0] + [len(b) for b in blocks])
            tail = None
            with pytest.raises(ValueError) as streamed:
                for i, block in enumerate(blocks):
                    tail = validate_log(block, tail)
            assert starts[i] == at  # the block that starts on the breach raised
            assert str(streamed.value) == str(whole.value)


def test_a_crossing_logged_after_its_dark_periods_closing_hit_counts():
    # valid, though a run writes an epoch's crossings before its hit
    cfg = _cases()["v-both-renewal"]
    assert cfg.resolved_threshold() < 50.0
    records = [
        (0.0, HIT, 0), (1.0, HIT, 1), (90.0, HIT, 2), (90.5, WEAK_EDGE_CROSSING, 2),
        (91.0, HIT, 3),
    ]
    time, kind, epoch = map(np.array, zip(*records))
    zeros = np.zeros(len(time), np.int64)
    log = EventLog(time, kind, epoch, zeros, zeros, zeros, zeros)
    validate_log(log)
    want = analyze_whole_log(cfg, log)
    assert want["analysis"]["timing"] == {"at_end": 1, "at_start": 0, "ambiguous": 0}
    for cut in range(1, len(log)):
        assert _folded(cfg, _blocks(log, [cut])) == want
