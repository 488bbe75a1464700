"""Exact invariances between two runs on the same host.

Each test compares two runs made in one process, so it holds bit for bit
whatever BLAS kernel or vector paths the host picks, unlike the golden
digests, which pin one host's floats.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from telegraphsim import runner
from telegraphsim.config import RunConfig
from telegraphsim.eventlog import EventLog, hits

KINDS = ("v", "lambda", "cascade_weak_up", "cascade_weak_down")
#: (engine, duration) of each run; ``steps`` takes a step per ``dt_max``
ENGINES = (("renewal", 2e4), ("steps", 300.0))


def _log(cfg: RunConfig) -> EventLog:
    return runner.run_trajectory(cfg, 0).records


@pytest.mark.parametrize("engine, duration", ENGINES, ids=[e for e, _ in ENGINES])
@pytest.mark.parametrize("kind", KINDS)
def test_doubled_rates_halve_every_time(kind, engine, duration):
    """Doubling every rate and halving every time parameter halves each logged time exactly.

    The generator doubles and every step halves, so every propagator is
    the same matrix; the template grid halves, and the crossing densities
    scale without changing their medians' positions on it. Every column
    but the time is identical.
    """
    cfg = RunConfig(
        kind=kind, engine=engine, duration=duration, master_seed=11, dt_max=0.05,
        threshold_gap=15.0, k_weak_absorb=0.1, k_weak_emit=0.1,
    )
    fast = replace(
        cfg,
        k_strong_absorb=2 * cfg.k_strong_absorb,
        k_strong_emit=2 * cfg.k_strong_emit,
        k_weak_absorb=2 * cfg.k_weak_absorb,
        k_weak_emit=2 * cfg.k_weak_emit,
        duration=cfg.duration / 2,
        dt_max=cfg.dt_max / 2,
        threshold_gap=cfg.threshold_gap / 2,
    )
    slow_log, fast_log = _log(cfg), _log(fast)
    assert len(hits(slow_log)) > 50 and len(slow_log) > len(hits(slow_log))  # crossings too
    assert (fast_log.time * 2).tobytes() == slow_log.time.tobytes()
    for name in EventLog.COLUMNS[1:]:
        assert np.array_equal(getattr(fast_log, name), getattr(slow_log, name)), name


@pytest.mark.parametrize(
    "engine, duration, same",
    [
        ("renewal", 2e4, [("v", "cascade_weak_down"), ("lambda", "cascade_weak_up")]),
        ("steps", 300.0, [KINDS]),
    ],
    ids=["renewal", "steps"],
)
def test_equal_rates_share_hit_trains(engine, duration, same):
    """At equal rates, configurations with the same compiled generator give the same hit times.

    V and the weak-down cascade differ only in which edge of the weak
    cycle creates the photon, as do Lambda and the weak-up cascade, so
    with all four rates 1.0 each pair compiles the same generator and
    hits at the same times, bitwise, on both engines. V and Lambda differ
    only in their first epoch: every later Lambda epoch starts on the
    strong level, whose epoch is V's ground epoch relabelled. On
    ``steps`` at the default ``dt_max`` this seed's first hits coincide
    too, so all four trains are equal.
    """
    base = RunConfig(
        engine=engine, duration=duration, master_seed=5, k_weak_absorb=1.0, k_weak_emit=1.0
    )
    for group in same:
        times = [hits(_log(replace(base, kind=kind))).time for kind in group]
        assert len(times[0]) > 50
        for kind, t in zip(group[1:], times[1:]):
            assert t.tobytes() == times[0].tobytes(), f"{group[0]} against {kind}"
