#!/usr/bin/env python3
"""Weak-photon timing across all four level configurations.

For each configuration, runs one long trajectory and tabulates where
the weak photon lands relative to its dark interval. Expected: dark
periods end with the weak photon when the weak level sits above ground
(V, cascade-up) and begin with it when the weak level sits below
(Lambda, cascade-down).

Usage: python scripts/timing_survey.py [duration] [seed]
"""

import sys

import telegraphsim as ts
from telegraphsim.config import RunConfig
from telegraphsim.runner import run_trajectory


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 4e5
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 2024

    print(f"{'configuration':<20} {'darks':>6} {'at_end':>7} {'at_start':>9} {'ambiguous':>10}")
    for kind in ("v", "lambda", "cascade_weak_up", "cascade_weak_down"):
        cfg = RunConfig(kind=kind, duration=duration, master_seed=seed)
        result = run_trajectory(cfg, 0)
        seg = ts.segment_telegraph(result.records, cfg.resolved_threshold())
        rep = ts.classify_weak_timing(
            result.records, seg, cfg.config_kind(), cfg.rate_set()
        )
        print(
            f"{kind:<20} {len(seg.dark_intervals):>6}"
            f" {rep.count(ts.WeakTiming.AT_END):>7}"
            f" {rep.count(ts.WeakTiming.AT_START):>9}"
            f" {rep.count(ts.WeakTiming.AMBIGUOUS):>10}"
        )


if __name__ == "__main__":
    main()
