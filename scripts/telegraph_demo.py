#!/usr/bin/env python3
"""Run one V-configuration trajectory and show the telegraph signal.

Usage: python scripts/telegraph_demo.py [duration] [seed]
"""

import sys

import numpy as np

import telegraphsim as ts
from telegraphsim.config import RunConfig
from telegraphsim.runner import run_trajectory


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 2e5
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 42
    cfg = RunConfig(kind="v", duration=duration, master_seed=seed)

    result = run_trajectory(cfg, 0)
    seg = ts.segment_telegraph(result.records, cfg.resolved_threshold())
    stats = ts.interval_stats(seg)

    print(f"V configuration, duration {duration:g}, seed {seed}")
    print(f"  epochs: {result.epochs}, hits: {len(ts.hits(result.records))}")
    print(f"  bright intervals: {stats.bright_count} (mean {stats.bright_mean:.1f})")
    print(f"  dark intervals:   {stats.dark_count}", end="")
    if stats.dark_count:
        print(f" (mean {stats.dark_mean:.1f}, fitted rate {stats.dark_rate_estimate:.2e})")
    else:
        print()

    # coarse strip chart: one character per bin, # = fluorescing
    # a bin is dark when its midpoint t has start < t <= end for some dark interval
    bins = 100
    span = seg.last_hit - seg.first_hit
    t = seg.first_hit + (np.arange(bins) + 0.5) * span / bins
    k = np.searchsorted(seg.dark_intervals[:, 0], t, side="left") - 1
    ends = np.append(seg.dark_intervals[:, 1], -np.inf)  # k = -1: before every dark interval
    print("  signal: " + "".join(np.where(t <= ends[k], ".", "#")))


if __name__ == "__main__":
    main()
