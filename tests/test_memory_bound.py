"""``run`` and ``analyze`` hold a block of a log at a time, never the whole log.

Each command runs as a child process at two durations, ten times apart, and
its peak RSS (``ru_maxrss`` from ``os.wait4``) may grow by less than
``GROWTH_MB`` from the shorter to the longer. At the default V config and
seed 4242 a 2e5-unit log holds about 67,000 records (4.3 MB of text, 3.8 MB
as columns) and a 2e4-unit one about 6,700, already three ``_CHUNK``
blocks, so a command that holds a block at a time peaks at about the same
RSS for both. A command that holds the whole log grows by about 11 MB.

A child's ``ru_maxrss`` starts at its parent's RSS (a child begins as a copy
of it), and this test process may be large. So each command is started by
a bare interpreter, ``LAUNCHER``, which reads the command's own peak.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import telegraphsim as ts

GROWTH_MB = 3.0
DURATIONS = ("2e4", "2e5")

LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "telegraphsim", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_mb(*args: str) -> float:
    """Peak RSS in MB of ``python -m telegraphsim ARGS``, which must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(Path(ts.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    code, kilobytes = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return kilobytes / 1024  # ru_maxrss is in KB on Linux


def test_peak_rss_does_not_grow_with_the_log(tmp_path):
    peaks = {"run": [], "analyze": []}
    for duration in DURATIONS:
        out = tmp_path / duration
        peaks["run"].append(
            _peak_mb("run", "--duration", duration, "--seed", "4242", "--out", str(out))
        )
        peaks["analyze"].append(_peak_mb("analyze", str(out / "events_000.tsv")))
    growth = {cmd: round(long - short, 2) for cmd, (short, long) in peaks.items()}
    assert all(g < GROWTH_MB for g in growth.values()), (growth, peaks)
