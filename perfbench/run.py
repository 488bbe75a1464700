#!/usr/bin/env python3
"""The telegraphsim benchmark: the user-visible path, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload v_default_long --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each

A workload is a list of ``telegraphsim run`` invocations (generated CLI
flags; the master seeds come from ``--seed``) followed by one
``telegraphsim analyze`` per invocation over the logs it wrote, with the
same flags. The loop is closed with one client: one
``python -m telegraphsim`` child at a time, from this single process.

``--trace 0`` measures the end-to-end metrics in child processes:
set-up time from a few runs too short for any epoch to finish, then
whole samples (run + analyze) until ``--seconds`` is spent, reporting
medians of times rescaled to a reference machine speed (see SpeedProbe).
``--trace 1`` calls ``telegraphsim.cli.main`` in this process,
once untraced and once with spans around each layer's public functions
(see spans.py), and reports the per-layer metrics.

Every child is an operation; it fails on a nonzero exit or a failed
output check. The human-readable table goes first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 when every check passed,
1 when one failed and 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import re
import select
import signal
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
DIGESTS = BENCH_DIR / "digests.json"

SETUP_REPEATS = 3
SETUP_DURATION = 1e-9  # shorter than any epoch: start-up, config, first graph/template only
MIN_SAMPLES = 2  # the determinism check needs two
MAX_SAMPLES = 50
CHILD_TIMEOUT_S = 150.0
TRACE_PAIRS = 3
PROBE_LOOPS = 500_000
PROBE_REFERENCE_S = 0.055  # the probe's time at the reference speed: about its median on the 2-vCPU VM in README.md
MASS_RESIDUAL_LIMIT = 1e-6

# Where the weak photon sits in a dark period, per level configuration.
EXPECTED_TIMING = {
    "v": "at_end",
    "cascade_weak_up": "at_end",
    "lambda": "at_start",
    "cascade_weak_down": "at_start",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[dict, ...]  # flag -> value for each `run`; --seed/--out are added


FAST_WEAK = {"k-weak-absorb": 0.1, "k-weak-emit": 0.1, "threshold-gap": 15.0}

WORKLOADS = (
    Workload(
        "v_default_long",
        "The default V config and renewal engine, one long trajectory: per-epoch objects, log "
        "serialisation and parsing dominate; template builds cost almost nothing.",
        ({"duration": 2e5},),
    ),
    Workload(
        # One trajectory of the same total length swings its epoch count by about 15% from
        # seed to seed (a dark period lasts about 1000 units); 12 short ones do not.
        "v_steps",
        "V on the steps engine at the default dt_max (criterion 1's path): flow.step and "
        "rules.trigger dominate and every epoch builds its graph.",
        ({"engine": "steps", "duration": 125.0, "trajectories": 12},),
    ),
    Workload(
        "four_kinds_fast_weak",
        "All four configurations at weak/strong ratio 0.1, 4 trajectories each: one template "
        "build per trajectory and thousands of weak-crossing reconstructions.",
        tuple(
            {"kind": kind, "trajectories": 4, "duration": 1000.0, **FAST_WEAK}
            for kind in ("v", "lambda", "cascade_weak_up", "cascade_weak_down")
        ),
    ),
)
WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    note: str  # for end-to-end metrics what it is; for per-layer ones what it should move


END_TO_END = (
    Metric("run_s", "s", "lower", "wall seconds of the workload's `run` invocations at the reference speed"),
    Metric("epochs_per_s", "1/s", "higher", "collapse epochs (report.jsonl) per run second"),
    Metric("analyze_s", "s", "lower", "wall seconds of `analyze` over every log the run wrote, at the reference speed"),
    Metric("setup_s", "s", "lower", "the same `run` invocations, too short for any epoch, at the reference speed"),
    Metric("peak_rss_mb", "MB", "lower", "highest peak RSS of the run and analyze children"),
    Metric("log_mb", "MB", "lower", "bytes written under out/, in 1e6 bytes"),
)
FAILED_FRAC = Metric("failed_frac", "1", "lower", "failed operations / attempted operations")

# Per-layer metrics, each with the end-to-end metric and workload it should move.
PER_LAYER = (
    Metric("runner.run_trajectory.self_s", "s", "lower", "run_s, epochs_per_s, peak_rss_mb on v_default_long"),
    Metric("runner.epochs", "count", "higher", "epochs_per_s on v_default_long"),
    Metric("runner.records", "count", "lower", "peak_rss_mb and run_s on v_default_long"),
    Metric("runner.summarize_trajectory.self_s", "s", "lower", "run_s on v_default_long"),
    Metric("runner.run.self_s", "s", "lower", "run_s and log_mb on v_default_long (file and report writing)"),
    Metric("state.labels_created", "count", "lower", "epochs_per_s on v_default_long and v_steps"),
    Metric("configurations.build_epoch.calls", "count", "lower", "run_s on v_steps; setup_s"),
    Metric("configurations.build_epoch.self_s", "s", "lower", "run_s on v_steps; setup_s"),
    Metric("configurations.extend_frontier.calls", "count", "lower", "run_s on v_steps"),
    Metric("epochs.template.builds", "count", "lower", "setup_s everywhere; run_s on four_kinds_fast_weak"),
    Metric("epochs.template.build_s", "s", "lower", "setup_s everywhere; run_s on four_kinds_fast_weak"),
    Metric("epochs.sample_hit.calls", "count", "lower", "epochs_per_s on v_default_long"),
    Metric("epochs.sample_hit.self_s", "s", "lower", "epochs_per_s on v_default_long"),
    Metric("epochs.crossing_times.calls", "count", "lower", "run_s on four_kinds_fast_weak"),
    Metric("epochs.crossing_times.self_s", "s", "lower", "run_s on four_kinds_fast_weak"),
    Metric("flow.step.calls", "count", "lower", "run_s on v_steps"),
    Metric("flow.step.self_s", "s", "lower", "run_s on v_steps"),
    Metric("flow.substeps", "count", "lower", "run_s on v_steps"),
    Metric("flow.expm.calls", "count", "lower", "setup_s; run_s on four_kinds_fast_weak"),
    Metric("flow.expm.s", "s", "lower", "setup_s; run_s on four_kinds_fast_weak"),
    Metric("rules.trigger.calls", "count", "lower", "run_s on v_steps"),
    Metric("rules.trigger.self_s", "s", "lower", "run_s on v_steps"),
    Metric("rules.trigger.hit_ratio", "hits/call", "higher", "run_s on v_steps"),
    Metric("rules.active_edges.calls", "count", "lower", "run_s on v_steps"),
    Metric("eventlog.serialize_log.self_s", "s", "lower", "run_s and log_mb on v_default_long"),
    Metric("eventlog.bytes", "B", "lower", "log_mb and run_s on v_default_long"),
    Metric("eventlog.parse_log.self_s", "s", "lower", "analyze_s on v_default_long"),
    Metric("analysis.segment_telegraph.self_s", "s", "lower", "analyze_s on all workloads; run_s via the summary"),
    Metric("analysis.interval_stats.self_s", "s", "lower", "analyze_s on all workloads; run_s via the summary"),
    Metric("analysis.classify_weak_timing.self_s", "s", "lower", "analyze_s on all workloads; run_s via the summary"),
    Metric("analysis.dark_intervals", "count", "higher", "analyze_s on all workloads"),
    Metric("cli.main.self_s", "s", "lower", "setup_s (argument and config parsing, printing)"),
    Metric("trace.run_s", "s", "lower", "traced in-process run time: the base of the run-phase shares"),
    Metric("trace.analyze_s", "s", "lower", "traced in-process analyze time: the base of the analyze-phase shares"),
    Metric("trace_overhead_s", "s", "lower", "traced minus untraced in-process run time"),
)


def _log_index(path) -> int:
    m = re.search(r"(\d+)", Path(path).stem)
    return int(m.group(1)) if m else -1


def _count(counter: str, value_of):
    def on_result(tracer, result) -> None:
        tracer.counts[counter] += value_of(result)

    return on_result


def _trajectory_counts(tracer, result) -> None:
    tracer.counts["runner.epochs"] += result.epochs
    tracer.counts["runner.records"] += len(result.records)


# (where callers look the function up, span name, result -> counts, args -> trajectory id)
PATCHES = (
    ("telegraphsim.cli:run", "runner.run", None, None),
    ("telegraphsim.runner:run_trajectory", "runner.run_trajectory", _trajectory_counts, lambda a: a[1]),
    ("telegraphsim.runner:summarize_trajectory", "runner.summarize_trajectory", None, lambda a: a[1]),
    ("telegraphsim.runner:build_epoch", "configurations.build_epoch", None, None),
    ("telegraphsim.configurations:build_epoch", "configurations.build_epoch", None, None),
    ("telegraphsim.runner:extend_frontier", "configurations.extend_frontier", None, None),
    ("telegraphsim.epochs:EpochTemplate.__init__", "epochs.template", None, None),
    ("telegraphsim.epochs:EpochTemplate.sample_hit", "epochs.sample_hit", None, None),
    ("telegraphsim.epochs:EpochTemplate.crossing_times", "epochs.crossing_times", None, None),
    ("telegraphsim.runner:step", "flow.step", _count("flow.substeps", lambda r: len(r[1].substeps)), None),
    ("telegraphsim.flow:expm", "flow.expm", None, None),
    ("telegraphsim.runner:trigger", "rules.trigger", _count("rules.trigger.hits", lambda r: r is not None), None),
    ("telegraphsim.runner:active_edges", "rules.active_edges", None, None),
    ("telegraphsim.runner:serialize_log", "eventlog.serialize_log", _count("eventlog.bytes", lambda r: len(r.encode("utf-8"))), None),
    ("telegraphsim.cli:read_log", "eventlog.read_log", None, lambda a: _log_index(a[0])),
    ("telegraphsim.eventlog:parse_log", "eventlog.parse_log", None, None),
)
for _site in ("runner", "cli"):
    PATCHES += (
        (f"telegraphsim.{_site}:segment_telegraph", "analysis.segment_telegraph",
         _count("analysis.dark_intervals", lambda r: len(r.dark_intervals)), None),
        (f"telegraphsim.{_site}:interval_stats", "analysis.interval_stats", None, None),
        (f"telegraphsim.{_site}:classify_weak_timing", "analysis.classify_weak_timing", None, None),
    )
COUNTED_CALLS = (("telegraphsim.state:ComponentLabel.__post_init__", "state.labels_created"),)

# Per-layer metrics read from counters, and the span whose results feed each.
COUNTERS = {
    "runner.epochs": "runner.run_trajectory",
    "runner.records": "runner.run_trajectory",
    "state.labels_created": "state.labels_created",
    "flow.substeps": "flow.step",
    "eventlog.bytes": "eventlog.serialize_log",
    "analysis.dark_intervals": "analysis.segment_telegraph",
}


# -- inputs -----------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    kind: str
    flags: tuple[str, ...]  # everything but the subcommand, --out included
    out: Path


def plan(workload: Workload, seed: int, work: Path, duration=None) -> list[Invocation]:
    """The generated CLI flags of every `run` in the workload; inputs come from ``seed`` only."""
    rng = random.Random(seed)
    out = []
    for i, inv in enumerate(workload.invocations):
        values = dict(inv)
        if duration is not None:
            values["duration"] = duration
        values["seed"] = rng.getrandbits(63)
        values["out"] = work / f"out{i}"
        flags = []
        for key, value in values.items():
            flags += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
        out.append(Invocation(inv.get("kind", "v"), tuple(flags), values["out"]))
    return out


# -- operations -------------------------------------------------------------


@dataclass
class Ledger:
    """Attempted and failed operations, with the reason for every failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))


@dataclass
class Child:
    returncode: int
    seconds: float
    rss_bytes: int
    stdout: str


def child_env() -> dict:
    """The environment of every child: the checkout's sources first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], log: Path) -> Child:
    """Run ``python -m telegraphsim <args>`` to completion; time it and read its peak RSS.

    A child's ``ru_maxrss`` is at least this process's own peak RSS (the child
    starts as a copy of it), so in end-to-end runs this process imports neither
    the program nor numpy and leaves log parsing to checklog.py.
    """
    env = child_env()
    argv = [sys.executable, "-m", "telegraphsim", *args]
    with open(log, "wb") as sink:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, seconds, usage.ru_maxrss * 1024, log.read_text(errors="replace"))


class SpeedProbe:
    """Rescales a run's wall times to a reference machine speed.

    On a shared host the machine's speed drifts by tens of percent over
    minutes as other tenants load it, and a child's wall time drifts with it.
    A fixed pure-Python loop (the probe) in this process slows down alike:
    over 30-second windows of identical children, their ratio to the median
    probe time spread 5% where the child time spread 15%. One child against
    the probes next to it does not track (the speed also swings within
    seconds), so the probe runs after every timed child and every time of
    the run is scaled by one factor, PROBE_REFERENCE_S over the median probe
    of the whole run. The probe uses none of the program's code, so a change
    to the program moves only the child's time.
    """

    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        self.probes.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self.probes)


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """One sha256 over the names and contents of every file under ``root``."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(f"{p.relative_to(root)}\0{file_digest(p)}\n".encode())
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# -- output checks ------------------------------------------------------------


def import_program():
    """Import the checkout's own telegraphsim (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    import telegraphsim

    if SRC not in Path(telegraphsim.__file__).resolve().parents:
        raise SystemExit(f"imported telegraphsim from {telegraphsim.__file__}, not from {SRC}")
    return telegraphsim


def verify_logs(logs: list[Path], verified: dict[str, list[str]]) -> tuple[dict[Path, str], list[str]]:
    """Runs checklog.py once over every log whose contents ``verified`` lacks and records
    their problems there by digest. Returns each log's digest, and the checker's own
    failure, if it failed."""
    digests = {path: file_digest(path) for path in logs}
    todo = [str(path) for path in logs if digests[path] not in verified]
    if todo:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "checklog.py"), *todo],
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        try:
            found = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return digests, [f"log checker failed: {proc.stderr[-500:]}"]
        for path in logs:
            verified.setdefault(digests[path], found.get(str(path), ["not checked"]))
    return digests, []


def check_logs(out: Path, verified: dict[str, list[str]]) -> list[str]:
    """checklog.py's problems for every log under ``out``; each distinct file is checked once."""
    logs = sorted(out.glob("events_*.tsv"))
    if not logs:
        return ["no event logs written"]
    digests, failure = verify_logs(logs, verified)
    return failure or [f"{path.name}: {p}" for path in logs for p in verified[digests[path]]]


def read_report(out: Path) -> tuple[list[dict], list[str]]:
    """The per-trajectory summaries of report.jsonl, plus problems with the report."""
    try:
        rows = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    except (OSError, ValueError) as exc:
        return [], [f"report.jsonl unreadable: {exc}"]
    aggregate = next((r["aggregate"] for r in rows if "aggregate" in r), {})
    residual = aggregate.get("worst_mass_residual")
    ok = residual is not None and residual < MASS_RESIDUAL_LIMIT
    problems = [] if ok else [f"worst_mass_residual {residual} is not below {MASS_RESIDUAL_LIMIT}"]
    return [r for r in rows if "aggregate" not in r], problems


_BLOCK = re.compile(r"^(?P<path>\S.*):$")
_COUNTS = re.compile(r"bright=(\d+) .*dark=(\d+)")
_TIMING = re.compile(r"weak timing: at_end=(\d+) at_start=(\d+) ambiguous=(\d+)")


def check_analysis(text: str, inv: Invocation, trajectories: list[dict]) -> list[str]:
    """analyze must agree with the run's report, and the weak photon must sit where the
    configuration puts it: most non-ambiguous dark periods at_end for V and the weak-up
    cascade, at_start for Lambda and the weak-down cascade."""
    per_log: dict[int, dict] = {}
    current = None
    for line in text.splitlines():
        if m := _BLOCK.match(line):
            current = per_log.setdefault(_log_index(m.group("path")), {})
        elif current is not None and (m := _COUNTS.search(line)):
            current["bright_intervals"], current["dark_intervals"] = map(int, m.groups())
        elif current is not None and (m := _TIMING.search(line)):
            current["timing"] = dict(zip(("at_end", "at_start", "ambiguous"), map(int, m.groups())))
    problems = []
    if len(per_log) != len(trajectories):
        problems.append(f"analyze covered {len(per_log)} logs, the run wrote {len(trajectories)}")
    totals = {"at_end": 0, "at_start": 0, "ambiguous": 0}
    for summary in trajectories:
        got = per_log.get(summary["trajectory"], {})
        for key in ("bright_intervals", "dark_intervals", "timing") if summary["hits"] else ():
            if got.get(key) != summary.get(key):
                problems.append(
                    f"trajectory {summary['trajectory']}: analyze {key}={got.get(key)}"
                    f" but the run reported {summary.get(key)}"
                )
        for k, v in got.get("timing", {}).items():
            totals[k] += v
    expected = EXPECTED_TIMING[inv.kind]
    decided = totals["at_end"] + totals["at_start"]
    dark = sum(summary.get("dark_intervals", 0) for summary in trajectories)
    if dark and not decided:
        problems.append(f"{inv.kind}: the run reported {dark} dark intervals but analyze decided"
                        f" the weak timing of none ({totals})")
    elif decided and not totals[expected] > decided / 2:
        problems.append(f"{inv.kind}: weak timing {totals}, expected mostly {expected}")
    return problems


# -- end-to-end measurement -----------------------------------------------------


@dataclass
class Sample:
    run_s: float = 0.0
    analyze_s: float = 0.0
    epochs: int = 0
    log_bytes: int = 0
    rss_bytes: int = 0


def check_run(inv: Invocation, verified: dict) -> tuple[list[dict], Optional[str], list[str]]:
    """The report's trajectory summaries, the digest of out/ and the problems of one finished `run`."""
    if not inv.out.is_dir():
        return [], None, ["no output directory"]
    trajectories, problems = read_report(inv.out)
    return trajectories, tree_digest(inv.out), problems + check_logs(inv.out, verified)


def _exit_problems(child: Child) -> list[str]:
    return [] if child.returncode == 0 else [f"exit {child.returncode}: {child.stdout[-500:]}"]


def run_sample(invs: list[Invocation], ledger: Ledger, verified: dict, digests: list, speed: SpeedProbe) -> Sample:
    """One pass of the workload: every `run`, then `analyze` on what each wrote."""
    sample = Sample()
    reports = []
    children = []
    for i, inv in enumerate(invs):
        shutil.rmtree(inv.out, ignore_errors=True)
        children.append(spawn(["run", *inv.flags], inv.out.parent / f"run{i}.txt"))
        speed.probe()
    # One checker child for the logs of every invocation: each child imports numpy.
    verify_logs([log for inv in invs for log in sorted(inv.out.glob("events_*.tsv"))], verified)
    for i, (inv, child) in enumerate(zip(invs, children)):
        sample.run_s += child.seconds
        sample.rss_bytes = max(sample.rss_bytes, child.rss_bytes)
        trajectories, digest, problems = check_run(inv, verified)
        problems = _exit_problems(child) + problems
        if digest is not None:
            if len(digests) == i:
                digests.append(digest)
            elif digests[i] != digest:
                problems.append("out/ differs from the first sample's (not deterministic)")
            sample.log_bytes += tree_bytes(inv.out)
        sample.epochs += sum(t.get("epochs", 0) for t in trajectories)
        reports.append(trajectories)
        ledger.record(f"run {' '.join(inv.flags)}", problems)

    for i, (inv, trajectories) in enumerate(zip(invs, reports)):
        logs = [str(p) for p in sorted(inv.out.glob("events_*.tsv"))]
        child = spawn(["analyze", *inv.flags, *logs], inv.out.parent / f"analyze{i}.txt")
        speed.probe()
        sample.analyze_s += child.seconds
        sample.rss_bytes = max(sample.rss_bytes, child.rss_bytes)
        problems = _exit_problems(child) or check_analysis(child.stdout, inv, trajectories)
        ledger.record(f"analyze {' '.join(inv.flags)}", problems)
    return sample


def setup_pass(invs: list[Invocation], ledger: Ledger, speed: SpeedProbe) -> float:
    """The workload's `run` invocations at a duration no epoch finishes in."""
    total = 0.0
    for i, inv in enumerate(invs):
        shutil.rmtree(inv.out, ignore_errors=True)
        child = spawn(["run", *inv.flags], inv.out.parent / f"setup{i}.txt")
        speed.probe()
        total += child.seconds
        ledger.record(f"setup run {' '.join(inv.flags)}", _exit_problems(child))
    return total


def measure_end_to_end(workload: Workload, seed: int, seconds: float, work: Path):
    """SETUP_REPEATS set-up passes, then samples while the next one, if it takes as
    long as the last, ends within ``seconds`` of the start (the first sample
    also checks every log, so it is the slowest).

    Returns each metric's per-sample values (times at the reference speed), the
    same for the times as the clock read, the ledger, the invocations, the log
    digests and the speed probe."""
    ledger = Ledger()
    for sub in ("setup", "samples"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    # Untimed warm-up: byte-compiles the sources, which users do not pay on every run.
    spawn(["run", "--help"], work / "warmup.txt")
    setup_invs = plan(workload, seed, work / "setup", duration=SETUP_DURATION)
    invs = plan(workload, seed, work / "samples")
    verified: dict[str, list[str]] = {}
    digests: list[str] = []
    samples: list[Sample] = []
    t0 = time.perf_counter()
    speed = SpeedProbe()
    setup = [setup_pass(setup_invs, ledger, speed) for _ in range(SETUP_REPEATS)]
    last = 0.0
    while len(samples) < MAX_SAMPLES:
        start = time.perf_counter()
        if len(samples) >= MIN_SAMPLES and (start - t0) + last > seconds:
            break
        samples.append(run_sample(invs, ledger, verified, digests, speed))
        last = time.perf_counter() - start

    wall = {
        "run_s": [s.run_s for s in samples],
        "analyze_s": [s.analyze_s for s in samples],
        "setup_s": setup,
    }
    factor = speed.factor()
    run_s = [t * factor for t in wall["run_s"]]
    per_sample = {
        "run_s": run_s,
        "epochs_per_s": [s.epochs / t for s, t in zip(samples, run_s)],
        "analyze_s": [t * factor for t in wall["analyze_s"]],
        "setup_s": [t * factor for t in setup],
        "peak_rss_mb": [s.rss_bytes / 1e6 for s in samples],
        "log_mb": [s.log_bytes / 1e6 for s in samples],
    }
    return per_sample, wall, ledger, invs, digests, speed


# -- traced measurement ---------------------------------------------------------


def invoke_in_process(argv: list[str]) -> tuple[int, float, str]:
    """telegraphsim.cli.main(argv) in this process: exit code, seconds, captured stdout."""
    from telegraphsim import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an operation that crashes is a failed operation, not a crash here
            rc = 1
            print(traceback.format_exc())
    return rc, time.perf_counter() - t0, buf.getvalue()


def install_tracer():
    from spans import Tracer

    tracer = Tracer()
    for target, name, on_result, traj_of in PATCHES:
        tracer.patch(target, name, on_result, traj_of)
    for target, counter in COUNTED_CALLS:
        tracer.count_calls(target, counter)
    return tracer


def traced_pass(invs: list[Invocation], ledger: Ledger, verified: dict, tracer=None):
    """Every run then analyze in this process; returns run/analyze seconds, digests and span ranges."""
    run_s = analyze_s = 0.0
    digests = []
    ranges: dict[str, list[tuple[int, int]]] = {"run": [], "analyze": []}
    for inv in invs:
        shutil.rmtree(inv.out, ignore_errors=True)
        for phase in ("run", "analyze"):
            argv = [phase, *inv.flags]
            if phase == "analyze":
                argv += [str(p) for p in sorted(inv.out.glob("events_*.tsv"))]
            if tracer is not None:
                first = len(tracer)
                with tracer.span("cli.main"):
                    rc, seconds, stdout = invoke_in_process(argv)
                ranges[phase].append((first, len(tracer)))
            else:
                rc, seconds, stdout = invoke_in_process(argv)
            problems = [] if rc == 0 else [f"exit {rc}: {stdout[-500:]}"]
            if phase == "run":
                run_s += seconds
                trajectories, digest, checked = check_run(inv, verified)
                problems += checked
                if digest is not None:
                    digests.append(digest)
            else:
                analyze_s += seconds
                if rc == 0:
                    problems += check_analysis(stdout, inv, trajectories)
            ledger.record(f"in-process {phase} {inv.kind}{'' if tracer is None else ' traced'}", problems)
            gc.collect()
    return run_s, analyze_s, digests, ranges


def merge(summaries: list[dict]) -> dict:
    out: dict[str, dict] = {}
    for s in summaries:
        for name, agg in s.items():
            acc = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += agg[k]
    return out


def layer_value(metric: str, spans: dict, tracer, extra: dict):
    """The value of one per-layer metric, or None when its layer is missing."""
    if metric in extra:
        return extra[metric]
    if metric in COUNTERS:
        return None if COUNTERS[metric] in tracer.missing else tracer.counts[metric]
    if metric == "rules.trigger.hit_ratio":
        if "rules.trigger" in tracer.missing:
            return None
        calls = spans.get("rules.trigger", {}).get("calls", 0)
        return tracer.counts["rules.trigger.hits"] / calls if calls else 0.0
    base, _, stat = metric.rpartition(".")
    base, stat = {"builds": (base, "calls"), "build_s": (base, "s")}.get(stat, (base, stat))
    if base in tracer.missing:
        return None
    return spans.get(base, {"calls": 0, "s": 0.0, "self_s": 0.0})[stat]


def measure_traced(workload: Workload, seed: int, work: Path):
    """TRACE_PAIRS alternating untraced/traced in-process passes; per-layer values are
    medians over the traced passes, the overhead a median over the pairs."""
    ledger = Ledger()
    verified: dict[str, list[str]] = {}
    untraced = plan(workload, seed, work / "untraced")
    traced = plan(workload, seed, work / "traced")
    (work / "untraced").mkdir(parents=True, exist_ok=True)
    (work / "traced").mkdir(parents=True, exist_ok=True)

    passes: list[dict] = []
    plain_times = []
    for _ in range(TRACE_PAIRS):
        run_plain, analyze_plain, digests_plain, _ = traced_pass(untraced, ledger, verified)
        tracer = install_tracer()
        try:
            run_traced, analyze_traced, digests_traced, ranges = traced_pass(traced, ledger, verified, tracer)
        finally:
            tracer.restore()
        same = digests_traced == digests_plain
        ledger.record("traced outputs equal untraced ones", [] if same else ["tracing changed the output files"])
        phases = {p: merge([tracer.summary(a, b) for a, b in r]) for p, r in ranges.items()}
        extra = {
            "trace.run_s": run_traced,
            "trace.analyze_s": analyze_traced,
            "trace_overhead_s": run_traced - run_plain,
        }
        spans = merge(list(phases.values()))
        passes.append({m.name: layer_value(m.name, spans, tracer, extra) for m in PER_LAYER})
        plain_times.append((run_plain, analyze_plain))
    tracer.write(work / "spans.tsv")

    values = {
        name: None if None in (p[name] for p in passes) else statistics.median(p[name] for p in passes)
        for name in passes[0]
    }
    shares = {p: (phases[p], extra[f"trace.{p}_s"]) for p in phases}
    plain = tuple(statistics.median(t) for t in zip(*plain_times))
    return values, ledger, untraced, digests_plain, shares, plain


# -- reporting ----------------------------------------------------------------


def machine_facts() -> str:
    from importlib.metadata import PackageNotFoundError, version

    def installed(name: str) -> str:
        try:
            return version(name)
        except PackageNotFoundError:
            return "missing"

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"machine: nproc={affinity} cpu_count={os.cpu_count()} arch={platform.machine()}"
        f" python={platform.python_version()} numpy={installed('numpy')} scipy={installed('scipy')}"
    )


def workload_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def digest_line(workload: Workload, seed: int, digests: list[str]) -> str:
    digest = workload_digest(digests)
    line = f"  log digest {workload.name} seed={seed}: {digest}"
    try:
        recorded = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(seed))
    except (OSError, ValueError):
        recorded = None
    if recorded is None:
        return line + " (no recorded digest for this seed)"
    if recorded == digest:
        return line + " (matches the recorded digest)"
    return line + f" (CHANGED: recorded {recorded}; reported, not counted as a failure)"


def print_header(workload: Workload, invs: list[Invocation], seed: int) -> None:
    print(f"== {workload.name} (seed {seed}) -- {workload.why}")
    for inv in invs:
        shown = [f if not f.startswith(str(WORK)) else os.path.relpath(f, ROOT) for f in inv.flags]
        print(f"  run flags: {' '.join(shown)}")


def bench_workload(workload: Workload, seed: int, seconds: float, trace: bool):
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    metrics = {}
    if not trace:
        per_sample, wall, ledger, invs, digests, speed = measure_end_to_end(workload, seed, seconds, work)
        print_header(workload, invs, seed)
        probes = speed.probes
        print(f"  speed probe: median {statistics.median(probes):.4f} s of {len(probes)} (min {min(probes):.4f},"
              f" max {max(probes):.4f}); times below are scaled by {speed.factor():.4f} to the reference"
              f" speed ({PROBE_REFERENCE_S} s)")
        for m in END_TO_END:
            values = per_sample[m.name]
            metrics[m.name] = {"value": statistics.median(values), "unit": m.unit}
            shown = " ".join(f"{v:.4g}" for v in values)
            clock = f"; as the clock read {statistics.median(wall[m.name]):.4g} s" if m.name in wall else ""
            print(f"  {m.name:<14} {metrics[m.name]['value']:>14.6g} {m.unit:<4} median of {len(values)} [{shown}]  ({m.note}{clock})")
    else:
        values, ledger, invs, digests, shares, plain = measure_traced(workload, seed, work)
        print_header(workload, invs, seed)
        print(f"  untraced in-process, median of {TRACE_PAIRS}: run {plain[0]:.4f} s, analyze {plain[1]:.4f} s;"
              f" last traced pass's spans in {os.path.relpath(work / 'spans.tsv', ROOT)}")
        for m in PER_LAYER:
            v = values[m.name]
            shown = "MISSING" if v is None else f"{v:.6g}"
            print(f"  {m.name:<38} {shown:>12} {m.unit:<9} -> {m.note}")
            if v is not None:
                metrics[m.name] = {"value": v, "unit": m.unit}
        for phase, (spans, total) in shares.items():
            top = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])
            parts = [f"{name} {agg['self_s'] / total:.0%}" for name, agg in top if total > 0]
            print(f"  {phase} self-time shares of {total:.3f} s (last traced pass): " + ", ".join(parts))
    failed = len(ledger.failures)
    frac = failed / ledger.attempted if ledger.attempted else 1.0
    print(f"  {FAILED_FRAC.name:<14} {frac:>14.6g} {FAILED_FRAC.unit:<4} of {ledger.attempted} operations  ({FAILED_FRAC.note})")
    print(digest_line(workload, seed, digests))
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    return metrics, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed; the master seeds derive from it")
    parser.add_argument("--seconds", type=float, default=40.0, help="how long the end-to-end measurement takes in all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the traced per-layer run")
    args = parser.parse_args(argv)

    names = [w.name for w in WORKLOADS] if args.workload == "all" else [args.workload]
    if names[0] not in WORKLOADS_BY_NAME:
        parser.error(f"unknown workload {args.workload}; choose from {[w.name for w in WORKLOADS]}")
    if not (SRC / "telegraphsim" / "__init__.py").is_file():
        print(f"no telegraphsim sources under {SRC}: nothing to measure", file=sys.stderr)
        return 2
    if args.trace:
        import_program()
    print(machine_facts())

    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        m, ledger = bench_workload(WORKLOADS_BY_NAME[name], args.seed, args.seconds, bool(args.trace))
        attempted += ledger.attempted
        failed += len(ledger.failures)
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}.{k}": v for k, v in m.items()})
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # On SIGTERM, unwind through spawn(), which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
