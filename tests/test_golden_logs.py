"""Golden-log regression: short fixed-seed runs must reproduce their outputs byte for byte.

Every file a run writes to its output directory (event logs, report.jsonl,
report.txt) is hashed with sha256 and compared with the digests recorded in
``golden_digests.json``. The runs cover the four level configurations under
all three laser settings on both engines, plus the no-observer mode on both
engines, at weak/strong ratio 0.1 so that short runs reach dark periods and
weak-edge crossings. Two renewal runs at the default rates (V and Lambda) are
long enough to span several of the renewal engine's sampling blocks; Lambda's
first hit moves the root to the strong atom, which cuts a block where the
template changes. Two more V runs cover the ``steps`` engine at the default
rates and step (the benchmark's own path), and at a coarse step of four
substeps with a duration that ends in a shorter final step.

The digests were recorded with numpy 2.4.6 (OpenBLAS) on CPython 3.11.
The propagators come from ``flow.expm``, built on numpy's matmul and
``linalg.solve``, so another numpy release or BLAS may change the last bits
of some times and with them the digests. After a deliberate change of
output, or on another stack, record them again with::

    PYTHONPATH=src python tests/test_golden_logs.py

which prints each (case, file) whose digest it rewrote. To see how far the
outputs moved against another tree, such as a ``git archive`` of the parent
commit unpacked into DIR, run::

    PYTHONPATH=src python tests/test_golden_logs.py --compare DIR

which runs every case on both trees (DIR's through its own command line) and
prints, for each file that differs, an event log's row counts, whether its
integer columns are equal and the largest time difference of each kind's
rows (``hit``, then ``weak_edge_crossing``), a
``report.jsonl``'s moved keys and each count that differs with its
trajectory (or ``aggregate``), or the lines of a ``report.txt`` that differ.
Event logs are compared as tab-separated text, their columns named by each
file's own column line, so two trees whose log formats differ compare too.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from telegraphsim.config import RunConfig, format_config
from telegraphsim.eventlog import EventKind, EventLog, read_log, serialize_log
from telegraphsim.runner import UNIFORM_BLOCK, run

DIGESTS = Path(__file__).with_name("golden_digests.json")

KINDS = ("v", "lambda", "cascade_weak_up", "cascade_weak_down")
LASERS = ("both", "strong_only", "weak_only")
FAST_WEAK = dict(k_weak_absorb=0.1, k_weak_emit=0.1, threshold_gap=15.0)
DURATION = {"renewal": 2000.0, "steps": 100.0}
DEFAULT_RATE_KINDS = ("v", "lambda")
DEFAULT_RATE_DURATION = 3e4


def _cases() -> dict[str, RunConfig]:
    cases = {}
    for engine in ("renewal", "steps"):
        for kind in KINDS:
            for lasers in LASERS:
                cases[f"{kind}-{lasers}-{engine}"] = RunConfig(
                    kind=kind, lasers=lasers, engine=engine, duration=DURATION[engine],
                    master_seed=17, trajectories=2 if lasers == "both" else 1, **FAST_WEAK,
                )
        cases[f"v-no_observer-{engine}"] = RunConfig(
            kind="v", mode="original_no_observer", engine=engine,
            duration=DURATION[engine], master_seed=17, **FAST_WEAK,
        )
    for kind in DEFAULT_RATE_KINDS:
        cases[f"{kind}-default_rates-renewal"] = RunConfig(
            kind=kind, engine="renewal", duration=DEFAULT_RATE_DURATION,
            master_seed=17, trajectories=2,
        )
    # the steps engine at the benchmark's own rates and step, and at a coarse
    # step (4 substeps per step) whose duration ends in a shorter final step
    cases["v-default_rates-steps"] = RunConfig(
        kind="v", engine="steps", duration=125.0, master_seed=17, trajectories=2,
    )
    cases["v-coarse_dt-steps"] = RunConfig(
        kind="v", engine="steps", duration=100.3, dt_max=0.2, master_seed=17,
        trajectories=2, **FAST_WEAK,
    )
    return cases


def _run(cfg: RunConfig, out: Path) -> dict[str, str]:
    assert run(replace(cfg, out=str(out))) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _moved(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """The files whose digest is in only one of ``got`` and ``want``, or differs."""
    return sorted(f for f in got.keys() | want.keys() if got.get(f) != want.get(f))


def _reports(out: Path) -> list[dict]:
    lines = (out / "report.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines[:-1]]


def test_golden_logs(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    cases = _cases()
    assert sorted(expected) == sorted(cases)
    crossings = {"renewal": 0, "steps": 0}
    flow_runs = 0
    default_rate_epochs = []
    atom_moves = 0
    for name, cfg in cases.items():
        out = tmp_path / name
        got, want = _run(cfg, out), expected[name]
        moved = _moved(got, want)
        assert not moved, f"{name}: {', '.join(moved)} differ from the golden run"
        for log in out.glob("events_*.tsv"):
            text = log.read_text(encoding="utf-8")
            crossings[cfg.engine] += text.count("\tweak_edge_crossing\t")
            if name.endswith("-default_rates-renewal"):
                # a first hit on the strong atom changes the template, which cuts a block
                atom_moves += "\thit\t0\t1\t" in text
        for summary in _reports(out):
            flow_runs += "stationarity_residual" in summary
            if name.endswith("-default_rates-renewal"):
                default_rate_epochs.append(summary["epochs"])
    # each code path the digests guard actually ran
    assert crossings["renewal"] > 0
    assert crossings["steps"] > 0
    assert flow_runs == 2  # the no-observer case of each engine
    # the default-rate renewal runs each span more than one sampling block
    assert len(default_rate_epochs) == 2 * len(DEFAULT_RATE_KINDS)
    assert min(default_rate_epochs) > UNIFORM_BLOCK
    assert atom_moves == 2  # both lambda trajectories


def _perturb_one_time(tmp_path: Path, kind: EventKind) -> None:
    """``--compare``'s report on a copy of a case's outputs with one time and one report field moved.

    The moved time is that of a row of ``kind``, and the report names its kind.
    """
    case = "v-both-renewal"
    old, new = tmp_path / "old" / case, tmp_path / "new" / case
    _run(_cases()[case], old)
    shutil.copytree(old, new)
    assert compare_outputs(tmp_path / "old", tmp_path / "new") == []

    log = read_log(new / "events_001.tsv")
    rows = np.flatnonzero(log.kind == list(EventKind).index(kind))
    row = rows[len(rows) // 2]
    log.time[row] += 1e-9
    (new / "events_001.tsv").write_text(serialize_log(log), encoding="utf-8")
    report = (new / "report.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(report[0])
    first["dark_mean"] *= 1.5
    first["hits"] += 1
    report[0] = json.dumps(first, sort_keys=True)
    (new / "report.jsonl").write_text("\n".join(report) + "\n", encoding="utf-8")

    delta = abs(float(read_log(old / "events_001.tsv").time[row]) - log.time[row])
    moved = {k: f"{delta:.3g}" if k is kind else "0" for k in EventKind}
    assert compare_outputs(tmp_path / "old", tmp_path / "new") == [
        f"{case} events_001.tsv: rows {len(log)} -> {len(log)}; integer columns equal; "
        f"max |dtime| hit {moved[EventKind.HIT]}, "
        f"weak_edge_crossing {moved[EventKind.WEAK_EDGE_CROSSING]}",
        f"{case} report.jsonl: moved keys dark_mean, hits; "
        f"counts differ: trajectory 0: hits {first['hits'] - 1} -> {first['hits']}",
    ]


def test_compare_finds_one_perturbed_float(tmp_path):
    _perturb_one_time(tmp_path, EventKind.HIT)


def test_compare_finds_one_perturbed_crossing(tmp_path):
    _perturb_one_time(tmp_path, EventKind.WEAK_EDGE_CROSSING)


def test_compare_reads_logs_across_a_format_change(tmp_path):
    """A v2 log, which has an eighth field, ``aux``, compares with its v3 log."""
    case = "v-both-renewal"
    old, new = tmp_path / "old" / case, tmp_path / "new" / case
    _run(_cases()[case], new)
    shutil.copytree(new, old)
    v3 = (new / "events_000.tsv").read_text(encoding="utf-8").splitlines()
    v2 = ["# telegraph-event-log v2", v3[1] + "\taux", *(line + "\t0.5" for line in v3[2:])]
    (old / "events_000.tsv").write_text("\n".join(v2) + "\n", encoding="utf-8")
    rows = len(v3) - 2
    assert rows > 0
    assert compare_outputs(tmp_path / "old", tmp_path / "new") == [
        f"{case} events_000.tsv: rows {rows} -> {rows}; integer columns equal; "
        "max |dtime| hit 0, weak_edge_crossing 0"
    ]


def _record(work: Path) -> None:
    """Write every case's digests and print each (case, file) whose digest changed."""
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    digests = {name: _run(cfg, work / name) for name, cfg in _cases().items()}
    for name in sorted(digests.keys() | old.keys()):
        for f in _moved(digests.get(name, {}), old.get(name, {})):
            print(f"rewrote {name} {f}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _flat(doc: dict, prefix: str = "") -> dict:
    """A report line's fields, nested ones as dotted keys."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _labelled(doc: dict) -> tuple[str, dict]:
    """A report line's owner, ``trajectory N`` or ``aggregate``, and its flat fields."""
    if "aggregate" in doc:
        return "aggregate", _flat(doc["aggregate"])
    return f"trajectory {doc['trajectory']}", _flat(doc)


def _log_columns(path: Path) -> dict[str, list[str]]:
    """An events file's fields as text, by the names on the file's own column line.

    Any format version's file reads this way, so logs compare across a format change.
    """
    lines = path.read_text("utf-8").splitlines()
    names = next(line[2:].split("\t") for line in lines if line.startswith("# time\t"))
    rows = [line.split("\t") for line in lines if line and not line.startswith("#")]
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def _compare_file(old: Path, new: Path) -> str:
    """How ``new`` differs from ``old``, a file of the same name from another tree."""
    if old.suffix == ".tsv":
        a, b = _log_columns(old), _log_columns(new)
        parts = [f"rows {len(a['time'])} -> {len(b['time'])}"]
        if len(a["time"]) == len(b["time"]):
            # the kind and the integer columns of this tree's format, compared as written
            same = all(a[c] == b[c] for c in EventLog.COLUMNS[1:])
            parts.append("integer columns " + ("equal" if same else "differ"))
            # the largest time difference of each kind's rows
            delta = np.abs(np.array(a["time"], float) - np.array(b["time"], float))
            kind = np.array(a["kind"])
            parts.append("max |dtime| " + ", ".join(
                f"{k.value} {delta[kind == k.value].max(initial=0.0):.3g}" for k in EventKind
            ))
        return "; ".join(parts)
    if old.name == "report.jsonl":
        a, b = ([_labelled(json.loads(line)) for line in f.read_text("utf-8").splitlines()]
                for f in (old, new))
        if len(a) != len(b):
            return f"report lines {len(a)} -> {len(b)}"
        moved, counts = set(), []
        for (label, x), (_, y) in zip(a, b):
            for key in sorted(x.keys() | y.keys()):
                u, v = x.get(key), y.get(key)
                if u != v:
                    moved.add(key)
                    if type(u) is int or type(v) is int:
                        counts.append(f"{label}: {key} {u} -> {v}")
        return (f"moved keys {', '.join(sorted(moved))}; "
                + ("counts differ: " + ", ".join(counts) if counts else "counts equal"))
    a, b = (f.read_text("utf-8").splitlines() for f in (old, new))
    differ = [f"{u.strip()!r} -> {v.strip()!r}"
              for u, v in itertools.zip_longest(a, b, fillvalue="") if u != v]
    return f"{len(differ)} lines differ: " + ", ".join(differ)


def compare_outputs(old: Path, new: Path) -> list[str]:
    """One line per file that differs between two trees' case outputs, ``old/<case>/<file>``."""
    lines = []
    for case in sorted(p.name for p in new.iterdir()):
        a, b = old / case, new / case
        for name in sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}):
            if not (a / name).exists() or not (b / name).exists():
                lines.append(f"{case} {name}: only in {'new' if (b / name).exists() else 'old'}")
            elif (a / name).read_bytes() != (b / name).read_bytes():
                lines.append(f"{case} {name}: {_compare_file(a / name, b / name)}")
    return lines


def _compare(tree: Path, work: Path) -> None:
    """Run every case on this tree and on ``tree``, and print how each differing file moved."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, cfg in _cases().items():
        _run(cfg, work / "new" / name)
        config = work / f"{name}.cfg"
        config.write_text(format_config(replace(cfg, out=str(work / "old" / name))), "utf-8")
        subprocess.run(
            [sys.executable, "-m", "telegraphsim", "run", "--config", str(config)],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
    lines = compare_outputs(work / "old", work / "new")
    print("\n".join(lines) if lines else "every output is byte-identical")


if __name__ == "__main__":
    import tempfile

    parser = argparse.ArgumentParser(description="Record the golden digests, or compare outputs.")
    parser.add_argument("--compare", type=Path, metavar="DIR",
                        help="another source tree to compare every case's outputs with")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        if args.compare is not None:
            _compare(args.compare.resolve(), Path(tmp))
        else:
            _record(Path(tmp))
            print(f"wrote {DIGESTS}", file=sys.stderr)
