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

which prints each (case, file) whose digest it rewrote.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from telegraphsim.config import RunConfig
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


def _record(work: Path) -> None:
    """Write every case's digests and print each (case, file) whose digest changed."""
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    digests = {name: _run(cfg, work / name) for name, cfg in _cases().items()}
    for name in sorted(digests.keys() | old.keys()):
        for f in _moved(digests.get(name, {}), old.get(name, {})):
            print(f"rewrote {name} {f}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))
    print(f"wrote {DIGESTS}", file=sys.stderr)
