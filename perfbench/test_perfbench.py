"""Fast self-test of the benchmark at 1% of its run durations (about a minute).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ("--seed", "5", "--seconds", "1")


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    """The benchmark's workloads at 1% of their durations, working under tmp_path."""
    tiny = tuple(
        dataclasses.replace(w, invocations=tuple({**inv, "duration": inv["duration"] / 100} for inv in w.invocations))
        for w in bench.WORKLOADS
    )
    monkeypatch.setattr(bench, "WORKLOADS", tiny)
    monkeypatch.setattr(bench, "WORKLOADS_BY_NAME", {w.name: w for w in tiny})
    monkeypatch.setattr(bench, "WORK", tmp_path)


def run_main(capsys, *args) -> tuple[int, str, dict]:
    """bench.main(args) in this process: exit code, standard output and the final JSON line."""
    rc = bench.main([*args, *TINY])
    out = capsys.readouterr().out
    return rc, out, json.loads(out.strip().splitlines()[-1])


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"] and SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and name.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for table, keys in (("end_to_end", {"name", "unit", "better", "bound"}), ("per_layer", {"name", "unit", "better"})):
        for m in SPEC[table]:
            assert set(m) == keys and name.match(m["name"]) and unit.match(m["unit"])
            assert m["better"] in ("lower", "higher")
            assert 0 < m.get("bound", 0.1) <= 0.25
            names.append(m["name"])
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= SPEC["end_to_end"][3].items()


def test_benchmark_json_matches_the_benchmark_tables():
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in bench.WORKLOADS]
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in bench.WORKLOADS]
    for table, metrics in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC[table]] == [
            (m.name, m.unit, m.better) for m in metrics
        ]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_end_to_end_metric_is_printed_with_its_unit(tiny_workloads, capsys):
    rc, table, result = run_main(capsys, "--workload", "all")
    assert rc == 0, table
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for w in bench.WORKLOADS:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][f"{w.name}.{m['name']}"]["unit"] == m["unit"]
    for m in [*bench.END_TO_END, bench.FAILED_FRAC]:
        lines = [line for line in table.splitlines() if line.split()[:1] == [m.name]]
        assert len(lines) == len(bench.WORKLOADS), m.name
        assert all(f" {m.unit} " in line and (" of " in line) for line in lines), lines


@pytest.mark.parametrize("workload, busy", [
    ("v_steps", "flow.step.calls"),
    ("four_kinds_fast_weak", "epochs.crossing_times.calls"),
])
def test_every_per_layer_metric_is_traced_with_its_unit(tiny_workloads, capsys, workload, busy):
    rc, table, result = run_main(capsys, "--workload", workload, "--trace", "1")
    assert rc == 0, table
    assert "MISSING" not in table
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"][busy]["value"] > 0


def test_a_failing_invocation_raises_failed_frac(tmp_path):
    broken = bench.Workload(
        "broken", "one good invocation and one that cannot build an epoch",
        ({"duration": 20.0}, {"duration": 20.0, "depth": 0}),
    )
    _, _, ledger, *_ = bench.measure_end_to_end(broken, 5, 0.0, tmp_path)
    failed = len(ledger.failures)
    assert 0 < failed < ledger.attempted
    assert all("depth 0" in f or "analyze" in f for f in ledger.failures), ledger.failures


def analyze_text(at_end: int, at_start: int, ambiguous: int) -> str:
    dark = at_end + at_start + ambiguous
    return (
        "out0/events_000.tsv:\n"
        f"  bright={dark + 1} (mean 12.5) dark={dark} (mean 900)\n"
        f"  weak timing: at_end={at_end} at_start={at_start} ambiguous={ambiguous}\n"
    )


@pytest.mark.parametrize("kind, counts, ok", [
    ("v", (5, 1, 1), True),
    ("lambda", (1, 5, 1), True),
    ("v", (1, 5, 1), False),  # the wrong majority
    ("cascade_weak_down", (5, 1, 1), False),
    ("v", (0, 0, 7), False),  # every dark period ambiguous: no direction decided
])
def test_the_weak_timing_direction_is_checked(kind, counts, ok):
    inv = bench.Invocation(kind, (), Path("out0"))
    at_end, at_start, ambiguous = counts
    timing = {"at_end": at_end, "at_start": at_start, "ambiguous": ambiguous}
    dark = sum(counts)
    report = [{"trajectory": 0, "hits": 50, "bright_intervals": dark + 1, "dark_intervals": dark, "timing": timing}]
    problems = bench.check_analysis(analyze_text(*counts), inv, report)
    assert (problems == []) == ok, problems


def test_dark_intervals_without_any_timing_fail():
    inv = bench.Invocation("v", (), Path("out0"))
    report = [{"trajectory": 0, "hits": 50, "bright_intervals": 4, "dark_intervals": 3}]
    text = "out0/events_000.tsv:\n  bright=4 (mean 12.5) dark=3 (mean 900)\n"
    assert bench.check_analysis(text, inv, report)


def test_the_log_checker_flags_bad_logs(tmp_path):
    header = "# telegraph-event-log v1\n# time\tkind\tepoch\tatom\tclicks\tstrong\tweak\taux\n"
    backwards = tmp_path / "events_000.tsv"
    backwards.write_text(header + "2.0\thit\t0\t0\t1\t1\t0\t0.5\n1.0\thit\t1\t0\t2\t2\t0\t0.5\n")
    not_canonical = tmp_path / "events_001.tsv"
    not_canonical.write_text(header + "1.00\thit\t0\t0\t1\t1\t0\t0.5\n")
    problems = bench.check_logs(tmp_path, {})
    assert len(problems) == 2
    assert "events_000.tsv: invalid log" in problems[0]
    assert "events_001.tsv: serialize_log(parse_log(text)) differs" in problems[1]


def test_a_missing_layer_is_reported_not_fatal():
    bench.import_program()
    tracer = Tracer()
    tracer.patch("telegraphsim.runner:no_such_function", "runner.gone")
    tracer.patch("no_such_module:f", "nowhere.gone")
    assert tracer.missing == {"runner.gone", "nowhere.gone"}
    assert bench.layer_value("runner.gone.self_s", {}, tracer, {}) is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "v_default_long", *TINY],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
