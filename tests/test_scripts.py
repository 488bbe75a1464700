"""Smoke tests of the experiment scripts: each runs to the end and prints its headings."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

CASES = {
    "telegraph_demo": (
        ["2e4", "42"],
        ["V configuration, duration 20000, seed 42", "epochs:", "bright intervals:",
         "dark intervals:", "signal: "],
    ),
    "timing_survey": (
        ["2e4", "2024"],
        ["configuration", "darks", "at_end", "at_start", "ambiguous",
         "v ", "lambda ", "cascade_weak_up ", "cascade_weak_down "],
    ),
    "observer_comparison": (
        [],
        ["full rules:", "with observer:", "(log byte-identical: True)", "no observer:"],
    ),
}


def load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_runs(name, monkeypatch, capsys):
    args, headings = CASES[name]
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    assert load(name).main() is None
    out = capsys.readouterr().out
    for heading in headings:
        assert heading in out, f"{name}: {heading!r} missing from\n{out}"
