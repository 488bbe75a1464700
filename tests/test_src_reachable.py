"""Every function and method in ``src/telegraphsim`` runs under ``run`` or ``analyze``.

A matrix of in-process CLI calls runs under ``sys.setprofile``: the four
configurations with each laser drive on both engines at weak/strong ratio
0.1, the no-observer mode on both engines, one ``--config`` file and one
usage error, each run followed by ``analyze`` of its logs. Every function
and method defined in the package's source must have been entered, unless
the benchmark's traced run looks it up (``perfbench/run.py``'s ``PATCHES``
and ``COUNTED_CALLS``, read here, not copied) or ``ALLOWLIST`` names it with
its reason. Test-only references belong in ``tests/``, not in the package.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import types
from pathlib import Path

from telegraphsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "telegraphsim"

#: Functions the matrix does not enter, each with why it stays in the package.
ALLOWLIST = {
    "__init__.__getattr__": "resolves the package's public names; the CLI imports its modules directly",
    "state.ChainState.__init__": "builds flow.step's input; perfbench traces flow.step",
    "state.ChainState.with_masses": "builds flow.step's result; perfbench traces flow.step",
    "state.ComponentLabel.__str__": "names labels in error messages",
    "config.format_config": "a breach writes the config into diagnostic.json",
    "eventlog.EventLog.__eq__": "value semantics: logs compare by their columns",
    "eventlog.EventLog.__iter__": "value semantics: a log iterates as its records",
}

KINDS = ("v", "lambda", "cascade_weak_up", "cascade_weak_down")
LASERS = ("both", "strong_only", "weak_only")
ENGINES = ("renewal", "steps")
RATIO = ("--k-weak-absorb", "0.1", "--k-weak-emit", "0.1")


def _name(code: types.CodeType) -> str | None:
    """``module.qualname`` of a function's code in the package, else None."""
    path = Path(code.co_filename).resolve()
    if path.parent != PACKAGE or code.co_name.startswith("<"):
        return None
    return f"{path.stem}.{code.co_qualname}"


def _defined() -> set[str]:
    """Every function and method compiled from the package's source files."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            name = _name(code)
            if name is not None and code.co_flags & inspect.CO_NEWLOCALS:  # not a class body
                out.add(name)
    return out


def _traced(monkeypatch) -> set[str]:
    """The functions the benchmark's traced run looks up, by where they are defined."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run

    out = set()
    for target, *_ in (*run.PATCHES, *run.COUNTED_CALLS):
        module, attrs = target.split(":")
        obj = importlib.import_module(module)
        for attr in attrs.split("."):
            obj = getattr(obj, attr, None)  # a name is looked up at several sites
        if obj is not None:
            out.add(_name(obj.__code__))
    return out


def _runs(tmp: Path) -> list[list[str]]:
    """The flags of every ``run`` in the matrix, ``--out`` aside."""
    runs = [
        ["--kind", kind, "--lasers", lasers, "--engine", engine, *RATIO, "--duration", "100"]
        for kind in KINDS
        for lasers in LASERS
        for engine in ENGINES
    ]
    runs += [
        ["--mode", "original_no_observer", "--engine", engine, "--duration", "100"]
        for engine in ENGINES
    ]
    config = tmp / "run.cfg"
    # dark periods at this threshold, so analyze classifies weak timing
    config.write_text("trajectories = 2\ndepth = 3\nthreshold_gap = 10\n", encoding="utf-8")
    runs.append(["--config", str(config), *RATIO, "--duration", "200", "--seed", "7"])
    return runs


def test_every_function_in_src_runs_under_the_cli(tmp_path, monkeypatch, capsys):
    assert len(ALLOWLIST) <= 10 and all(ALLOWLIST.values())
    codes: set[types.CodeType] = set()

    def collect(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    runs = _runs(tmp_path)
    status = []
    previous = sys.getprofile()
    sys.setprofile(collect)
    try:
        for i, flags in enumerate(runs):
            out = tmp_path / str(i)
            status.append(main(["run", *flags, "--out", str(out)]))
            status.append(main(["analyze", *flags, *map(str, sorted(out.glob("events_*.tsv")))]))
        try:
            main(["run", "--bogus", "1"])
        except SystemExit as exc:
            status.append(exc.code)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert status == [0] * (2 * len(runs)) + [1]

    defined = _defined()
    called = {name for name in map(_name, codes) if name is not None}
    traced = _traced(monkeypatch)
    assert traced <= defined
    assert set(ALLOWLIST) <= defined - called, "an allowlisted function runs: drop its entry"
    uncalled = sorted(defined - called - traced - set(ALLOWLIST))
    assert not uncalled, "never called: " + ", ".join(uncalled)
