"""Command-line interface: seeded runs and log re-analysis.

``analyze`` loads only this module, ``config``, ``errors``, ``eventlog``
and ``analysis``; ``run`` imports the simulator, ``runner``, when it is
called. The analysis that both commands print, ``analyze_log`` and
``format_timing``, lives here, and ``runner`` imports it from here.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

# segment_telegraph is unused here: perfbench's traced run looks it up in this module
from .analysis import (  # noqa: F401
    LogFold,
    WeakTiming,
    classify_weak_timing,
    interval_stats,
    segment_telegraph,
)
from .config import _PARSERS, RunConfig, parse_config
from .errors import ConfigError
# read_log is unused here: perfbench's traced run looks it up in this module
from .eventlog import iter_log, read_log, validate_log  # noqa: F401


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, as config errors do: 2 means an invariant breach."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _flag(key: str) -> str:
    """The command-line spelling of a config key."""
    return "--seed" if key == "master_seed" else "--" + key.replace("_", "-")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="key=value config file; flags override it")
    for key in _PARSERS:
        p.add_argument(_flag(key), dest=key, help=f"config key {key}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults) with every given flag parsed like a file value."""
    if args.config is not None:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    else:
        cfg = RunConfig()
    overrides = {}
    for key, parse in _PARSERS.items():
        text = getattr(args, key)
        if text is not None:
            try:
                overrides[key] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"{_flag(key)}: {exc}") from None
    return replace(cfg, **overrides)


def analyze_log(cfg: RunConfig, fold: LogFold) -> Optional[dict]:
    """Interval statistics and weak timing of the log whose records ``fold`` took.

    ``run``'s report and ``analyze`` both print these fields. Returns None
    when the log holds no hits.
    """
    if not fold.hits:
        return None
    seg = fold.segmentation()
    stats = interval_stats(seg)
    out = {
        "bright_intervals": stats.bright_count,
        "dark_intervals": stats.dark_count,
        "bright_mean": stats.bright_mean,
        "dark_mean": stats.dark_mean if stats.dark_count else None,
        "dark_rate_estimate": stats.dark_rate_estimate,
    }
    if cfg.lasers == "both" and stats.dark_count:
        timing = classify_weak_timing(fold.crossings(), seg, cfg.config_kind(), cfg.rate_set())
        out["timing"] = {
            "at_end": timing.count(WeakTiming.AT_END),
            "at_start": timing.count(WeakTiming.AT_START),
            "ambiguous": timing.count(WeakTiming.AMBIGUOUS),
        }
    return out


def format_timing(t: dict) -> str:
    """The weak-timing line of ``run``'s text report and of ``analyze``."""
    return (
        f"  weak timing: at_end={t['at_end']} at_start={t['at_start']}"
        f" ambiguous={t['ambiguous']}"
    )


def run(cfg: RunConfig) -> int:
    """``runner.run``, imported at call time so that ``analyze`` never loads the simulator."""
    from .runner import run

    return run(cfg)


def _cmd_run(cfg: RunConfig, args: argparse.Namespace) -> int:
    return run(cfg)


def _fold(path: Path, threshold_gap: float) -> LogFold:
    """The log at ``path`` folded a chunk at a time, each chunk checked by ``validate_log``."""
    fold, tail = LogFold(threshold_gap), None
    for chunk in iter_log(path):
        tail = validate_log(chunk, tail)
        fold.add(chunk)
    return fold


def _cmd_analyze(cfg: RunConfig, args: argparse.Namespace) -> int:
    for path in args.logs:
        try:
            fold = _fold(path, cfg.resolved_threshold())
        except (OSError, ValueError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 1
        print(f"{path}:")
        a = analyze_log(cfg, fold)
        if a is None:
            print("  no hits")
            continue
        print(
            f"  bright={a['bright_intervals']} (mean {a['bright_mean']:.4g})"
            f" dark={a['dark_intervals']}"
            + (f" (mean {a['dark_mean']:.4g})" if a["dark_intervals"] else "")
        )
        if "timing" in a:
            print(format_timing(a["timing"]))
    return 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="telegraphsim",
        description="Stochastic collapse-flow simulator of 3-level-atom fluorescence telegraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run seeded trajectories and write logs + reports")
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="re-analyze existing event logs")
    _add_run_flags(p_an)
    p_an.add_argument("logs", nargs="+", type=Path)
    p_an.set_defaults(func=_cmd_analyze)

    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return args.func(cfg, args)


if __name__ == "__main__":
    sys.exit(main())
