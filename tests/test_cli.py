import json
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import telegraphsim as ts
from telegraphsim import runner
from telegraphsim.cli import main
from telegraphsim.config import RunConfig, parse_config
from telegraphsim.epochs import EpochTemplate
from telegraphsim.errors import InvariantBreach
from telegraphsim.eventlog import (
    EventKind,
    EventRecord,
    parse_log,
    read_log,
    serialize_log,
    validate_log,
)


def run_cli(*args):
    return main(list(args))


class TestLogFormat:
    def test_roundtrip_simple(self):
        recs = [
            EventRecord(1.25, EventKind.WEAK_EDGE_CROSSING, 0, 0, 0, 0, 1),
            EventRecord(2.5, EventKind.HIT, 0, 0, 1, 1, 1),
        ]
        assert parse_log(serialize_log(recs)) == recs

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e9, allow_nan=False),
                st.sampled_from(list(EventKind)),
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=0, max_value=10**6),
            ),
            max_size=30,
        )
    )
    def test_roundtrip_random(self, rows):
        recs = [EventRecord(t, k, e, a, c, c, w) for (t, k, e, a, c, w) in rows]
        assert parse_log(serialize_log(recs)) == recs

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_log("1.0\thit\t0\n")

    def test_validate_ordering(self):
        good = [
            EventRecord(0.5, EventKind.WEAK_EDGE_CROSSING, 0, 0, 0, 0, 1),
            EventRecord(1.0, EventKind.HIT, 0, 0, 1, 1, 1),
        ]
        validate_log(good)
        bad = list(reversed(good))
        with pytest.raises(ValueError):
            validate_log(bad)


class TestRunCommand:
    def test_run_writes_logs_and_reports(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--kind", "v", "--duration", "5000", "--seed", "42",
            "--out", str(out),
        )
        assert code == 0
        log = out / "events_000.tsv"
        assert log.exists()
        records = parse_log(log.read_text())
        validate_log(records)
        assert any(r.kind is EventKind.HIT for r in records)
        report = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
        assert report[0]["hits"] > 1000
        assert (out / "report.txt").exists()

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(
                "run", "--kind", "lambda", "--duration", "8000", "--seed", "7",
                "--out", str(out),
            ) == 0
        assert (a / "events_000.tsv").read_bytes() == (b / "events_000.tsv").read_bytes()
        assert (a / "report.jsonl").read_bytes() == (b / "report.jsonl").read_bytes()
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()

    def test_trajectories_get_distinct_reproducible_streams(self, tmp_path):
        out = tmp_path / "ens"
        assert run_cli(
            "run", "--kind", "v", "--duration", "2000", "--seed", "5",
            "--trajectories", "2", "--out", str(out),
        ) == 0
        log0 = (out / "events_000.tsv").read_bytes()
        log1 = (out / "events_001.tsv").read_bytes()
        assert log0 != log1
        # same master seed reproduces both streams
        out2 = tmp_path / "ens2"
        assert run_cli(
            "run", "--kind", "v", "--duration", "2000", "--seed", "5",
            "--trajectories", "2", "--out", str(out2),
        ) == 0
        assert (out2 / "events_000.tsv").read_bytes() == log0
        assert (out2 / "events_001.tsv").read_bytes() == log1

    def test_no_observer_mode_logs_no_hits(self, tmp_path):
        out = tmp_path / "noobs"
        assert run_cli(
            "run", "--kind", "v", "--mode", "original_no_observer",
            "--duration", "500", "--out", str(out),
        ) == 0
        records = parse_log((out / "events_000.tsv").read_text())
        assert all(r.kind is not EventKind.HIT for r in records)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = lambda\nduration = 1500\nmaster_seed = 3\n")
        out = tmp_path / "cfg_run"
        assert run_cli(
            "run", "--config", str(cfg), "--kind", "v", "--out", str(out)
        ) == 0
        report = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        assert report["kind"] == "v"

    def test_bad_config_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k_weak_absorb = -1\n")
        assert run_cli("run", "--config", str(cfg)) == 1

    def test_default_v_run_shows_bright_and_dark(self, tmp_path):
        # branch share ~1e-3 per cycle; this horizon expects >= 5 dark entries
        out = tmp_path / "dark"
        assert run_cli(
            "run", "--kind", "v", "--duration", "100000", "--seed", "42",
            "--out", str(out),
        ) == 0
        report = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        assert report["bright_intervals"] >= 1
        assert report["dark_intervals"] >= 1

    def test_breach_diagnostic_reproduces_the_trajectory(self, tmp_path, monkeypatch):
        real = runner.run_trajectory

        def breach_on_second(cfg, index, *args):
            if index == 1:
                raise InvariantBreach("injected breach")
            return real(cfg, index, *args)

        monkeypatch.setattr(runner, "run_trajectory", breach_on_second)
        cfg = RunConfig(
            kind="lambda", duration=500.0, master_seed=9, trajectories=2,
            k_weak_absorb=0.1, threshold_gap=12.5, out=str(tmp_path / "out"),
        )
        assert runner.run(cfg) == 2
        diag = json.loads((tmp_path / "out" / "diagnostic.json").read_text())
        assert diag["error"] == "injected breach"
        assert diag["trajectory"] == 1
        assert parse_config(diag["config"]) == cfg
        assert diag["partial_log"] == "events_001.tsv" and diag["epochs_logged"] == 0
        assert serialize_log([]) == (tmp_path / "out" / "events_001.tsv").read_text()

    def test_a_run_replaces_an_earlier_runs_outputs(self, tmp_path):
        out = tmp_path / "out"
        for trajectories in ("3", "1"):
            assert run_cli("run", "--duration", "100", "--trajectories", trajectories,
                           "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "events_000.tsv", "report.jsonl", "report.txt",
        ]
        # only the files a run writes go: others stay, such as a log named otherwise
        (out / "diagnostic.json").write_text("{}")
        kept = [out / "events_0a1.tsv", out / "events_001.tsv.bak", out / "notes.txt"]
        for path in kept:
            path.write_text("kept")
        assert run_cli("run", "--duration", "100", "--out", str(out)) == 0
        assert not (out / "diagnostic.json").exists()
        assert all(path.read_text() == "kept" for path in kept)

    def test_a_breach_after_a_good_run_leaves_no_old_report(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--duration", "100", "--trajectories", "2", "--out", str(out)) == 0

        def breach(*args):
            raise InvariantBreach("injected breach")

        monkeypatch.setattr(runner, "run_trajectory", breach)
        assert run_cli("run", "--duration", "100", "--trajectories", "2", "--out", str(out)) == 2
        assert sorted(p.name for p in out.iterdir()) == ["diagnostic.json", "events_000.tsv"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invariant breach: injected breach\n"

    def test_breach_leaves_the_completed_epochs_logged(self, tmp_path, monkeypatch):
        # about 1e4 epochs at 3e4 units: the renewal engine draws blocks of 4096
        cfg = RunConfig(kind="v", duration=3e4, master_seed=5, trajectories=2,
                        out=str(tmp_path / "whole"))
        assert runner.run(cfg) == 0
        whole = [(tmp_path / "whole" / f"events_{i:03d}.tsv").read_text() for i in (0, 1)]

        real_run, real_sample = runner.run_trajectory, EpochTemplate.sample_hits
        now = {"trajectory": None, "draws": 0}

        def tracked(cfg, index, *args):
            now["trajectory"] = index
            return real_run(cfg, index, *args)

        def breach_on_third_draw(tpl, u):
            # a renewal draw samples its block of epochs in one call
            if now["trajectory"] == 1:
                now["draws"] += 1
                if now["draws"] == 3:
                    raise InvariantBreach("injected breach")
            return real_sample(tpl, u)

        monkeypatch.setattr(runner, "run_trajectory", tracked)
        monkeypatch.setattr(EpochTemplate, "sample_hits", breach_on_third_draw)
        out = tmp_path / "out"
        assert runner.run(replace(cfg, out=str(out))) == 2
        diag = json.loads((out / "diagnostic.json").read_text())
        assert diag["trajectory"] == 1 and diag["partial_log"] == "events_001.tsv"
        assert (out / "events_000.tsv").read_text() == whole[0]
        partial = (out / diag["partial_log"]).read_text()
        records = parse_log(partial)
        validate_log(records)
        assert 0 < diag["epochs_logged"] < len(ts.hits(parse_log(whole[1])))
        assert len(ts.hits(records)) == diag["epochs_logged"]
        assert records.epoch[-1] == diag["epochs_logged"] - 1  # it ends on a hit
        assert whole[1].startswith(partial)


#: renewal, steps, and the no-observer flow driver
ENGINE_FLAGS = (
    "--duration 3000",
    "--engine steps --duration 20",
    # at ratio 1 mass reaches the depth frontier and stays there
    "--engine steps --duration 20 --k-weak-absorb 1 --k-weak-emit 1",
    "--mode original_no_observer --duration 100",
)


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(ts.__file__).resolve().parents[1])}


def _quiet_cli(*args: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "telegraphsim", *args],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


class TestAnalyzeCommand:
    def test_analyze_existing_log(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("run", "--kind", "v", "--duration", "50000", "--seed", "42",
                "--out", str(out))
        code = run_cli("analyze", str(out / "events_000.tsv"))
        assert code == 0
        text = capsys.readouterr().out
        assert "bright=" in text

    def test_v1_log_is_not_read(self, tmp_path, capsys):
        # v1 logs also held an epoch_start record per epoch; only v3 is read
        v1 = textwrap.dedent(
            """\
            # telegraph-event-log v1
            # time\tkind\tepoch\tatom\tclicks\tstrong\tweak\taux
            0.0\tepoch_start\t0\t0\t0\t0\t0\t0.0
            14.5\tweak_edge_crossing\t0\t0\t0\t0\t1\t1.0
            30.25\thit\t0\t0\t1\t1\t1\t0.0625
            """
        )
        log = tmp_path / "events_000.tsv"
        log.write_text(v1, encoding="utf-8")
        assert run_cli("analyze", str(log)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"cannot read {log}: line 1: event log format v1; this reader reads v3\n"
        )

    @pytest.mark.parametrize("kind", ["v", "lambda", "cascade_weak_up", "cascade_weak_down"])
    def test_analyze_prints_what_the_run_reported(self, tmp_path, capsys, kind):
        flags = ["--kind", kind, "--k-weak-absorb", "0.1", "--k-weak-emit", "0.1",
                 "--threshold-gap", "15", "--duration", "2000", "--trajectories", "2"]
        out = tmp_path / "run"
        assert run_cli("run", *flags, "--seed", "17", "--out", str(out)) == 0
        lines = (out / "report.jsonl").read_text().splitlines()[:-1]
        expected = []
        for s in map(json.loads, lines):
            assert s["dark_intervals"] > 0
            log = out / f"events_{s['trajectory']:03d}.tsv"
            expected += [
                f"{log}:",
                f"  bright={s['bright_intervals']} (mean {s['bright_mean']:.4g})"
                f" dark={s['dark_intervals']} (mean {s['dark_mean']:.4g})",
                "  weak timing: at_end={at_end} at_start={at_start}"
                " ambiguous={ambiguous}".format(**s["timing"]),
            ]
        logs = sorted(map(str, out.glob("events_*.tsv")))
        capsys.readouterr()
        assert run_cli("analyze", *flags, *logs) == 0
        assert capsys.readouterr().out.splitlines() == expected

    def test_analyze_missing_file(self, tmp_path):
        assert run_cli("analyze", str(tmp_path / "nope.tsv")) == 1

    def test_analyze_rejects_out_of_order_log(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("run", "--kind", "v", "--duration", "5000", "--seed", "42", "--out", str(out))
        records = read_log(out / "events_000.tsv")
        assert len(records) > 1
        log = tmp_path / "reversed.tsv"
        log.write_text(serialize_log(records[::-1]), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("analyze", str(log)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot read {log}: record times decrease")

    def test_analyze_rejects_non_finite_times(self, tmp_path, capsys):
        log = tmp_path / "non_finite.tsv"
        # a log's hits in epochs 0-3, with hit times 1.0, nan, 3.0 and inf
        lines = [
            f"{t}\thit\t{e}\t0\t{e + 1}\t{e + 1}\t0\n"
            for e, t in enumerate(("1.0", "nan", "3.0", "inf"))
        ]
        log.write_text(serialize_log([]) + "".join(lines), encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("analyze", str(log)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot read {log}: record time is not finite at epoch=1\n"

    def test_analyze_imports_no_scipy(self, tmp_path):
        # a fresh interpreter: this one has already imported scipy
        script = textwrap.dedent(
            """
            import sys
            import telegraphsim
            import telegraphsim.cli
            out = sys.argv[1]
            for i, flags in enumerate(sys.argv[2:]):
                argv = ["run", *flags.split(), "--seed", "3", "--out", f"{out}/{i}"]
                assert telegraphsim.cli.main(argv) == 0
                assert telegraphsim.cli.main(["analyze", f"{out}/{i}/events_000.tsv"]) == 0
            loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
            assert not loaded, loaded
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), *ENGINE_FLAGS],
            capture_output=True, text=True, timeout=120, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "bright=" in proc.stdout

    def test_run_imports_no_numpy_ma(self, tmp_path):
        # numpy.ma costs a run about 17 ms and 1.3 MB; np.unique imports it in numpy 2.x.
        # run goes in a fresh interpreter; analyze goes through the package, as users run
        # it, and classifies the dark periods without loading the simulator.
        flags = ["--k-weak-absorb", "0.1", "--k-weak-emit", "0.1"]
        script = textwrap.dedent(
            """
            import sys
            import telegraphsim.cli
            out = sys.argv[1]
            flags = sys.argv[2:]
            argv = ["run", *flags, "--duration", "2000", "--seed", "1", "--out", out]
            assert telegraphsim.cli.main(argv) == 0
            with open(f"{out}/events_000.tsv", encoding="utf-8") as fh:
                assert "weak_edge_crossing" in fh.read()
            assert "numpy.ma" not in sys.modules, "run imported numpy.ma"
            """
        )
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(out), *flags],
            capture_output=True, text=True, timeout=120, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "telegraphsim", "analyze", *flags,
             "--threshold-gap", "15", str(out / "events_000.tsv")],
            capture_output=True, text=True, timeout=120, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "weak timing: " in proc.stdout
        loaded = {
            line.rpartition("|")[2].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        package = {m for m in loaded if m.partition(".")[0] == "telegraphsim"}
        analysis = ("cli", "config", "errors", "eventlog", "analysis")
        assert package == {"telegraphsim", *(f"telegraphsim.{m}" for m in analysis)}
        unwanted = [m for m in loaded if m.split(".")[:2] in (["numpy", "random"], ["numpy", "ma"])]
        assert not unwanted, unwanted

    def test_run_and_analyze_warn_nothing(self, tmp_path):
        # numpy warnings become errors, and nothing at all may reach stderr
        for i, flags in enumerate(ENGINE_FLAGS):
            out = tmp_path / str(i)
            _quiet_cli("run", *flags.split(), "--seed", "3", "--out", str(out))
            _quiet_cli("analyze", str(out / "events_000.tsv"))


class TestFlags:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--trajectories", "0"],
            ["--seed", "-1"],
            ["--depth", "0"],
            ["--dt-max", "0", "--engine", "steps"],
            ["--duration", "-5"],
            ["--threshold-gap", "-3"],
            ["--kind", "foo"],
        ],
        ids=" ".join,
    )
    def test_bad_flag_value_exits_one(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert run_cli("run", *flags, "--out", str(out)) == 1
        assert "config error: " + flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_empty_out_exits_one_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "--duration", "10", "--out", "") == 1
        assert capsys.readouterr().err.startswith("config error: --out: out must name a directory")
        assert not any(tmp_path.iterdir())

    def test_out_with_a_hash_exits_one_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        """``diagnostic.json`` would hold ``out = a#b``, which reads back as ``out = a``."""
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "--duration", "10", "--out", "a#b") == 1
        assert capsys.readouterr().err.startswith(
            "config error: --out: out must name a directory, without '#' or a line break"
        )
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--duration abc", "duration must be positive and finite, got abc"),
            ("--depth 2.5", "depth must be an integer of at least 1, got 2.5"),
            ("--seed x", "master_seed must be an integer that fits in 64 bits, got x"),
            ("--trajectories 1e3", "trajectories must be an integer of at least 1, got 1e3"),
        ],
    )
    def test_flag_text_that_is_not_a_number_gets_the_keys_message(
        self, tmp_path, capsys, flag, message
    ):
        out = tmp_path / "out"
        assert run_cli("run", *flag.split(), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"config error: {flag.split()[0]}: {message}\n"
        assert not out.exists()

    def test_out_naming_a_file_exits_one_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "a_file"
        out.write_text("kept")
        assert run_cli("run", "--duration", "10", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot create output directory: ")
        assert out.read_text() == "kept"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--duration", "nan"],
            ["--duration", "inf"],
            ["--k-weak-absorb", "nan"],
            ["--dt-max", "nan"],
            ["--threshold-gap", "nan"],
        ],
        ids=" ".join,
    )
    def test_non_finite_flag_value_exits_one(self, tmp_path, capsys, flags):
        # through analyze, which reads a one-hit log and simulates nothing
        log = tmp_path / "events_000.tsv"
        log.write_text(serialize_log([EventRecord(1.5, EventKind.HIT, 0, 0, 1, 1, 0)]))
        assert run_cli("analyze", *flags, str(log)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        key = flags[0][2:].replace("-", "_")
        assert captured.err.startswith(f"config error: {flags[0]}: {key} must be positive and finite")

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--duration", "-inf"], 1),  # argparse takes -inf for an option
            (["--bogus", "1"], 1),
            (["--duration"], 1),
            (["--help"], 0),
        ],
        ids=lambda x: " ".join(x) if isinstance(x, list) else None,
    )
    def test_usage_error_exits_one_not_the_breach_code(self, tmp_path, capsys, flags, code):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", *flags, "--out", str(out))
        assert exc.value.code == code
        assert ("error: " in capsys.readouterr().err) == (code == 1)
        assert not out.exists()

    def test_every_flag_spelling_reaches_the_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threshold_gap = 55.5\n")
        out = tmp_path / "flags"
        assert run_cli(
            "run", "--config", str(cfg), "--kind", "lambda", "--lasers", "strong_only",
            "--mode", "original_with_observer", "--k-strong-absorb", "2", "--k-strong-emit", "2",
            "--k-weak-absorb", "0.1", "--k-weak-emit", "0.1", "--duration", "20",
            "--dt-max", "0.02", "--seed", "3", "--trajectories", "2", "--threshold-gap", "auto",
            "--depth", "3", "--engine", "steps", "--out", str(out),
        ) == 0
        text = (out / "report.txt").read_text()
        assert "kind=lambda lasers=strong_only mode=original_with_observer" in text
        assert "ksa=2.0 kse=2.0 kwa=0.1 kwe=0.1" in text
        assert "duration=20.0 dt_max=0.02 seed=3 trajectories=2" in text
        assert "threshold_gap=20.0" in text  # auto: 20x the strong cycle
        report = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        assert report["engine"] == "steps"
