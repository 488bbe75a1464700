import ast
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import telegraphsim as ts
from telegraphsim.cli import main
from telegraphsim.config import _PARSERS, RunConfig, format_config, parse_config
from telegraphsim.errors import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"


def test_empty_document_gives_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.kind == "v"
    assert cfg.k_strong_absorb == 1.0
    assert cfg.k_weak_absorb == 1e-3
    assert cfg.mode == "nurules"
    assert cfg.duration == 2e6
    assert cfg.dt_max == 0.01
    assert cfg.trajectories == 1
    assert cfg.threshold_gap is None  # auto


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(),
        RunConfig(
            kind="cascade_weak_down", lasers="weak_only", k_weak_absorb=5e-9, duration=0.1 + 0.2,
            master_seed=2**64 - 1, threshold_gap=12.5, depth=3, engine="steps", out="a/b c",
        ),
    ],
)
def test_format_config_round_trip(cfg):
    text = format_config(cfg)
    assert parse_config(text) == cfg
    assert ("threshold_gap = auto" in text) == (cfg.threshold_gap is None)


def _readme_keys() -> dict[str, tuple[str, str]]:
    """Each key of README's ``Keys and defaults`` block: its value and its comment."""
    block = re.search(r"Keys and\s+defaults:\n\n```\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no Keys and defaults block"
    keys = {}
    for line in block.group(1).splitlines():
        pair, _, comment = line.partition("#")
        key, _, value = pair.partition("=")
        keys[key.strip()] = (value.strip(), comment.strip())
    return keys


def _choices(key: str) -> list[str]:
    """The choices that key's parser names when it rejects a value."""
    with pytest.raises(ValueError) as raised:
        _PARSERS[key]("not a choice")
    return ast.literal_eval(re.search(r"one of (\[.*?\])", str(raised.value)).group(1))


def test_readme_lists_every_key_with_its_default_and_choices():
    keys = _readme_keys()
    assert sorted(keys) == sorted(_PARSERS)
    defaults = RunConfig()
    for key, (value, _) in keys.items():
        assert _PARSERS[key](value) == getattr(defaults, key), key
    for key in ("kind", "lasers", "mode", "engine"):
        listed = [choice.strip() for choice in keys[key][1].split("|")]
        assert sorted(listed) == _choices(key), key


def test_direct_mapping():
    cfg = parse_config("kind = lambda\nmode = original_no_observer\n")
    assert cfg.config_kind().configuration is ts.Configuration.LAMBDA
    assert cfg.mode_enum() is ts.Mode.ORIGINAL_NO_OBSERVER


def test_negative_rate_names_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("k_weak_absorb = -1")


@pytest.mark.parametrize("value", ["nan", "inf", "NaN", "Infinity"])
@pytest.mark.parametrize(
    "key", ["duration", "dt_max", "k_strong_absorb", "k_weak_absorb", "threshold_gap"]
)
def test_non_finite_float_names_key_and_line(key, value):
    with pytest.raises(ConfigError, match=f"line 2: {key} must be positive and finite, got {value}"):
        parse_config(f"kind = v\n{key} = {value}\n")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "key", ["k_strong_absorb", "k_strong_emit", "k_weak_absorb", "k_weak_emit"]
)
def test_rate_set_rejects_non_finite_rate(key, value):
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        ts.RateSet(**{key: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
@pytest.mark.parametrize(
    "key", ["duration", "dt_max", "threshold_gap", "k_strong_absorb", "k_weak_emit"]
)
def test_run_config_rejects_non_finite_or_non_positive_value(key, value):
    """Built in code, not parsed: an infinite duration or a zero step never ends a run."""
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        RunConfig(**{key: value})
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        replace(RunConfig(), **{key: value})


@pytest.mark.parametrize(
    "key, value",
    [
        ("engine", "bogus"),
        ("trajectories", 0),
        ("kind", "x"),
        ("mode", "zzz"),
        ("master_seed", -1),
        ("lasers", "none"),
        ("depth", 0),
    ],
)
def test_run_config_applies_the_parsers_rules(key, value):
    """Built in code, not parsed: each value fails as its key's parser fails, at construction.

    Unchecked, ``engine='bogus'`` ran the renewal engine, ``trajectories=0``
    made the output directory and then failed, and the others failed at
    first use, with a ``KeyError`` or inside numpy.
    """
    with pytest.raises(ValueError, match=f"^{key} must "):
        RunConfig(**{key: value})
    with pytest.raises(ValueError, match=f"^{key} must "):
        replace(RunConfig(), **{key: value})


@pytest.mark.parametrize("value", ["", "   "])
def test_empty_out_is_rejected(value):
    """An empty ``out`` once wrote the logs and reports into the working directory."""
    with pytest.raises(ConfigError, match="^line 1: out must name a directory"):
        parse_config(f"out = {value}\n")
    with pytest.raises(ValueError, match="^out must name a directory"):
        RunConfig(out=value)


@pytest.mark.parametrize("value", ["runs#1", "a\nb", "a\rb", "a\u2028b"])
def test_out_that_would_not_read_back_is_rejected(value):
    """``format_config`` once wrote ``out = runs#1``, which ``parse_config`` read as ``runs``."""
    with pytest.raises(ValueError, match="^out must name a directory, without '#' or a line break"):
        RunConfig(out=value)
    with pytest.raises(ValueError, match="^out must name a directory, without '#' or a line break"):
        replace(RunConfig(), out=value)


#: Each number key's rule, as its message states it.
NUMBER_RULES = {
    **{
        key: "must be positive and finite"
        for key in (
            "k_strong_absorb", "k_strong_emit", "k_weak_absorb", "k_weak_emit", "duration",
            "dt_max", "threshold_gap",
        )
    },
    "trajectories": "must be an integer of at least 1",
    "depth": "must be an integer of at least 1",
    "master_seed": "must be an integer that fits in 64 bits",
}


def test_number_rules_cover_every_number_key():
    assert sorted(NUMBER_RULES) == sorted(
        key for key in _PARSERS if key not in ("kind", "lasers", "mode", "engine", "out")
    )


@pytest.mark.parametrize(
    "key, value",
    [
        (key, value)
        for key, rule in sorted(NUMBER_RULES.items())
        for value in ["abc", "1,5", "", *(["2.5", "1e3"] if "integer" in rule else [])]
    ],
)
def test_text_that_is_not_a_number_gets_the_keys_message(key, value):
    """``duration = abc`` once failed with float's message, ``depth = 2.5`` with int's."""
    message = f"{key} {NUMBER_RULES[key]}, got {value}"
    with pytest.raises(ValueError) as raised:
        _PARSERS[key](value)
    assert str(raised.value) == message
    with pytest.raises(ConfigError) as raised:
        parse_config(f"{key} = {value}\n")
    assert str(raised.value) == f"line 1: {message}"


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("kind = v\nfrobnicate = 3\n")


def test_repeated_key_names_both_lines():
    with pytest.raises(ConfigError) as raised:
        parse_config("kind = v\n# comment\nkind = lambda\n")
    assert str(raised.value) == "line 3: key 'kind' given twice (first on line 1)"


def test_repeated_key_exits_1(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("duration = 10\nduration = 20\n", encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "config error: line 2: key 'duration' given twice (first on line 1)\n"
    )
    assert not (tmp_path / "out").exists()


def test_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words")


def test_bad_enum_value():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("kind = w")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# a comment\n\nkind = v  # trailing comment\n")
    assert cfg.kind == "v"


def test_threshold_auto_and_explicit():
    assert parse_config("threshold_gap = auto").threshold_gap is None
    assert parse_config("threshold_gap = 55.5").threshold_gap == 55.5
    # auto resolves to 20x the strong cycle time
    cfg = parse_config("k_strong_absorb = 2.0\nk_strong_emit = 2.0")
    assert cfg.resolved_threshold() == pytest.approx(20.0)


def test_seed_range():
    assert parse_config("master_seed = 0").master_seed == 0
    assert parse_config(f"master_seed = {2**64 - 1}").master_seed == 2**64 - 1
    with pytest.raises(ConfigError):
        parse_config(f"master_seed = {2**64}")
    with pytest.raises(ConfigError):
        parse_config("master_seed = -1")


def test_depth_constraints():
    with pytest.raises(ConfigError):
        parse_config("depth = 0")
    with pytest.raises(ConfigError, match="line 2: unknown key 'max_depth'"):
        parse_config("depth = 5\nmax_depth = 3")


def test_flag_overrides_file_values():
    cfg = parse_config("kind = lambda\nduration = 10\n")
    out = replace(cfg, kind="v", master_seed=9)
    assert out.kind == "v"
    assert out.duration == 10.0
    assert out.master_seed == 9


@given(
    ksa=st.floats(min_value=1e-6, max_value=1e6),
    kwe=st.floats(min_value=1e-6, max_value=1e6),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_roundtrip_of_valid_documents(ksa, kwe, seed):
    text = f"k_strong_absorb = {ksa!r}\nk_weak_emit = {kwe!r}\nmaster_seed = {seed}\n"
    cfg = parse_config(text)
    assert cfg.k_strong_absorb == ksa
    assert cfg.k_weak_emit == kwe
    assert cfg.master_seed == seed
