"""Config file parsing: strict key=value handling with line-numbered errors."""

import math

import pytest

from ubrsim.cli import main
from ubrsim.config import (SCHEMA, ConfigError, load_config, parse_config_text,
                           scenario_from_config)
from ubrsim.scenarios import build_scenario


def test_parse_basic_keys_and_comments():
    cfg = parse_config_text(
        "# desk run\n"
        "\n"
        "connections = 10   # ten clients\n"
        "duration_s = 20\n")
    assert cfg == {"connections": 10, "duration_s": 20.0}


def test_parse_list_values():
    cfg = parse_config_text("buffers = 54, 108, 230\n")
    assert cfg["buffers"] == (54, 108, 230)


# keys that once set the traffic law, now fixed in ubrsim.www, each with a
# value that would convert
REMOVED_TRAFFIC_KEYS = [
    ("request_bytes", "128"),
    ("batch_period_s", "10"),
    ("gap_min_s", "0.1"),
    ("gap_max_s", "0.5"),
    ("class_bases", "100, 1000"),
    ("class_freqs", "0.5, 0.5"),
]


@pytest.mark.parametrize("key,text", REMOVED_TRAFFIC_KEYS,
                         ids=[key for key, _ in REMOVED_TRAFFIC_KEYS])
def test_a_stale_traffic_key_fails_at_its_line(key, text):
    with pytest.raises(ConfigError, match=f"^config:2: unknown key '{key}' "):
        parse_config_text(f"connections = 1\n{key} = {text}\n")


# run inputs that only flags set: --seed, --scale and --drop-log
RUN_INPUT_KEYS = [("seed", "1"), ("scale", "0.1"), ("drop_log", "true")]


@pytest.mark.parametrize("key,text", RUN_INPUT_KEYS,
                         ids=[key for key, _ in RUN_INPUT_KEYS])
def test_a_run_input_key_fails_at_its_line(key, text):
    with pytest.raises(ConfigError, match=f"^config:2: unknown key '{key}' "):
        parse_config_text(f"connections = 1\n{key} = {text}\n")


def test_unknown_key_lists_alternatives():
    with pytest.raises(ConfigError, match=r"config:2: unknown key 'duration'"):
        parse_config_text("# typo below\nduration = 20\n")
    with pytest.raises(ConfigError, match=r"\(known: buffers, connections, "
                                          r"duration_s\)$"):
        parse_config_text("duration = 20\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="config:1: expected key = value"):
        parse_config_text("duration_s 20\n")


def test_malformed_value_reports_requirement():
    with pytest.raises(ConfigError,
                       match=r"^config:1: duration_s must be a number, got 'fast'$"):
        parse_config_text("duration_s = fast\n")
    with pytest.raises(ConfigError, match="connections must be an integer, got"):
        parse_config_text("connections = 2.5\n")


def from_text(text: str):
    return scenario_from_config("wan", parse_config_text(text))


def test_out_of_range_value():
    with pytest.raises(ConfigError, match="^config:1: connections must be at least 1"):
        from_text("connections = 0\n")
    with pytest.raises(ConfigError, match="^config:1: duration_s must be positive"):
        from_text("duration_s = -3\n")
    with pytest.raises(ConfigError, match="^config:1: buffers must be 3 positive"):
        from_text("buffers = 54, 108\n")
    with pytest.raises(ConfigError, match="^config:1: buffers must be 3 positive"):
        from_text("buffers = 54, 0, 230\n")


def test_derived_buffers_name_the_scale_flag_and_no_file_line(tmp_path, capsys):
    # no file line sets buffers: they derive from --scale, which has no line
    message = ("buffers must be 3 positive buffer sizes in cells, "
               "scale 1e-12 derives (0, 0, 46)")
    cfg = parse_config_text("connections = 2\nduration_s = 0.5\n")
    with pytest.raises(ConfigError) as err:
        scenario_from_config("wan", cfg, scale=1e-12)
    assert str(err.value) == message
    path = tmp_path / "run.cfg"
    path.write_text("connections = 2\nduration_s = 0.5\n")
    assert main(["run", "--delay-class", "wan", "--scale", "1e-12",
                 "--config", str(path), "--out", str(tmp_path / "never.csv"),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_duplicate_key_points_at_both_lines():
    with pytest.raises(ConfigError,
                       match=r"config:3: duplicate key 'connections' "
                             r"\(first set on line 1\)"):
        parse_config_text("connections = 1\nduration_s = 5\nconnections = 2\n")


def test_range_errors_fail_at_the_line_of_their_key():
    with pytest.raises(ConfigError, match=r"^config:3: duration_s must be "
                                          r"positive, got -1\.0$"):
        from_text("buffers = 1, 2, 3\nconnections = 4\nduration_s = -1\n")


def test_load_config_reads_file_and_names_it_in_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("duration_s = 20\nconnections = 5\n")
    assert load_config(str(path)) == {"duration_s": 20.0, "connections": 5}
    path.write_text("bogus = 1\n")
    with pytest.raises(ConfigError, match=rf"{path.name}:1: unknown key"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "absent.cfg"))


def test_scenario_from_config_applies_file_values_and_inputs():
    cfg = parse_config_text("connections = 7\nduration_s = 30\n"
                            "buffers = 10, 20, 40\n")
    sc = scenario_from_config("wan", cfg, seed=9, scale=0.5)
    assert sc == build_scenario("wan", seed=9, scale=0.5, connections=7,
                                duration_s=30.0, buffers=(10, 20, 40))


def test_scenario_from_config_defaults():
    sc = scenario_from_config("meo", {})
    assert (sc.seed, sc.scale, sc.connections) == (1, 1.0, 100)


def test_scenario_from_config_wraps_build_errors():
    with pytest.raises(ConfigError, match="unknown delay class"):
        scenario_from_config("leo", {})
    # a plain dict has no lines, so the message has none either
    with pytest.raises(ConfigError, match=r"^duration_s must be positive"):
        scenario_from_config("wan", {"duration_s": 0.0})


# key, its bad value as (API value, file or flag text)
BAD_INPUTS = [
    ("scale", 1.5, "1.5"),
    ("connections", 0, "0"),
    ("duration_s", 0.0, "0"),
    ("seed", -3, "-3"),
    ("buffers", (54, 0, 230), "54, 0, 230"),
]
# float() converts "nan" and "inf", and each passes a one-sided range test
NON_FINITE_INPUTS = [
    ("duration_s", math.nan, "nan"),
    ("duration_s", math.inf, "inf"),
]


@pytest.mark.parametrize("key,value,text", BAD_INPUTS + NON_FINITE_INPUTS,
                         ids=[case[0] for case in BAD_INPUTS]
                         + [f"{case[0]}={case[2]}" for case in NON_FINITE_INPUTS])
def test_each_rule_fails_the_same_way_through_api_file_and_cli(
        key, value, text, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"^{key} ") as api:
        build_scenario("wan", **{key: value})
    message = str(api.value)
    if key in SCHEMA:
        file_cfg = parse_config_text(f"# line 1\n{key} = {text}\n")
        with pytest.raises(ConfigError) as from_file:
            scenario_from_config("wan", file_cfg)
        assert str(from_file.value) == f"config:2: {message}"
    else:
        # a flag's error has no line
        rc = main(["run", "--delay-class", "wan", f"--{key}", text, "--quiet",
                   "--out", str(tmp_path / "never.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
