"""Config file parsing: strict key=value handling with line-numbered errors."""

import math

import pytest

from ubrsim.cli import main
from ubrsim.config import (TRAFFIC_KEYS, ConfigError, load_config,
                           parse_config_text, scenario_from_config)
from ubrsim.scenarios import build_scenario
from ubrsim.www import TrafficParams


def test_parse_basic_keys_and_comments():
    cfg = parse_config_text(
        "# desk run\n"
        "\n"
        "scale = 0.1\n"
        "connections = 10   # ten clients\n"
        "duration_s = 20\n"
        "drop_log = true\n")
    assert cfg == {"scale": 0.1, "connections": 10, "duration_s": 20.0,
                   "drop_log": True}


def test_parse_list_values():
    cfg = parse_config_text(
        "buffers = 54, 108, 230\n"
        "class_bases = 100, 1000\n"
        "class_freqs = 0.5, 0.5\n")
    assert cfg["buffers"] == (54, 108, 230)
    assert cfg["class_bases"] == (100, 1000)
    assert cfg["class_freqs"] == (0.5, 0.5)


def test_unknown_key_lists_alternatives():
    with pytest.raises(ConfigError, match=r"config:2: unknown key 'scal'"):
        parse_config_text("# typo below\nscal = 0.1\n")
    with pytest.raises(ConfigError, match="known:.*scale"):
        parse_config_text("scal = 0.1\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="config:1: expected key = value"):
        parse_config_text("scale 0.1\n")


def test_malformed_value_reports_requirement():
    with pytest.raises(ConfigError,
                       match=r"^config:1: scale must be a number, got 'fast'$"):
        parse_config_text("scale = fast\n")
    with pytest.raises(ConfigError, match="connections must be an integer, got"):
        parse_config_text("connections = 2.5\n")


def from_text(text: str):
    return scenario_from_config("wan", parse_config_text(text))


def test_out_of_range_value():
    with pytest.raises(ConfigError, match=r"^config:1: scale must be in \(0, 1\]"):
        from_text("scale = 1.2\n")
    with pytest.raises(ConfigError, match="^config:1: seed must be nonnegative"):
        from_text("seed = -3\n")
    with pytest.raises(ConfigError, match="^config:1: buffers must be 3 positive"):
        from_text("buffers = 54, 108\n")
    with pytest.raises(ConfigError, match="^config:1: buffers must be 3 positive"):
        from_text("buffers = 54, 0, 230\n")


def test_duplicate_key_points_at_both_lines():
    with pytest.raises(ConfigError,
                       match=r"config:3: duplicate key 'seed' \(first set on line 1\)"):
        parse_config_text("seed = 1\nscale = 0.5\nseed = 2\n")


def test_gap_ordering_cross_check():
    with pytest.raises(ConfigError, match="gap_max_s must exceed gap_min_s"):
        from_text("gap_min_s = 0.5\ngap_max_s = 0.1\n")
    cfg = parse_config_text("gap_min_s = 0.1\ngap_max_s = 0.5\n")
    assert cfg["gap_min_s"] == 0.1


def test_traffic_ranges_fail_at_their_line_with_traffic_params_message():
    with pytest.raises(ConfigError, match=r"config:2: batch_period_s must be "
                                          r"positive, got 0\.0$"):
        from_text("scale = 0.1\nbatch_period_s = 0\n")
    with pytest.raises(ConfigError, match=r"config:3: gap_max_s must exceed "
                                          r"gap_min_s and gap_min_s must be "
                                          r"nonnegative, got \[-1\.0, 0\.5\)$"):
        from_text("scale = 0.1\nconnections = 4\ngap_min_s = -1\n")
    with pytest.raises(ConfigError, match="config:1: batch_period_s must be a number"):
        parse_config_text("batch_period_s = soon\n")


def test_class_lists_must_come_together_and_match():
    with pytest.raises(ConfigError, match="must be given together"):
        parse_config_text("class_bases = 100, 1000\n")
    with pytest.raises(ConfigError, match="same length"):
        from_text("class_bases = 100, 1000\n"
                  "class_freqs = 0.2, 0.3, 0.5\n")
    with pytest.raises(ConfigError, match="sum to 1"):
        from_text("class_bases = 100, 1000\n"
                  "class_freqs = 0.2, 0.3\n")


def test_boolean_forms():
    for text, want in (("true", True), ("YES", True), ("1", True), ("on", True),
                       ("false", False), ("No", False), ("0", False)):
        assert parse_config_text(f"drop_log = {text}\n")["drop_log"] is want
    with pytest.raises(ConfigError, match="drop_log must be true or false"):
        parse_config_text("drop_log = maybe\n")


def test_load_config_reads_file_and_names_it_in_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scale = 0.1\nconnections = 5\n")
    assert load_config(str(path)) == {"scale": 0.1, "connections": 5}
    path.write_text("bogus = 1\n")
    with pytest.raises(ConfigError, match=rf"{path.name}:1: unknown key"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "absent.cfg"))


def test_scenario_from_config_applies_values_and_overrides():
    cfg = parse_config_text("scale = 0.5\nseed = 9\nconnections = 7\n"
                            "duration_s = 30\nbuffers = 10, 20, 40\n"
                            "request_bytes = 64\n")
    sc = scenario_from_config("wan", cfg)
    assert (sc.scale, sc.seed, sc.connections, sc.duration_s) == (0.5, 9, 7, 30.0)
    assert sc.buffers == (10, 20, 40)
    assert sc.traffic.request_bytes == 64
    # command-line style overrides beat the file
    sc2 = scenario_from_config("wan", cfg, seed=2, scale=0.25)
    assert (sc2.seed, sc2.scale) == (2, 0.25)


def test_overridden_file_value_is_not_judged_and_a_flag_error_has_no_line():
    cfg = parse_config_text("seed = -3\nscale = 7\n")
    sc = scenario_from_config("wan", cfg, seed=2, scale=0.1)
    assert (sc.seed, sc.scale) == (2, 0.1)
    with pytest.raises(ConfigError, match=r"^seed must be nonnegative, got -1$"):
        scenario_from_config("wan", cfg, seed=-1, scale=0.1)


def test_scenario_from_config_defaults():
    sc = scenario_from_config("meo", {})
    assert (sc.seed, sc.scale, sc.connections) == (1, 1.0, 100)
    assert sc.traffic.request_bytes == 128


def test_scenario_from_config_wraps_build_errors():
    with pytest.raises(ConfigError, match="unknown delay class"):
        scenario_from_config("leo", {})
    with pytest.raises(ConfigError, match="class frequencies"):
        scenario_from_config("wan", {"class_bases": (100,),
                                     "class_freqs": (0.5,)})


# key, its bad value as (API value, file text), and line 1 of the file
BAD_INPUTS = [
    ("scale", 1.5, "1.5", "# line 1"),
    ("connections", 0, "0", "# line 1"),
    ("duration_s", 0.0, "0", "# line 1"),
    ("seed", -3, "-3", "# line 1"),
    ("buffers", (54, 0, 230), "54, 0, 230", "# line 1"),
    ("request_bytes", 0, "0", "# line 1"),
    ("class_bases", (0, 1000), "0, 1000", "class_freqs = 0.5, 0.5"),
    ("class_freqs", (1.5, -0.5), "1.5, -0.5", "class_bases = 100, 1000"),
    ("batch_period_s", 0.0, "0", "# line 1"),
]
# float() converts "nan" and "inf", and each passes a one-sided range test
NON_FINITE_INPUTS = [
    ("duration_s", math.nan, "nan", "# line 1"),
    ("duration_s", math.inf, "inf", "# line 1"),
    ("batch_period_s", math.inf, "inf", "# line 1"),
    ("gap_max_s", math.inf, "inf", "# line 1"),
]


@pytest.mark.parametrize("key,value,text,line1", BAD_INPUTS + NON_FINITE_INPUTS,
                         ids=[case[0] for case in BAD_INPUTS]
                         + [f"{case[0]}={case[2]}" for case in NON_FINITE_INPUTS])
def test_each_rule_fails_the_same_way_through_api_file_and_cli(
        key, value, text, line1, tmp_path, capsys):
    file_cfg = parse_config_text(f"{line1}\n{key} = {text}\n")
    with pytest.raises(ValueError, match=f"^{key} ") as api:
        if key in TRAFFIC_KEYS:
            TrafficParams(**{**file_cfg, key: value})
        else:
            build_scenario("wan", **{key: value})
    message = str(api.value)
    with pytest.raises(ConfigError) as from_file:
        scenario_from_config("wan", file_cfg)
    assert str(from_file.value) == f"config:2: {message}"
    if key in ("seed", "scale"):
        rc = main(["run", "--delay-class", "wan", f"--{key}", text, "--quiet",
                   "--out", str(tmp_path / "never.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
