"""A run's configuration: the five scenario inputs reach `build_scenario`
from the Python API and from `ubrsim run`'s flags, and each rule fails the
same way through both."""

import math

import pytest

from ubrsim import cli
from ubrsim.cli import main
from ubrsim.scenarios import build_scenario


def run_argv(tmp_path, *flags):
    return ["run", "--delay-class", "wan", *flags, "--quiet",
            "--out", str(tmp_path / "never.csv")]


@pytest.mark.parametrize("flags,inputs", [
    ((), {}),
    (("--seed", "9", "--scale", "0.5", "--connections", "7",
      "--duration-s", "30", "--buffers", "10", "20", "40"),
     {"seed": 9, "scale": 0.5, "connections": 7, "duration_s": 30.0,
      "buffers": (10, 20, 40)}),
], ids=["no_flag", "every_flag"])
def test_run_builds_the_scenario_of_the_flags_set(flags, inputs, tmp_path,
                                                  monkeypatch):
    # an unset flag is not passed on, so build_scenario's defaults hold
    built = []
    monkeypatch.setattr(cli, "run_grid", lambda sc, **kw: built.append(sc) or [])
    assert main(run_argv(tmp_path, *flags)) == 0
    assert built == [build_scenario("wan", **inputs)]


def test_parse_list_values(tmp_path, monkeypatch):
    # --buffers takes three sizes, which reach the scenario as a tuple
    built = []
    monkeypatch.setattr(cli, "run_grid", lambda sc, **kw: built.append(sc) or [])
    assert main(run_argv(tmp_path, "--buffers", "54", "108", "230")) == 0
    assert built[0].buffers == (54, 108, 230)


def test_out_of_range_value(tmp_path, capsys):
    for flags, message in (
            (("--connections", "0"), "connections must be at least 1"),
            (("--duration-s", "-3"), "duration_s must be positive"),
            (("--buffers", "54", "0", "230"), "buffers must be 3 positive")):
        assert main(run_argv(tmp_path, *flags)) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_malformed_value_reports_requirement(tmp_path, capsys):
    # argparse refuses a value that does not convert, as a usage error
    for flags, complaint in (
            (("--connections", "2.5"), "--connections: invalid int value: '2.5'"),
            (("--duration-s", "fast"), "--duration-s: invalid float value: 'fast'"),
            (("--buffers", "54", "108"), "--buffers: expected 3 arguments")):
        with pytest.raises(SystemExit) as exc:
            main(run_argv(tmp_path, *flags))
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {complaint}\n")


def test_derived_buffers_name_the_scale_flag_and_no_file_line(tmp_path, capsys):
    # no flag sets buffers: they derive from --scale, which the message names,
    # and the error carries no path:line prefix
    message = ("buffers must be 3 positive buffer sizes in cells, "
               "scale 1e-12 derives (0, 0, 46)")
    assert main(run_argv(tmp_path, "--scale", "1e-12", "--connections", "2",
                         "--duration-s", "0.5")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# key, its bad value as (API value, flag text)
BAD_INPUTS = [
    ("scale", 1.5, "1.5"),
    ("connections", 0, "0"),
    ("duration_s", 0.0, "0"),
    ("seed", -3, "-3"),
    ("buffers", (54, 0, 230), "54 0 230"),
]
# float() converts "nan" and "inf", and each passes a one-sided range test
NON_FINITE_INPUTS = [
    ("scale", math.nan, "nan"),
    ("scale", math.inf, "inf"),
    ("duration_s", math.nan, "nan"),
    ("duration_s", math.inf, "inf"),
]


@pytest.mark.parametrize("key,value,text", BAD_INPUTS + NON_FINITE_INPUTS,
                         ids=[case[0] for case in BAD_INPUTS]
                         + [f"{case[0]}={case[2]}" for case in NON_FINITE_INPUTS])
def test_each_rule_fails_the_same_way_through_api_and_flag(
        key, value, text, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"^{key} ") as api:
        build_scenario("wan", **{key: value})
    # a flag's error is the API's message, with no line number
    flag = "--" + key.replace("_", "-")
    assert main(run_argv(tmp_path, flag, *text.split())) == 1
    assert capsys.readouterr().err == f"error: {api.value}\n"
