"""Run configuration files: flat key=value pairs, converted and placed.

Example:

    # desk-size check run
    duration_s = 20
    connections = 10

A file holds only the scenario's shape; `ubrsim run --seed`, `--scale` and
`--drop-log` set the rest.  Unknown keys, duplicate keys and values that do
not convert are rejected here with their line number.  The range rules live
only in `build_scenario`; `scenario_from_config` reports their errors at the
latest line that set a key the message names.  The traffic law is fixed
(`ubrsim.www`), so no key sets it.
"""

from __future__ import annotations

from .scenarios import Scenario, build_scenario


class ConfigError(ValueError):
    """Raised for unparseable or out-of-range configuration input."""


def _ints(text: str) -> tuple:
    # int() ignores the spaces around each comma-separated part
    return tuple(map(int, text.split(",")))


# key -> (converter, type phrase shown when a value does not convert)
SCHEMA = {
    "connections": (int, "an integer"),
    "duration_s": (float, "a number"),
    "buffers": (_ints, "comma-separated integers"),
}


class ConfigValues(dict):
    """Converted file values, plus the line that set each key."""

    def __init__(self, source: str, lines: dict):
        super().__init__()
        self.source, self.lines = source, lines


def parse_config_text(text: str, source: str = "config") -> ConfigValues:
    lines: dict = {}
    values = ConfigValues(source, lines)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} "
                              f"(known: {', '.join(sorted(SCHEMA))})")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} "
                              f"(first set on line {lines[key]})")
        convert, kind = SCHEMA[key]
        try:
            values[key] = convert(value)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: {key} must be {kind}, "
                              f"got {value!r}") from None
        lines[key] = lineno
    return values


def load_config(path: str) -> ConfigValues:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    return parse_config_text(text, source=path)


def scenario_from_config(delay_class: str, cfg: dict, **inputs) -> Scenario:
    """Build a scenario from a file's values and the other `build_scenario`
    inputs (`seed`, `scale`), which are passed on unchanged.

    A rule's error gets the latest line of a file key its message names.
    """
    try:
        return build_scenario(delay_class, **cfg, **inputs)
    except ValueError as exc:
        named = [n for k, n in getattr(cfg, "lines", {}).items() if k in str(exc)]
        where = f"{cfg.source}:{max(named)}: " if named else ""
        raise ConfigError(f"{where}{exc}") from None
