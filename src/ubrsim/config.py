"""Run configuration files: flat key=value pairs, converted and placed.

Example:

    # desk-size check run
    scale = 0.1
    duration_s = 20
    connections = 10
    drop_log = false

Unknown keys, duplicate keys and values that do not convert are rejected
here with their line number.  The range rules live only in `build_scenario`
and `TrafficParams`; `scenario_from_config` reports their errors at the
latest line that set a key the message names.  Command-line `--seed` and
`--scale` win over file values, which are then never judged.
"""

from __future__ import annotations

from dataclasses import fields

from .scenarios import Scenario, build_scenario
from .www import TrafficParams


class ConfigError(ValueError):
    """Raised for unparseable or out-of-range configuration input."""


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _list_of(convert):
    # int() and float() ignore the spaces around each comma-separated part
    return lambda text: tuple(map(convert, text.split(",")))


# key -> (converter, type phrase shown when a value does not convert)
SCHEMA = {
    "scale": (float, "a number"),
    "connections": (int, "an integer"),
    "duration_s": (float, "a number"),
    "seed": (int, "an integer"),
    "batch_period_s": (float, "a number"),
    "gap_min_s": (float, "a number"),
    "gap_max_s": (float, "a number"),
    "request_bytes": (int, "an integer"),
    "class_bases": (_list_of(int), "comma-separated integers"),
    "class_freqs": (_list_of(float), "comma-separated numbers"),
    "buffers": (_list_of(int), "comma-separated integers"),
    "drop_log": (_bool, "true or false"),
}

TRAFFIC_KEYS = tuple(f.name for f in fields(TrafficParams))


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
    if ("class_bases" in values) != ("class_freqs" in values):
        only = "class_bases" if "class_bases" in values else "class_freqs"
        raise ConfigError(f"{source}:{lines[only]}: class_bases and class_freqs "
                          "must be given together")
    return values


def load_config(path: str) -> ConfigValues:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    return parse_config_text(text, source=path)


def scenario_from_config(delay_class: str, cfg: dict, seed: int | None = None,
                         scale: float | None = None) -> Scenario:
    """Build a scenario from config values plus command-line overrides.

    A rule's error gets the latest line of a file key its message names,
    unless an override replaced that key.
    """
    overridden = {k for k, v in (("seed", seed), ("scale", scale)) if v is not None}
    try:
        traffic = None
        if any(k in cfg for k in TRAFFIC_KEYS):
            traffic = TrafficParams(**{k: cfg[k] for k in TRAFFIC_KEYS if k in cfg})
        return build_scenario(
            delay_class,
            seed=seed if seed is not None else cfg.get("seed", 1),
            scale=scale if scale is not None else cfg.get("scale", 1.0),
            connections=cfg.get("connections"),
            duration_s=cfg.get("duration_s"),
            traffic=traffic,
            buffers=cfg.get("buffers"),
        )
    except ValueError as exc:
        named = [n for k, n in getattr(cfg, "lines", {}).items()
                 if k not in overridden and k in str(exc)]
        where = f"{cfg.source}:{max(named)}: " if named else ""
        raise ConfigError(f"{where}{exc}") from None
