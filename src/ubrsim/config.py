"""Run configuration files: flat key=value pairs with strict validation.

Example:

    # desk-size check run
    scale = 0.1
    duration_s = 20
    connections = 10
    drop_log = false

Unknown keys, malformed values, and out-of-range values are rejected with
the offending line number, so a typo cannot silently fall back to a default.
Command-line flags take precedence over file values.
"""

from __future__ import annotations

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


def _int_list(text: str) -> tuple:
    return tuple(int(part.strip()) for part in text.split(","))


def _float_list(text: str) -> tuple:
    return tuple(float(part.strip()) for part in text.split(","))


# key -> (converter, range check, requirement shown in errors); the traffic
# keys' ranges are TrafficParams' rules, reported after the file is parsed
SCHEMA = {
    "scale": (float, lambda v: 0 < v <= 1, "a number in (0, 1]"),
    "connections": (int, lambda v: v >= 1, "an integer >= 1"),
    "duration_s": (float, lambda v: v > 0, "a positive number"),
    "seed": (int, lambda v: v >= 0, "a nonnegative integer"),
    "batch_period_s": (float, lambda v: True, "a number"),
    "gap_min_s": (float, lambda v: True, "a number"),
    "gap_max_s": (float, lambda v: v > 0, "a positive number"),
    "request_bytes": (int, lambda v: v >= 1, "an integer >= 1"),
    "class_bases": (_int_list, lambda v: len(v) > 0 and all(b > 0 for b in v),
                    "comma-separated positive integers"),
    "class_freqs": (_float_list, lambda v: len(v) > 0 and all(f >= 0 for f in v),
                    "comma-separated nonnegative numbers"),
    "buffers": (_int_list, lambda v: len(v) == 3 and all(b > 0 for b in v),
                "three comma-separated positive cell counts"),
    "drop_log": (_bool, lambda v: True, "true or false"),
}

TRAFFIC_KEYS = ("request_bytes", "batch_period_s", "gap_min_s", "gap_max_s",
                "class_bases", "class_freqs")


def parse_config_text(text: str, source: str = "config") -> dict:
    values: dict = {}
    lines: dict = {}
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
        convert, check, requirement = SCHEMA[key]
        try:
            parsed = convert(value)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: {key} must be {requirement}, "
                              f"got {value!r}") from None
        if not check(parsed):
            raise ConfigError(f"{source}:{lineno}: {key} must be {requirement}, "
                              f"got {value!r}")
        values[key] = parsed
        lines[key] = lineno
    if ("class_bases" in values) != ("class_freqs" in values):
        only = "class_bases" if "class_bases" in values else "class_freqs"
        raise ConfigError(f"{source}:{lines[only]}: class_bases and class_freqs "
                          "must be given together")
    traffic = {k: values[k] for k in TRAFFIC_KEYS if k in values}
    try:
        TrafficParams(**traffic)
    except ValueError as exc:
        # TrafficParams owns the cross-field rules and names the fields
        lineno = max(lines[k] for k in traffic if k in str(exc))
        raise ConfigError(f"{source}:{lineno}: {exc}") from None
    return values


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    return parse_config_text(text, source=path)


def scenario_from_config(delay_class: str, cfg: dict, seed: int | None = None,
                         scale: float | None = None) -> Scenario:
    """Build a scenario from config values plus command-line overrides."""
    try:
        traffic = None
        if any(k in cfg for k in TRAFFIC_KEYS):
            kwargs = {k: cfg[k] for k in TRAFFIC_KEYS if k in cfg}
            traffic = TrafficParams(**kwargs)
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
        raise ConfigError(str(exc)) from None
