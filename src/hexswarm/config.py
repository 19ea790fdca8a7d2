"""Scenario configuration: a flat ``key = value`` text format with one
optional ``[ga]`` / ``[aco]`` / ``[bco]`` section per controller block.

Missing keys take the documented defaults; unknown keys, duplicate keys and
repeated sections are rejected with their line number. Full-line comments
start with '#'. Lines, keys, values and their parts may be padded with ASCII
spaces and tabs only. Numbers are ASCII only, in one grammar shared with the
CLI's integer flags (``ascii_int``, ``ascii_float``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, get_type_hints

from .aco import AcoParams
from .bco import BcoParams
from .ga import GaParams
from .hexworld import HexCoord, WorldConfigError, make_world

CONTROLLERS = ("ga", "aco", "bco")
_PADDING = " \t"  # all that is trimmed; any other whitespace is part of the text


class ConfigError(ValueError):
    """Bad scenario text or values; the message names the line or field."""


@dataclass
class ScenarioConfig:
    controller: str = "ga"
    robots: int = 20
    radius: int = 15
    margin: int = 1
    target: HexCoord = HexCoord(10, 0)
    entry: HexCoord = HexCoord(-10, 0)
    seed: int = 0
    max_ticks: int = 500
    comm_range: int = 2
    ttl: int = 5
    sensing_radius: int = 8
    removals: list[tuple[int, int]] = field(default_factory=list)  # (tick, robot id)
    ga: GaParams = field(default_factory=GaParams)
    aco: AcoParams = field(default_factory=AcoParams)
    bco: BcoParams = field(default_factory=BcoParams)


_INT = re.compile(r"-?(?:0|[1-9][0-9]*)")
_FLOAT = re.compile(_INT.pattern + r"(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def ascii_int(text: str) -> int:
    """An integer in ASCII digits: no '_', no leading '+', no leading zero."""
    if not _INT.fullmatch(text):
        raise ValueError(f"expected an integer such as 12 or -3, got {text!r}")
    return int(text)


def ascii_float(text: str) -> float:
    """A finite number in ASCII digits, integer part as in ascii_int, with an
    optional fraction and exponent; a nonzero literal may not underflow to 0."""
    if not _FLOAT.fullmatch(text):
        raise ValueError(f"expected a number such as 0.25 or 1e-05, got {text!r}")
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"must be a finite number, got {text!r}")
    if number == 0.0 and re.split("[eE]", text)[0].strip("-.0"):
        raise ValueError(f"{text!r} is not zero but underflows to 0.0")
    return number


def _int_pair(text: str, sep: str, form: str) -> tuple[int, int]:
    parts = text.split(sep)
    if len(parts) != 2:
        raise ValueError(f"expected {form!r}, got {text.strip(_PADDING)!r}")
    return ascii_int(parts[0].strip(_PADDING)), ascii_int(parts[1].strip(_PADDING))


def _parse_coord(value: str) -> HexCoord:
    return HexCoord(*_int_pair(value, ",", "q,r"))


def _parse_removals(value: str) -> list[tuple[int, int]]:
    if not value.strip(_PADDING):
        return []
    return [_int_pair(chunk, ":", "tick:robot") for chunk in value.split(",")]


# Value parser per declared field type; every config key is a dataclass field.
_PARSE_BY_TYPE = {
    int: ascii_int,
    float: ascii_float,
    str: str,
    HexCoord: _parse_coord,
    list[tuple[int, int]]: _parse_removals,
}


def _key_parsers(cls: type) -> dict[str, Callable[[str], Any]]:
    types = get_type_hints(cls)
    return {
        f.name: _PARSE_BY_TYPE[types[f.name]] for f in fields(cls) if f.name not in CONTROLLERS
    }


# Each controller's parameters live in a [section] and a field named after it.
_TOP_PARSERS = _key_parsers(ScenarioConfig)
_SECTION_PARSERS = {
    name: _key_parsers(get_type_hints(ScenarioConfig)[name]) for name in CONTROLLERS
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate scenario text; raises ConfigError with the line
    number on parse problems and the field name on validation problems."""
    cfg = ScenarioConfig()
    section = None
    target, parsers, seen_keys = cfg, _TOP_PARSERS, set()
    seen_sections = set()
    # Lines end at "\n" alone, as editors split them, after CRLF's one "\r".
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.removesuffix("\r").strip(_PADDING)
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip(_PADDING)
            if section not in _SECTION_PARSERS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            if section in seen_sections:
                raise ConfigError(f"line {lineno}: repeated section [{section}]")
            seen_sections.add(section)
            target, parsers, seen_keys = getattr(cfg, section), _SECTION_PARSERS[section], set()
            continue
        key, eq, value = (s.strip(_PADDING) for s in line.partition("="))
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        where = f" in [{section}]" if section else ""
        if key not in parsers:
            raise ConfigError(f"line {lineno}: unknown key {key!r}{where}")
        if key in seen_keys:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}{where}")
        seen_keys.add(key)
        try:
            setattr(target, key, parsers[key](value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    validate_config(cfg)
    return cfg


def _require(cond: bool, field_name: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{field_name}: {msg}")


def validate_config(cfg: ScenarioConfig) -> None:
    _require(cfg.controller in CONTROLLERS, "controller", f"must be one of {CONTROLLERS}")
    try:
        world = make_world(cfg.radius, cfg.margin, cfg.target, cfg.entry)
    except WorldConfigError as exc:
        raise ConfigError(str(exc)) from exc
    _require(cfg.robots >= 1, "robots", "must be >= 1")
    _require(
        cfg.robots <= world.accessible_cell_count(),
        "robots",
        f"exceeds the {world.accessible_cell_count()} accessible cells",
    )
    _require(0 <= cfg.seed < 2**64, "seed", "must fit in an unsigned 64-bit integer")
    _require(cfg.max_ticks >= 0, "max_ticks", "must be >= 0")
    _require(cfg.comm_range >= 1, "comm_range", "must be >= 1")
    _require(cfg.ttl >= 0, "ttl", "must be >= 0")
    _require(cfg.sensing_radius >= 0, "sensing_radius", "must be >= 0")
    removed = [rid for _, rid in cfg.removals]
    for tick, rid in cfg.removals:
        _require(tick >= 0, "removals", f"tick {tick} must be >= 0")
        _require(0 <= rid < cfg.robots, "removals", f"robot id {rid} out of range")
        _require(removed.count(rid) == 1, "removals", f"robot {rid} is removed more than once")

    ga = cfg.ga
    _require(ga.population >= 2, "population", "must be >= 2")
    _require(ga.population % 2 == 0, "population", "must be even")
    _require(ga.generations >= 1, "generations", "must be >= 1")
    _require(ga.tournament_k >= 1, "tournament_k", "must be >= 1")
    _require(0.0 <= ga.crossover_prob <= 1.0, "crossover_prob", "must be in [0, 1]")
    _require(0.0 <= ga.mutation_prob <= 1.0, "mutation_prob", "must be in [0, 1]")
    _require(ga.alignment_weight >= 0.0, "alignment_weight", "must be >= 0")

    aco = cfg.aco
    _require(0.0 < aco.evaporation < 1.0, "evaporation", "must be in (0, 1)")
    _require(aco.deposit_scale > 0.0, "deposit_scale", "must be > 0")
    _require(aco.alpha >= 0.0, "alpha", "must be >= 0")
    _require(aco.beta >= 0.0, "beta", "must be >= 0")
    _require(aco.floor >= 0.0, "floor", "must be >= 0")
    try:  # a level never exceeds deposit_scale / evaporation, and eta^beta <= 1
        weight_sum = 6 * (aco.deposit_scale / aco.evaporation + aco.floor) ** aco.alpha
    except OverflowError:
        weight_sum = math.inf
    _require(math.isfinite(weight_sum), "alpha", "too large: six transition weights overflow")

    bco = cfg.bco
    _require(bco.follow_gain > 0.0, "follow_gain", "must be > 0")
    _require(0.0 <= bco.scout_prob <= 1.0, "scout_prob", "must be in [0, 1]")
    _require(bco.leader_timeout >= 1, "leader_timeout", "must be >= 1")


def config_overrides(cfg: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Return a copy, sharing no mutable field with cfg, with the given
    non-None top-level fields replaced."""
    names = {f.name for f in fields(ScenarioConfig)}
    out = replace(
        cfg,
        removals=list(cfg.removals),
        **{name: replace(getattr(cfg, name)) for name in CONTROLLERS},
    )
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in names:
            raise ConfigError(f"{key}: unknown override")
        setattr(out, key, value)
    validate_config(out)
    return out
