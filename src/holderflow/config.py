"""Plain-text experiment configuration: strict INI-style key=value sections.

Unknown keys are fatal (a silent typo in beta or hurst would invalidate a
rate experiment) and every regime hypothesis is checked at parse time with
an error naming the violated bound.
"""

from __future__ import annotations

import configparser
from dataclasses import fields
from itertools import groupby

from .convergence import ExperimentConfig

__all__ = ["parse_config", "parse_config_text", "emit_config", "ConfigError"]


class ConfigError(ValueError):
    pass


# annotation of an ExperimentConfig field -> converter of its INI text
_CONVERT = {"float": float, "int": int, "str": str,
            "tuple": lambda s: tuple(int(x) for x in s.split())}
# (section, key) -> the ExperimentConfig field that the key sets
_FIELDS = {tuple(f.metadata["key"].split(".")): f for f in fields(ExperimentConfig)}


def parse_config_text(text: str, source: str = "<string>") -> ExperimentConfig:
    """The config in ``text``, read from ``source``; text that is not strict
    INI is a ``ConfigError`` naming ``source``, like every other refusal."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text, source=source)
        sections = {section: cp.items(section) for section in cp.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"{source} is not strict INI: {exc}") from exc
    if cp.defaults():  # configparser would copy its keys into every section
        raise ConfigError("section [DEFAULT] is not allowed: set each key in its own section")
    overrides = {}
    for section, items in sections.items():
        if section not in {s for s, _ in _FIELDS}:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in items:
            f = _FIELDS.get((section, key))
            if f is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                overrides[f.name] = _CONVERT[f.type](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc
    try:
        return ExperimentConfig(**overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path) -> ExperimentConfig:
    """The config file at ``path``; unreadable or not INI is a ``ConfigError``."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse_config_text(text, source=str(path))


def emit_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse(emit(parse(x))) == parse(x)."""
    lines = []
    for section, items in groupby(sorted(_FIELDS.items()), key=lambda item: item[0][0]):
        lines.append(f"[{section}]")
        for (_, key), f in items:
            value = getattr(config, f.name)
            if isinstance(value, tuple):
                value = " ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
