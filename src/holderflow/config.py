"""Plain-text experiment configuration: strict INI-style key=value sections.

Unknown keys are fatal (a silent typo in beta or hurst would invalidate a
rate experiment) and every regime hypothesis is checked at parse time with
an error naming the violated bound.
"""

from __future__ import annotations

import configparser

from .convergence import ExperimentConfig

__all__ = ["parse_config", "parse_config_text", "emit_config", "ConfigError"]


class ConfigError(ValueError):
    pass


# section -> key -> (ExperimentConfig field, converter)
_SCHEMA = {
    "noise": {
        "hurst": ("hurst", float),
        "dim": ("dim", int),
        "horizon": ("horizon", float),
        "steps": ("master_steps", int),
        "seeds": ("seeds", lambda s: tuple(int(x) for x in s.split())),
    },
    "kernel": {
        "base": ("kernel_base", str),
        "beta": ("beta", float),
        "bandwidth": ("kernel_bandwidth", float),
    },
    "particles": {
        "n_list": ("n_sweep", lambda s: tuple(int(x) for x in s.split())),
        "force_backend": ("force_backend", str),
        "force_grid": ("force_grid", int),
        "init": ("init_strategy", str),
    },
    "pde": {
        "resolution": ("pde_resolution", int),
        "cfl": ("cfl", float),
        "vacuum_floor": ("vacuum_floor", float),
    },
    "sigma": {
        "amplitude": ("sigma_amplitude", float),
        "modulation": ("sigma_modulation", float),
    },
    "analysis": {
        "eta": ("eta", float),
        "q_hat": ("q_hat", float),
        "besov_grid": ("besov_grid", int),
        "lambda": ("besov_lambda", float),
        "fine_grid": ("fine_grid", int),
        "checkpoints": ("checkpoints", int),
    },
    "domain": {
        "box": ("box", float),
        "rho0_amplitude": ("rho0_amplitude", float),
        "v0_amplitude": ("v0_amplitude", float),
    },
}


def parse_config_text(text: str, source: str = "<string>") -> ExperimentConfig:
    """The config in ``text``, read from ``source``; text that is not strict
    INI is a ``ConfigError`` naming ``source``, like every other refusal."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text, source=source)
        sections = {section: cp.items(section) for section in cp.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"{source} is not strict INI: {exc}") from exc
    overrides = {}
    for section, items in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in items:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field_name, conv = _SCHEMA[section][key]
            try:
                overrides[field_name] = conv(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key} = {raw!r}: {exc}"
                ) from exc
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
    for section in sorted(_SCHEMA):
        lines.append(f"[{section}]")
        for key in sorted(_SCHEMA[section]):
            field_name, conv = _SCHEMA[section][key]
            value = getattr(config, field_name)
            if isinstance(value, tuple):
                value = " ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
