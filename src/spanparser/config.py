"""Plain-text configuration: `key = value` lines mapped onto the three
config dataclasses (encoder, lexical, training).

All field names share one flat namespace (the dataclasses have disjoint
fields; checked at import time).  Lines starting with # and blank lines are
ignored; an inline ` # comment` after the value is stripped.  CLI overrides
use the same `key=value` syntax and are applied after the file.
"""

from __future__ import annotations

import dataclasses

from .encoder import EncoderConfig
from .lexical import LexicalConfig
from .training import TrainConfig


class ConfigError(ValueError):
    """Malformed configuration text or unknown/ill-typed keys."""


_SECTIONS = (EncoderConfig, LexicalConfig, TrainConfig)


def _field_types():
    """Every field's name mapped to its class and its type, which is the
    type of its default: the one type rule of config files, ``--set`` and
    checkpoint headers."""
    out = {}
    for cls in _SECTIONS:
        for f in dataclasses.fields(cls):
            if f.name in out:
                raise AssertionError("config field %r defined twice" % f.name)
            out[f.name] = (cls, type(f.default))
    return out


_FIELDS = _field_types()

_TRUE = ("true", "yes", "on", "1")
_FALSE = ("false", "no", "off", "0")


def _parse_value(key, text):
    """The value of field ``key`` that ``text`` spells."""
    if key not in _FIELDS:
        raise ConfigError("unknown configuration key %r" % key)
    py_type = _FIELDS[key][1]
    text = text.strip()
    try:
        if py_type is bool:
            low = text.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError
        return py_type(text)
    except ValueError:
        raise ConfigError("key %r expects %s, got %r"
                          % (key, py_type.__name__, text)) from None


def parse_config_text(text, source="<config>") -> dict:
    """Parse `key = value` lines into a raw string dict.  A line that is
    not `key = value`, an unknown key, a value of the wrong type or a key
    set twice raises ConfigError naming ``source`` and the line."""
    out, line_of = {}, {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = "%s:%d" % (source, lineno)
        if "=" not in line:
            raise ConfigError("%s: expected 'key = value', got %r"
                              % (where, raw.strip()))
        key, value = (part.strip() for part in line.split("=", 1))
        if key in line_of:
            raise ConfigError("%s: duplicate key %r, first set on line %d"
                              % (where, key, line_of[key]))
        try:
            _parse_value(key, value)
        except ConfigError as exc:
            raise ConfigError("%s: %s" % (where, exc)) from None
        out[key], line_of[key] = value, lineno
    return out


def load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply CLI `key=value` strings on top of the file values.  A string
    not of that form, an unknown key or a value of the wrong type raises
    ConfigError naming the override."""
    out = dict(raw)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError("override %r is not of the form key=value"
                              % item)
        key, value = (part.strip() for part in item.split("=", 1))
        try:
            _parse_value(key, value)
        except ConfigError as exc:
            raise ConfigError("--set %s: %s" % (item, exc)) from None
        out[key] = value
    return out


def build_configs(raw: dict):
    """Turn raw strings into validated (EncoderConfig, LexicalConfig,
    TrainConfig).  Unknown keys are errors, not warnings."""
    per_class = {cls: {} for cls in _SECTIONS}
    for key, text in raw.items():
        value = _parse_value(key, text)
        per_class[_FIELDS[key][0]][key] = value
    return tuple(cls(**per_class[cls]).validate() for cls in _SECTIONS)


def config_from_values(cls, values: dict):
    """``cls(**values)`` once every entry of ``values`` (say, decoded JSON)
    is a field of ``cls`` holding a value of the field's type (an int also
    serves as a float); ConfigError otherwise."""
    for key, value in values.items():
        owner, want = _FIELDS.get(key, (None, None))
        if owner is not cls:
            raise ConfigError("unknown %s key %r" % (cls.__name__, key))
        if type(value) is not want and (want, type(value)) != (float, int):
            raise ConfigError("%s %s is %r, expected %s"
                              % (cls.__name__, key, value, want.__name__))
    return cls(**values)


def default_config_text() -> str:
    """Render every key with its default value, as a starting-point file."""
    lines = []
    for cls in _SECTIONS:
        lines.append("# %s" % cls.__name__)
        for f in dataclasses.fields(cls):
            value = f.default
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append("%s = %s" % (f.name, value))
        lines.append("")
    return "\n".join(lines)
