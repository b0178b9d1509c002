"""Structured-text (.cfg) sections read into dataclass fields: a key must name
a field, and its text is converted by the field's annotation (int, float, str
or X | None)."""

from __future__ import annotations

import configparser
import dataclasses
import typing

__all__ = ["field_value", "field_values", "read_cfg"]


def read_cfg(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        found = cp.read(str(path))
    except configparser.Error as exc:  # no section header, a repeated key, ...
        raise ValueError(f"{path}: {exc}") from None
    if not found:
        raise ValueError(f"cannot read config file {path}")
    return cp


def field_value(cls, key: str, raw: str, exclude=()):
    """`raw` converted for the field `key` of dataclass `cls`."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in exclude]
    if key not in names:
        raise ValueError(f"unknown key {key!r}; known: {', '.join(names)}")
    hint = typing.get_type_hints(cls)[key]
    kind = next((t for t in typing.get_args(hint) if t is not type(None)), hint)  # X | None reads as X
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"{key} = {raw!r} is not a valid {kind.__name__}") from None


def field_values(cls, section, source: str, exclude=()) -> dict:
    """Every key of a section converted by field_value; errors name `source`."""
    try:
        return {key: field_value(cls, key, raw, exclude) for key, raw in section.items()}
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc
