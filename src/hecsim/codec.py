"""Strict JSON codec for the frozen dataclasses read from files: the
configs, the scenario and the labeled frame set.

A file mirrors its dataclass: one key per field, nested dataclasses
as objects, tuples and frozensets as lists, dicts as objects. Omitted keys
keep the field default. An unknown key, a value of the wrong type, a missing
required field or a value the dataclass itself rejects raises
InvalidConfigError naming the dotted path, e.g.
"Scenario.network.failover: unknown key 'bogus'". A float field also takes
a JSON int; nothing else is coerced. NaN and the infinities are never valid
numbers. A file that is not UTF-8 JSON raises InvalidConfigError naming the
class and the file.

A numeric field declares its range in its type, bare or in "X | None", by an
interval alias below. check_ranges, run first in __post_init__, rejects the
first field out of range; from a file, e.g. "Scenario.network.failover:
heartbeat_interval_s 0.0 is not in (0, inf)".
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import typing
from pathlib import Path

from .errors import InvalidConfigError, InvalidInputError

Positive = typing.Annotated[float, "(0, inf)"]
NonNegative = typing.Annotated[float, "[0, inf)"]
NonNegativeOrInf = typing.Annotated[float, "[0, inf]"]
Probability = typing.Annotated[float, "[0, 1]"]
Count = typing.Annotated[int, "[0, inf)"]
PositiveCount = typing.Annotated[int, "[1, inf)"]

_SCALARS = {float: "a number", int: "an integer", str: "a string",
            bool: "true or false"}


def encode(value):
    """Dataclass tree to JSON-able data; frozensets become sorted lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(encode(v) for v in value)
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    return value


@functools.cache
def _ranges(cls) -> tuple:
    """(field, interval, low, high, low test, high test) per interval alias
    among the type hints of cls, bare or as a member of a union."""
    ranges = []
    for name, tp in typing.get_type_hints(cls, include_extras=True).items():
        union = typing.get_origin(tp) is typing.Union
        for t in typing.get_args(tp) if union else (tp,):
            if typing.get_origin(t) is typing.Annotated:
                text = t.__metadata__[0]
                ranges.append((name, text, *map(float, text[1:-1].split(",")),
                               operator.le if text[0] == "[" else operator.lt,
                               operator.le if text[-1] == "]" else operator.lt))
    return tuple(ranges)


def check_ranges(obj) -> None:
    """Reject the first field of a dataclass outside its declared interval
    as "<field> <value> is not in <interval>"; None passes."""
    for name, text, low, high, above, below in _ranges(type(obj)):
        value = getattr(obj, name)
        if value is not None and not (above(low, value) and below(value, high)):
            raise InvalidConfigError(f"{name} {value} is not in {text}")


def _fail(path: str, message: str):
    raise InvalidConfigError(f"{path}: {message}")


def _check(ok: bool, path: str, expected: str, value) -> None:
    if not ok:
        _fail(path, f"expected {expected}, got {value!r:.60}")


def decode(tp, data, path: str):
    """JSON data to an instance of type tp, checked at every depth."""
    if dataclasses.is_dataclass(tp):
        _check(isinstance(data, dict), path, "an object", data)
        fields = {f.name: f for f in dataclasses.fields(tp) if f.init}
        for key in data:
            if key not in fields:
                _fail(path, f"unknown key {key!r}")
        hints = typing.get_type_hints(tp)
        kwargs = {}
        for name, f in fields.items():
            if name in data:
                kwargs[name] = decode(hints[name], data[name], f"{path}.{name}")
            elif f.default is dataclasses.MISSING and \
                    f.default_factory is dataclasses.MISSING:
                _fail(path, f"missing key {name!r}")
        try:
            return tp(**kwargs)
        except InvalidInputError as exc:
            raise InvalidConfigError(f"{path}: {exc}") from exc

    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (tuple, frozenset):
        _check(isinstance(data, list), path, "a list", data)
        if origin is frozenset:
            return frozenset(decode(args[0], v, f"{path}[{i}]")
                             for i, v in enumerate(data))
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(data)
        _check(len(data) == len(args), path, f"{len(args)} items", data)
        return tuple(decode(a, v, f"{path}[{i}]")
                     for i, (a, v) in enumerate(zip(args, data)))
    if origin is dict:
        _check(isinstance(data, dict), path, "an object", data)
        return {k: decode(args[1], v, f"{path}.{k}") for k, v in data.items()}
    if tp in _SCALARS:
        if tp is float and isinstance(data, int) and not isinstance(data, bool):
            try:
                data = float(data)
            except OverflowError:  # an int past the float range
                data = math.inf
        # bool is an int subclass in Python but never a number in a config
        _check(isinstance(data, tp) and isinstance(data, bool) == (tp is bool),
               path, _SCALARS[tp], data)
        _check(tp is not float or math.isfinite(data), path, "a finite number",
               data)
        return data
    raise TypeError(f"unsupported field type {tp} at {path}")


def read_json(path: str | Path, owner: str):
    """Parse one JSON file read as UTF-8; owner names what it holds."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: the parser nests one call per bracket of the file
        raise InvalidConfigError(f"{owner}: {path}: not UTF-8 JSON: {exc}") \
            from exc


class JsonConfig:
    """Mixin giving a frozen dataclass strict to_json/from_json/load."""

    def to_json(self) -> dict:
        return encode(self)

    @classmethod
    def from_json(cls, data):
        return decode(cls, data, cls.__name__)

    @classmethod
    def load(cls, path: str | Path):
        return cls.from_json(read_json(path, cls.__name__))
