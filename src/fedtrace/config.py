"""One reader and one writer for the frozen config dataclasses.

A config class derives from JsonConfig. Field types come from its
annotations: int, float, bool, str, X | None, tuple[X, ...] and a nested
JsonConfig. from_dict takes a JSON-shaped object, gives every absent
field its default, and refuses an unknown field or a wrongly typed value
with a ConfigError naming the dotted field path (generator.n_scripts).
An integral float such as 5e3 reads as an int field's 5000; a string
never reads as a number; a field whose metadata sets ALLOW_INF also takes
"inf" or "infinity". to_dict writes the same JSON shape back: lists for
tuples, a nested object for a nested config and "inf" for infinity.

Construction reads every field by these same rules, however the config
was built (from_dict, directly, or dataclasses.replace), and stores what
it read: ExperimentConfig(rounds=4.0) holds the int 4, and
ExperimentConfig(rounds="5") is refused. A float value must then be
finite, except that a field whose metadata sets ALLOW_INF may be
infinite, and the subclass's _check runs its range checks. All of these
raise a ConfigError naming the field, so every config that can be built
can be read back from its to_dict.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from typing import Mapping

from .errors import ConfigError

ALLOW_INF = "allow_inf"


class JsonConfig:
    """Base of a config dataclass: to_dict/from_dict driven by its annotations."""

    __slots__ = ()

    def __post_init__(self):
        hints = _type_hints(type(self))
        for f in dataclasses.fields(self):
            allow_inf = f.metadata.get(ALLOW_INF, False)
            value = _read(hints[f.name], getattr(self, f.name), f.name, allow_inf)
            _refuse_non_finite(value, f.name, allow_inf)
            object.__setattr__(self, f.name, value)
        self._check()

    def _check(self) -> None:
        """The subclass's range checks; each raises a ConfigError naming its field."""

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, obj: Mapping):
        return _read_config(cls, obj, "")


def _refuse_non_finite(value, where: str, allow_inf: bool) -> None:
    if isinstance(value, tuple):
        for i, v in enumerate(value):
            _refuse_non_finite(v, f"{where}[{i}]", False)
    elif isinstance(value, float) and (math.isnan(value)
                                       or (math.isinf(value) and not allow_inf)):
        raise ConfigError(where, f"must be finite: {value!r}")


def _encode(value):
    if isinstance(value, JsonConfig):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


@functools.cache
def _type_hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _read_config(cls, obj, path: str):
    """Build cls from a JSON object; construction reads each value (_read)."""
    if not isinstance(obj, Mapping):
        raise ConfigError(path or cls.__name__, "must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for name in obj:
        if name not in fields:
            raise ConfigError(f"{path}.{name}" if path else name, "unknown field")
    for name, f in fields.items():
        if name not in obj and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{path}.{name}" if path else name, "required field missing")
    try:
        return cls(**obj)
    except ConfigError as exc:
        if not path:
            raise
        raise ConfigError(f"{path}.{exc.field}", exc.message) from None


def _read(tp, value, where: str, allow_inf: bool = False):
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return _read(tp, value, where, allow_inf)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(where, f"expected a list: {value!r}")
        return tuple(_read(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if isinstance(tp, type) and issubclass(tp, JsonConfig):
        return value if isinstance(value, tp) else _read_config(tp, value, where)
    if tp is bool or tp is str:
        if not isinstance(value, tp):
            raise ConfigError(where, f"expected a {tp.__name__}: {value!r}")
        return value
    if allow_inf and isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        value = math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(where, f"not a number: {value!r}")
    if tp is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(where, f"not an integer: {value!r}")
        return int(value)
    if tp is float:  # construction refuses what is not finite
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            return math.inf
    raise TypeError(f"{where}: no reader for config type {tp!r}")
